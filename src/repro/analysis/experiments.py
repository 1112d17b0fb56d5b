"""The experiment harness: one function per paper figure/table.

Every function here is deterministic (seeded fuzzing, cycle-count cost
model) and parameterised by a scale knob (input size / fuzzing iterations)
so the benchmarks can run in "quick" mode — the same idea as the paper
artifact's three-hour approximation of the 24-hour campaigns
(Appendix B.7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro.api as api
from repro.campaign.spec import CampaignSpec
from repro.campaign.summary import CampaignSummary
from repro.campaign.worker import instrumented_binary
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.hardening.passes import STRATEGIES
from repro.hardening.pipeline import HardeningResult
from repro.minic.codegen import CompilerOptions, SwitchLowering
from repro.minic.compiler import compile_source
from repro.analysis.metrics import DetectionScore, classify_reports
from repro.targets import get_target
from repro.targets.injection import inject_gadgets
from repro.plugins import DEFAULT_ENGINE

#: SpecTaint's Table 3 numbers as reported in the SpecTaint paper (the
#: artifact could not be re-run; see paper §7.2 and Appendix B.8.2).
SPECTAINT_REPORTED_TABLE3: Dict[str, Dict[str, int]] = {
    "jsmn": {"GT": 3, "TP": 3, "FP": 0, "FN": 0},
    "libyaml": {"GT": 10, "TP": 7, "FP": 0, "FN": 3},
    "libhtp": {"GT": 7, "TP": 7, "FP": 0, "FN": 0},
    "brotli": {"GT": 13, "TP": 12, "FP": 0, "FN": 1},
}


# ---------------------------------------------------------------------------
# Run-time performance (Figures 1 and 7)
# ---------------------------------------------------------------------------

@dataclass
class RuntimeRow:
    """One program's normalized run times (a group of bars in Figure 7)."""

    program: str
    native_cycles: int
    tool_cycles: Dict[str, int] = field(default_factory=dict)

    def normalized(self, tool: str) -> float:
        """Normalized run time of a tool (instrumented / native)."""
        return self.tool_cycles[tool] / self.native_cycles

    def as_dict(self) -> Dict[str, float]:
        """Row as {tool: normalized run time}."""
        return {tool: round(self.normalized(tool), 1) for tool in self.tool_cycles}


def run_figure7(
    programs: Sequence[str] = ("jsmn", "libyaml", "libhtp", "brotli", "openssl"),
    input_size: int = 200,
    tools: Sequence[str] = ("spectaint", "specfuzz", "teapot"),
    engine: str = DEFAULT_ENGINE,
) -> List[RuntimeRow]:
    """Figure 7: normalized run time of each tool on each program.

    Nested speculation and all heuristics are disabled for every tool, as in
    the paper's §7.1 setup.  ``engine`` selects the emulator engine; the
    reported cycle counts are engine-invariant.

    One :meth:`repro.api.Pipeline.bench` stage per program — the facade
    implements the exact §7.1 measurement, so the rows are bit-identical
    with the pre-facade harness.
    """
    rows: List[RuntimeRow] = []
    for name in programs:
        run = (api.pipeline(target=name, engine=engine)
               .bench(input_size=input_size,
                      tools=tuple(t for t in api.BENCH_TOOLS if t in tools))
               .report())
        payload = run.stage("bench").payload
        rows.append(RuntimeRow(
            program=name,
            native_cycles=payload["native_cycles"],
            tool_cycles=dict(payload["tool_cycles"]),
        ))
    return rows


def run_figure1(input_size: int = 200) -> List[RuntimeRow]:
    """Figure 1 (motivation): SpecTaint vs SpecFuzz on jsmn and libyaml."""
    return run_figure7(programs=("jsmn", "libyaml"), input_size=input_size,
                       tools=("spectaint", "specfuzz"))


# ---------------------------------------------------------------------------
# Switch lowering (Figure 2)
# ---------------------------------------------------------------------------

_SWITCH_SOURCE = r"""
int handled = 0;

int dispatch(int value) {
    switch (value) {
        case 0: { handled = 1; }
        case 1: { handled = 2; }
        case 2: { handled = 3; }
        case 3: { handled = 4; }
        default: { handled = 0; }
    }
    return handled;
}

int main() {
    byte buf[8];
    int n = read_input(buf, 8);
    if (n < 1) {
        return 0;
    }
    return dispatch(buf[0]);
}
"""


@dataclass
class SwitchLoweringResult:
    """Figure 2: gadget exposure under the two switch lowerings."""

    lowering: str
    conditional_branches: int
    speculation_entries: int

    @property
    def spectre_v1_exposed(self) -> bool:
        """Whether the lowering creates mispredictable conditional branches."""
        return self.conditional_branches > 1


def run_figure2(fuzz_iterations: int = 0) -> List[SwitchLoweringResult]:
    """Figure 2: the same switch compiled as a branch chain vs a jump table.

    The branch-chain lowering (GCC-style) produces one conditional branch
    per case — each a potential Spectre-V1 entry point — whereas the
    jump-table lowering (Clang-style) produces a single bounds check and an
    indirect jump, which is not mispredicted in the Spectre-V1 sense.
    """
    from repro.disasm import disassemble

    results: List[SwitchLoweringResult] = []
    for lowering in (SwitchLowering.BRANCH_CHAIN, SwitchLowering.JUMP_TABLE):
        binary = compile_source(_SWITCH_SOURCE, CompilerOptions(switch_lowering=lowering))
        module = disassemble(binary)
        dispatch_fn = module.function("dispatch")
        branch_count = dispatch_fn.conditional_branch_count()

        config = TeapotConfig()
        instrumented = TeapotRewriter(config).instrument(binary)
        runtime = TeapotRuntime(instrumented, config=config)
        for value in range(8):
            result = runtime.run(bytes([value * 40 % 256]))
        # spec_stats are cumulative over the runtime's runs
        entries = result.spec_stats.get("simulations_started", 0)
        results.append(
            SwitchLoweringResult(
                lowering=lowering.value,
                conditional_branches=branch_count,
                speculation_entries=entries,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Artificial gadget injection (Table 3)
# ---------------------------------------------------------------------------

@dataclass
class InjectionRow:
    """One program's Table 3 row: per-tool detection scores."""

    program: str
    scores: Dict[str, DetectionScore] = field(default_factory=dict)
    spectaint_reported: Optional[Dict[str, int]] = None

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Row as {tool: score-row}."""
        out = {tool: score.as_row() for tool, score in self.scores.items()}
        if self.spectaint_reported is not None:
            out["spectaint_reported"] = dict(self.spectaint_reported)
        return out


def run_table3(
    programs: Sequence[str] = ("jsmn", "libyaml", "libhtp", "brotli"),
    fuzz_iterations: int = 40,
    seed: int = 1234,
    workers: int = 1,
    engine: str = DEFAULT_ENGINE,
) -> List[InjectionRow]:
    """Table 3: detection of artificially injected gadgets.

    Following the paper: the ordinary taint sources are disabled and only
    the artificial gadgets' input (``attack_input()``) is attacker-direct;
    the Massage policy is disabled to avoid attacker-indirect noise (this
    is the campaign worker's ``injected``-variant configuration).

    The fuzzing itself is routed through the campaign scheduler —
    ``workers > 1`` fans the (program × tool) matrix over worker processes
    without changing any result, because the legacy single-shard seeding is
    preserved (``derive_seeds=False`` keeps every job on ``seed``).
    """
    spec = CampaignSpec(
        targets=tuple(programs),
        tools=("teapot", "specfuzz"),
        variants=("injected",),
        iterations=fuzz_iterations,
        rounds=1,
        shards=1,
        seed=seed,
        workers=workers,
        derive_seeds=False,
        skip_uninjectable=False,
        engine=engine,
    )
    summary = api.pipeline().campaign(spec=spec).report().summary

    rows: List[InjectionRow] = []
    for name in programs:
        # Recompute the ground truth and the pc->function mapping binaries;
        # both are deterministic and memoised per process, so the serial
        # path reuses the worker's own compiles.
        injected = inject_gadgets(get_target(name))
        row = InjectionRow(program=name,
                           spectaint_reported=SPECTAINT_REPORTED_TABLE3.get(name))
        for tool, require_user_attacker in (("teapot", True),
                                            ("specfuzz", False)):
            row.scores[tool] = classify_reports(
                injected,
                summary.row(name, tool, "injected").collection,
                instrumented_binary(name, tool, "injected"),
                require_user_attacker=require_user_attacker,
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Vanilla binaries (Table 4)
# ---------------------------------------------------------------------------

@dataclass
class VanillaRow:
    """One program's Table 4 row."""

    program: str
    teapot_by_category: Dict[str, int] = field(default_factory=dict)
    teapot_total: int = 0
    specfuzz_total: int = 0
    spectaint_total: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Row as a flat dictionary."""
        return {
            "program": self.program,
            "spectaint": self.spectaint_total,
            "specfuzz": self.specfuzz_total,
            "teapot_total": self.teapot_total,
            **{f"teapot_{k}": v for k, v in sorted(self.teapot_by_category.items())},
        }


def run_table4(
    programs: Sequence[str] = ("jsmn", "libyaml", "libhtp", "brotli", "openssl"),
    fuzz_iterations: int = 40,
    seed: int = 99,
    workers: int = 1,
    engine: str = DEFAULT_ENGINE,
) -> List[VanillaRow]:
    """Table 4: gadgets found in the unmodified binaries.

    Routed through the campaign scheduler (one job per program × tool);
    ``workers > 1`` parallelises the matrix without changing results, and
    ``engine`` selects the (result-invariant) emulator engine.
    """
    spec = CampaignSpec(
        targets=tuple(programs),
        tools=("teapot", "specfuzz", "spectaint"),
        variants=("vanilla",),
        iterations=fuzz_iterations,
        rounds=1,
        shards=1,
        seed=seed,
        workers=workers,
        derive_seeds=False,
        engine=engine,
    )
    summary = api.pipeline().campaign(spec=spec).report().summary

    rows: List[VanillaRow] = []
    for name in programs:
        teapot = summary.row(name, "teapot", "vanilla")
        rows.append(VanillaRow(
            program=name,
            teapot_by_category=dict(teapot.by_category),
            teapot_total=teapot.unique_gadgets,
            specfuzz_total=summary.row(name, "specfuzz", "vanilla").unique_gadgets,
            spectaint_total=summary.row(name, "spectaint", "vanilla").unique_gadgets,
        ))
    return rows


# ---------------------------------------------------------------------------
# Hardening: targeted mitigation vs fence-everything (detect→patch→verify)
# ---------------------------------------------------------------------------

@dataclass
class HardeningRow:
    """One target's hardening account: per-strategy verified results.

    The headline comparison of the detect→patch→verify workflow: targeted
    mitigations (report-guided fences, SLH-style masking) must eliminate
    every reported site just like the fence-everything baseline, at a
    strictly lower run-time cost.
    """

    target: str
    variant: str
    results: Dict[str, HardeningResult] = field(default_factory=dict)

    @property
    def baseline_overhead(self) -> float:
        """Overhead of the fence-every-branch baseline, when measured."""
        baseline = self.results.get("fence-all")
        return baseline.overhead if baseline is not None else 1.0

    def as_dict(self) -> Dict[str, object]:
        """Row as {strategy: summary numbers} plus the target identity."""
        out: Dict[str, object] = {"target": self.target, "variant": self.variant}
        for strategy, result in self.results.items():
            out[strategy] = {
                "sites": len(result.sites_before),
                "eliminated": len(result.eliminated),
                "residual": len(result.residual),
                "new": len(result.new_sites),
                "overhead": round(result.overhead, 3),
            }
        return out


def run_hardening_matrix(
    targets: Sequence[str] = ("gadgets",),
    strategies: Sequence[str] = STRATEGIES,
    variant: str = "vanilla",
    tool: str = "teapot",
    iterations: int = 400,
    seed: int = 1234,
    engine: str = DEFAULT_ENGINE,
    perf_input_size: int = 200,
) -> List[HardeningRow]:
    """Harden every target with every strategy and verify by re-fuzzing.

    The detection campaign runs once per target; all strategies patch from
    the same report set, so their eliminated/residual/overhead numbers are
    directly comparable.  Every step goes through the :mod:`repro.api`
    Pipeline — one ``fuzz`` detection run per target, then one
    ``reports → harden → refuzz`` chain per strategy — and produces the
    same :class:`HardeningResult` rows as the classic
    :func:`repro.hardening.pipeline.run_hardening` entry point.
    """
    rows: List[HardeningRow] = []
    for name in targets:
        row = HardeningRow(target=name, variant=variant)
        # One detection campaign per target; every strategy patches from
        # the same report set so the comparison is apples to apples.
        detection = (api.pipeline(target=name, variant=variant, tool=tool,
                                  engine=engine, seed=seed)
                     .fuzz(iterations=iterations)
                     .report())
        reports = detection.gadget_reports()
        for strategy in strategies:
            verified = (api.pipeline(target=name, variant=variant, tool=tool,
                                     engine=engine, seed=seed,
                                     perf_input_size=perf_input_size)
                        .reports(reports)
                        .harden(strategy)
                        .refuzz(iterations=iterations)
                        .report())
            row.results[strategy] = verified.hardening_result
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Whole-suite campaign matrices
# ---------------------------------------------------------------------------

def run_matrix(
    targets: Optional[Sequence[str]] = None,
    tools: Sequence[str] = ("teapot",),
    variants: Sequence[str] = ("vanilla",),
    iterations: int = 200,
    rounds: int = 2,
    shards: int = 2,
    seed: int = 0,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    engine: str = DEFAULT_ENGINE,
) -> CampaignSummary:
    """Run a whole-suite campaign matrix and return its summary.

    This is the library-level equivalent of ``python -m repro.campaign``:
    sharded corpora with cross-worker sync every round, report dedup
    across workers, and optional checkpoint/resume — routed through the
    :meth:`repro.api.Pipeline.campaign` stage.
    """
    from repro.targets import runnable_targets

    spec = CampaignSpec(
        targets=tuple(targets if targets is not None else runnable_targets()),
        tools=tuple(tools),
        variants=tuple(variants),
        iterations=iterations,
        rounds=rounds,
        shards=shards,
        seed=seed,
        workers=workers,
        engine=engine,
    )
    run = (api.pipeline()
           .campaign(spec=spec, checkpoint=checkpoint_path, resume=resume)
           .report())
    return run.summary
