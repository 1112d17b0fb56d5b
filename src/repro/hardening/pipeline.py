"""The detect → patch → verify pipeline.

:func:`run_hardening` drives the whole loop for one (target, strategy)
pair:

1. **Detect** — run a deterministic fuzzing campaign against the
   tool-instrumented build (reusing :mod:`repro.campaign`'s scheduler) and
   collect the deduplicated gadget reports.
2. **Map** — resolve every report PC back to a :class:`~repro.hardening.
   sites.GadgetSite` of the uninstrumented module.
3. **Patch** — disassemble the original binary, run the strategy's
   rewriting pass, and reassemble the hardened binary.
4. **Verify** — substitute the hardened binary for the target (``
   binary_override``), re-run the *same* campaign, and classify each
   original site as eliminated or residual (plus any new sites the re-fuzz
   surfaced).
5. **Account** — execute the original and hardened binaries natively (no
   instrumentation) over the target's crafted performance input and report
   the cycle overhead the mitigation costs a deployed binary.

Everything is deterministic: same spec, same seed, same sites, same
overhead, so results are directly comparable across strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import (
    binary_override,
    compiled_binary,
    instrumented_binary,
)
from repro.disasm.disassembler import disassemble
from repro.disasm.ir import Module
from repro.hardening.passes import strategy_pass
from repro.hardening.sites import (
    GadgetSite,
    ordinal_translation,
    resolve_sites,
    snapshot_architectural,
    translate_site,
)
from repro.loader.binary_format import TelfBinary
from repro.rewriting.passes import PassManager
from repro.rewriting.reassemble import reassemble
from repro.runtime.fastpath import resolve_engine
from repro.sanitizers.reports import GadgetReport
from repro.targets import get_target
from repro.plugins import DEFAULT_ENGINE


def measure_cycles(binary: TelfBinary, input_data: bytes,
                   engine: str = DEFAULT_ENGINE) -> int:
    """Cycle count of one native (uninstrumented) execution."""
    emulator_cls, _ = resolve_engine(engine)
    result = emulator_cls(binary).run(input_data)
    if not result.ok:
        raise RuntimeError(
            f"native run failed: {result.status} {result.crash_reason}"
        )
    return result.cycles


def harden_module(module: Module, strategy: str,
                  sites: Iterable[GadgetSite]):
    """Apply one strategy to a module in place.

    Returns ``(pass_stats, site_outcomes, translation)`` where
    ``translation`` maps each function's hardened architectural ordinals
    back to the pre-hardening ones (see :mod:`repro.hardening.sites`).
    """
    ordered = sorted(sites, key=lambda s: (s.function, s.ordinal))
    snapshot = snapshot_architectural(module)
    mitigation = strategy_pass(strategy, ordered)
    stats = PassManager().add(mitigation).run(module)
    translation = ordinal_translation(module, snapshot)
    outcomes = dict(getattr(mitigation, "site_outcomes", {}))
    return stats, outcomes, translation


def _site_dict(site: GadgetSite,
               reports: Optional[List[GadgetReport]] = None,
               outcome: Optional[str] = None) -> Dict[str, object]:
    record = site.to_dict()
    if reports:
        record["channels"] = sorted({r.channel.value for r in reports})
        record["attackers"] = sorted({r.attacker.value for r in reports})
        record["pcs"] = sorted({r.pc for r in reports})
        record["variants"] = sorted({r.variant for r in reports})
    if outcome is not None:
        record["mitigation"] = outcome
    return record


def _variant_breakdown(*site_lists) -> Dict[str, Dict[str, int]]:
    """Per-variant counts over (eliminated, residual, new) site records.

    A site reported by several speculation variants counts once under each
    — a fence that kills the PHT path of a load but leaves its STL path
    must show up as residual *for stl* and eliminated *for pht*.  Residual
    records therefore carry ``residual_variants`` (the variants the verify
    re-fuzz actually still reported, recorded by :func:`verify_patch`);
    baseline variants outside that set count as eliminated.
    """
    labels = ("eliminated", "residual", "new")
    breakdown: Dict[str, Dict[str, int]] = {}

    def bump(variant: str, label: str) -> None:
        cell = breakdown.setdefault(variant, {key: 0 for key in labels})
        cell[label] += 1

    eliminated, residual, new = site_lists
    for record in eliminated:
        for variant in record.get("variants", ["pht"]):
            bump(variant, "eliminated")
    for record in residual:
        baseline = record.get("variants", ["pht"])
        surviving = set(record.get("residual_variants", baseline))
        for variant in baseline:
            bump(variant, "residual" if variant in surviving
                 else "eliminated")
        # A variant that only *appeared* at the site under re-fuzz still
        # counts as residual (the site demonstrably leaks through it).
        for variant in sorted(surviving.difference(baseline)):
            bump(variant, "residual")
    for record in new:
        for variant in record.get("variants", ["pht"]):
            bump(variant, "new")
    return breakdown


@dataclass
class PatchOutcome:
    """The product of the patch step: a hardened binary plus bookkeeping.

    Produced by :func:`patch_binary` and consumed by :func:`verify_patch`;
    :func:`run_hardening` and the :mod:`repro.api` pipeline both build
    their results from this pair, so the two entry points cannot drift.
    """

    target: str
    variant: str
    tool: str
    strategy: str
    #: per-site report lists keyed by resolved gadget site.
    site_reports: Dict[GadgetSite, List[GadgetReport]]
    #: per-site mitigation outcome ("fenced", "masked", ...).
    outcomes: Dict[GadgetSite, str]
    #: hardened-ordinal -> original-ordinal translation per function.
    translation: Dict[str, Dict[int, int]]
    #: per-pass rewriting statistics.
    pass_stats: Dict[str, Dict[str, int]]
    base_binary: TelfBinary
    hardened: TelfBinary

    @property
    def sites_before(self) -> List[Dict[str, object]]:
        """JSON records of the pre-hardening sites, in stable order."""
        return [
            _site_dict(site, self.site_reports[site], self.outcomes.get(site))
            for site in sorted(self.site_reports,
                               key=lambda s: (s.function, s.ordinal))
        ]


@dataclass
class VerifyOutcome:
    """The product of the re-fuzz verification of one hardened binary."""

    eliminated: List[Dict[str, object]] = field(default_factory=list)
    residual: List[Dict[str, object]] = field(default_factory=list)
    new_sites: List[Dict[str, object]] = field(default_factory=list)
    executions: int = 0


def patch_binary(target: str, strategy: str, variant: str = "vanilla",
                 tool: str = "teapot",
                 reports: Iterable[GadgetReport] = ()) -> PatchOutcome:
    """Map reports to sites and synthesise one strategy's hardened binary.

    The report PCs must refer to the deterministic instrumented build of
    the same (target, tool, variant) — which is what every campaign
    fuzzes.
    """
    instrumented = instrumented_binary(target, tool, variant)
    site_reports = resolve_sites(instrumented, reports)
    base_binary = compiled_binary(target, variant)
    module = disassemble(base_binary)
    stats, outcomes, translation = harden_module(
        module, strategy, site_reports.keys()
    )
    return PatchOutcome(
        target=target, variant=variant, tool=tool, strategy=strategy,
        site_reports=site_reports, outcomes=outcomes,
        translation=translation, pass_stats=stats,
        base_binary=base_binary, hardened=reassemble(module),
    )


def verify_patch(patch: PatchOutcome, spec: CampaignSpec) -> VerifyOutcome:
    """Re-fuzz a hardened binary and classify every baseline site.

    Substitutes the hardened binary for the target's compiled build
    (``binary_override``), re-runs the campaign described by ``spec``
    and sorts the baseline sites into eliminated/residual — plus any new
    sites the re-fuzz surfaced (ordinal-translated back where possible).
    """
    with binary_override(patch.target, patch.variant, patch.hardened):
        verification = run_campaign(spec)
        verify_instrumented = instrumented_binary(
            patch.target, patch.tool, patch.variant)
    verify_row = verification.row(patch.target, patch.tool, patch.variant)
    verify_sites = resolve_sites(verify_instrumented, verify_row.collection)
    outcome = VerifyOutcome(executions=verify_row.executions)

    baseline_keys = {site.key for site in patch.site_reports}
    surviving: Dict[Tuple[str, int], set] = {}
    for site, site_hits in verify_sites.items():
        original = translate_site(site, patch.translation)
        if original is not None and original.key in baseline_keys:
            surviving.setdefault(original.key, set()).update(
                report.variant for report in site_hits)
        else:
            record = _site_dict(site, site_hits)
            if original is not None:
                record["original_ordinal"] = original.ordinal
            outcome.new_sites.append(record)
    for record in patch.sites_before:
        key = (record["function"], record["ordinal"])
        if key in surviving:
            # Record which variants the re-fuzz actually still reported,
            # so the per-variant breakdown can count the others eliminated.
            residual_record = dict(record)
            residual_record["residual_variants"] = sorted(surviving[key])
            outcome.residual.append(residual_record)
        else:
            outcome.eliminated.append(record)
    return outcome


@dataclass
class HardeningResult:
    """Everything one detect → patch → verify run produced."""

    target: str
    variant: str
    tool: str
    strategy: str
    engine: str
    iterations: int
    seed: int
    #: pre-hardening unique gadget sites (with channels/pcs/mitigation).
    sites_before: List[Dict[str, object]] = field(default_factory=list)
    #: baseline sites absent from the verification re-fuzz.
    eliminated: List[Dict[str, object]] = field(default_factory=list)
    #: baseline sites the re-fuzz still reported (mitigation failed).
    residual: List[Dict[str, object]] = field(default_factory=list)
    #: sites the re-fuzz reported that did not exist before hardening.
    new_sites: List[Dict[str, object]] = field(default_factory=list)
    #: per-pass rewriting statistics (fences inserted, loads masked, ...).
    pass_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: cycle accounting on the target's crafted performance input.
    native_cycles: int = 0
    hardened_cycles: int = 0
    #: executions performed by the baseline and verification campaigns.
    baseline_executions: int = 0
    verify_executions: int = 0

    @property
    def overhead(self) -> float:
        """Hardened / native run time on the performance input."""
        if self.native_cycles == 0:
            return 1.0
        return self.hardened_cycles / self.native_cycles

    @property
    def all_eliminated(self) -> bool:
        """Whether every reported site disappeared under re-fuzz."""
        return bool(self.sites_before) and not self.residual

    @property
    def by_variant(self) -> Dict[str, Dict[str, int]]:
        """Eliminated/residual/new site counts per speculation variant."""
        return _variant_breakdown(self.eliminated, self.residual,
                                  self.new_sites)

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-ready form (CLI output, CI artifacts)."""
        return {
            "target": self.target,
            "variant": self.variant,
            "tool": self.tool,
            "strategy": self.strategy,
            "engine": self.engine,
            "iterations": self.iterations,
            "seed": self.seed,
            "sites_before": self.sites_before,
            "eliminated": self.eliminated,
            "residual": self.residual,
            "new_sites": self.new_sites,
            "by_variant": self.by_variant,
            "pass_stats": self.pass_stats,
            "native_cycles": self.native_cycles,
            "hardened_cycles": self.hardened_cycles,
            "overhead": round(self.overhead, 4),
            "baseline_executions": self.baseline_executions,
            "verify_executions": self.verify_executions,
        }

    def format_summary(self) -> str:
        """A short human-readable account of the run."""
        lines = [
            f"{self.target}/{self.variant} [{self.tool}] strategy={self.strategy}",
            f"  sites before: {len(self.sites_before)}  "
            f"eliminated: {len(self.eliminated)}  "
            f"residual: {len(self.residual)}  "
            f"new: {len(self.new_sites)}",
            f"  overhead: {self.overhead:.3f}x "
            f"({self.hardened_cycles} vs {self.native_cycles} cycles)",
        ]
        breakdown = self.by_variant
        if len(breakdown) > 1:
            parts = [
                f"{variant}: {cell['eliminated']}/"
                f"{cell['eliminated'] + cell['residual']} eliminated"
                + (f", {cell['new']} new" if cell["new"] else "")
                for variant, cell in sorted(breakdown.items())
            ]
            lines.append("  per variant: " + "  ".join(parts))
        for name, stats in self.pass_stats.items():
            formatted = ", ".join(f"{k}={v}" for k, v in sorted(stats.items()))
            lines.append(f"  pass {name}: {formatted or 'no-op'}")
        return "\n".join(lines)


def _campaign_spec(target: str, tool: str, variant: str, iterations: int,
                   rounds: int, seed: int, engine: str,
                   spec_variants=("pht",)) -> CampaignSpec:
    return CampaignSpec(
        targets=(target,),
        tools=(tool,),
        variants=(variant,),
        iterations=iterations,
        rounds=rounds,
        shards=1,
        seed=seed,
        workers=1,
        engine=engine,
        skip_uninjectable=False,
        spec_variants=tuple(spec_variants),
    )


def detect_reports(
    target: str,
    variant: str = "vanilla",
    tool: str = "teapot",
    iterations: int = 400,
    rounds: int = 1,
    seed: int = 1234,
    engine: str = DEFAULT_ENGINE,
    spec_variants=("pht",),
) -> List[GadgetReport]:
    """Run the detection campaign alone and return its unique reports.

    Useful for comparing several strategies against one report set (the
    matrix experiment does this) or for feeding ``--report-in`` workflows.
    """
    spec = _campaign_spec(target, tool, variant, iterations, rounds, seed,
                          engine, spec_variants)
    summary = run_campaign(spec)
    return summary.row(target, tool, variant).collection.reports()


def run_hardening(
    target: str,
    strategy: str,
    variant: str = "vanilla",
    tool: str = "teapot",
    iterations: int = 400,
    rounds: int = 1,
    seed: int = 1234,
    engine: str = DEFAULT_ENGINE,
    perf_input_size: int = 200,
    reports: Optional[Iterable[GadgetReport]] = None,
    progress=None,
    spec_variants=("pht",),
) -> HardeningResult:
    """Run the full detect → patch → verify → account loop for one target.

    ``reports`` short-circuits the detection campaign with pre-recorded
    gadget reports (e.g. from a previous ``repro campaign`` run); their PCs
    must refer to the deterministic instrumented build of the same
    (target, tool, variant), which is what every campaign fuzzes.
    ``spec_variants`` selects the speculation variants both the detection
    and the verification campaigns simulate; the result's ``by_variant``
    breaks eliminated/residual/new down per variant.
    """
    note = progress or (lambda message: None)
    spec = _campaign_spec(target, tool, variant, iterations, rounds, seed,
                          engine, spec_variants)
    result = HardeningResult(
        target=target, variant=variant, tool=tool, strategy=strategy,
        engine=engine, iterations=iterations, seed=seed,
    )

    # 1. Detect.
    if reports is None:
        note(f"fuzzing baseline {target}/{variant} with {tool}")
        baseline = run_campaign(spec)
        row = baseline.row(target, tool, variant)
        collection: Iterable[GadgetReport] = row.collection
        result.baseline_executions = row.executions
    else:
        collection = list(reports)

    # 2+3. Map and patch.
    patch = patch_binary(target, strategy, variant=variant, tool=tool,
                         reports=collection)
    result.pass_stats = patch.pass_stats
    result.sites_before = patch.sites_before
    note(f"{len(patch.site_reports)} unique gadget sites to harden")

    # 4. Verify.
    note(f"re-fuzzing hardened binary ({strategy})")
    verification = verify_patch(patch, spec)
    result.verify_executions = verification.executions
    result.eliminated = verification.eliminated
    result.residual = verification.residual
    result.new_sites = verification.new_sites

    # 5. Account.
    perf_input = get_target(target).perf_input(perf_input_size)
    result.native_cycles = measure_cycles(patch.base_binary, perf_input,
                                          engine)
    result.hardened_cycles = measure_cycles(patch.hardened, perf_input,
                                            engine)
    note(f"overhead {result.overhead:.3f}x, "
         f"{len(result.eliminated)}/{len(result.sites_before)} sites eliminated")
    return result
