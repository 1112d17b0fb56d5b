"""The Pipeline builder: one composable surface over fuzz→harden→report.

:func:`pipeline` starts a typed builder; each stage method appends one
step and returns the builder, and :meth:`Pipeline.report` (or
:meth:`Pipeline.run`) executes the whole chain and returns a
:class:`~repro.api.result.RunResult`::

    import repro.api as api

    run = (api.pipeline(target="jsmn")
           .engine("fast")
           .fuzz(iterations=400)
           .harden("mask")
           .refuzz()
           .report())
    print(run.format_summary())

Stages compose the existing subsystems without reimplementing them: a
``fuzz`` stage is a single-group campaign through the
:mod:`repro.campaign` scheduler (so checkpoints, sharding and engine
selection all apply), ``harden``/``refuzz`` are the
:func:`repro.hardening.pipeline.patch_binary` /
:func:`repro.hardening.pipeline.verify_patch` halves of the detect →
patch → verify loop, ``campaign`` runs a whole multi-target matrix, and
``bench`` measures native-vs-instrumented cycle counts the way the
paper's Figure 7 does.  Every name a stage takes (target, engine, tool,
strategy) resolves through the plugin registries in
:mod:`repro.plugins`, so third-party plugins flow through the same
builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.result import RunResult
from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import TOOLS, VARIANTS, CampaignSpec
from repro.campaign.worker import TOOL_TABLE, compiled_binary
from repro.fuzzing.fuzzer import CampaignResult
from repro.hardening.pipeline import (
    HardeningResult,
    measure_cycles,
    patch_binary,
    verify_patch,
)
from repro.plugins import (
    DEFAULT_ENGINE,
    engine_names,
    model_names,
    strategy_names,
    target_registry,
)
from repro.sanitizers.reports import GadgetReport
from repro.targets import get_target

ProgressFn = Callable[[str], None]

#: The measurement order of the Figure-7 runtime comparison (and the
#: ``bench`` stage, which reproduces it bit for bit): every tool.
BENCH_TOOLS = TOOLS


class PipelineError(ValueError):
    """A malformed pipeline: bad stage order or unknown plugin name."""


@dataclass
class _Stage:
    """One recorded builder step (internal)."""

    kind: str
    params: Dict[str, object] = field(default_factory=dict)


def pipeline(
    target: Optional[str] = None,
    variant: str = "vanilla",
    tool: str = "teapot",
    engine: str = DEFAULT_ENGINE,
    seed: int = 1234,
    workers: int = 1,
    max_input_size: int = 1024,
    perf_input_size: int = 200,
    progress: Optional[ProgressFn] = None,
) -> "Pipeline":
    """Start a pipeline builder.

    ``target`` may be omitted for matrix-only pipelines (a bare
    ``.campaign()`` stage); every other stage requires one.  All names are
    validated against the plugin registries immediately, so typos fail at
    build time with a message listing the valid options.
    """
    return Pipeline(
        target=target, variant=variant, tool=tool, engine=engine, seed=seed,
        workers=workers, max_input_size=max_input_size,
        perf_input_size=perf_input_size, progress=progress,
    )


class Pipeline:
    """A fluent, validating builder for fuzz/campaign/harden/bench runs.

    Builder methods return ``self`` so calls chain; nothing executes until
    :meth:`run` / :meth:`report`.  Instances are reusable: running twice
    yields two independent (and, by construction, identical) results.
    """

    def __init__(
        self,
        target: Optional[str] = None,
        variant: str = "vanilla",
        tool: str = "teapot",
        engine: str = DEFAULT_ENGINE,
        seed: int = 1234,
        workers: int = 1,
        max_input_size: int = 1024,
        perf_input_size: int = 200,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self._target: Optional[str] = None
        self._variant = "vanilla"
        self._tool = "teapot"
        self._engine = DEFAULT_ENGINE
        self._seed = seed
        self._workers = max(1, workers)
        self._max_input_size = max_input_size
        self._perf_input_size = perf_input_size
        self._progress: ProgressFn = progress or (lambda message: None)
        self._stages: List[_Stage] = []
        self._spec_variants: Tuple[str, ...] = ("pht",)
        #: a caller-owned Telemetry bundle, or None.
        self._telemetry = None
        #: kwargs for a session-owned Telemetry.create(...), or None.
        self._telemetry_spec: Optional[Dict[str, object]] = None
        #: observatory options (serve address, runs root), or None.
        self._observatory: Optional[Dict[str, object]] = None
        if target is not None:
            self.target(target)
        self.variant(variant)
        self.tool(tool)
        self.engine(engine)

    # -- configuration ------------------------------------------------------
    def target(self, name: str) -> "Pipeline":
        """Select the workload target (validated against the registry)."""
        get_target(name)  # raises UnknownPluginError listing the options
        self._target = name
        return self

    def variant(self, name: str) -> "Pipeline":
        """Select the binary variant (``vanilla`` or ``injected``)."""
        if name not in VARIANTS:
            raise PipelineError(
                f"unknown variant {name!r}; available: {', '.join(VARIANTS)}")
        self._variant = name
        return self

    def tool(self, name: str) -> "Pipeline":
        """Select the detector tool (teapot, specfuzz, spectaint)."""
        if name not in TOOLS:
            raise PipelineError(
                f"unknown tool {name!r}; available: {', '.join(TOOLS)}")
        self._tool = name
        return self

    def engine(self, name: str) -> "Pipeline":
        """Select the (result-invariant) emulator engine."""
        if name not in engine_names():
            raise PipelineError(
                f"unknown emulator engine {name!r}; "
                f"available: {', '.join(engine_names())}")
        self._engine = name
        return self

    def variants(self, *names: str) -> "Pipeline":
        """Select the speculation variants to simulate.

        Each name is a registered speculation model (``pht``, ``btb``,
        ``rsb``, ``stl``, or an ``@register_model`` plugin); fuzz/refuzz
        stages fan their campaign over every listed variant and reports
        stay attributed per variant.
        """
        if not names:
            raise PipelineError("variants() needs at least one model name")
        for name in names:
            if name not in model_names():
                raise PipelineError(
                    f"unknown speculation variant {name!r}; "
                    f"available: {', '.join(model_names())}")
        self._spec_variants = tuple(names)
        return self

    def seed(self, value: int) -> "Pipeline":
        """Set the campaign seed every stage derives from."""
        self._seed = int(value)
        return self

    def workers(self, count: int) -> "Pipeline":
        """Set the worker-pool size (execution detail, never results)."""
        self._workers = max(1, int(count))
        return self

    def perf_input(self, size: int) -> "Pipeline":
        """Set the crafted performance-input size for bench/overhead."""
        self._perf_input_size = int(size)
        return self

    def telemetry(
        self,
        telemetry=None,
        *,
        trace: Optional[str] = None,
        progress: bool = False,
        interval: float = 5.0,
        profile_engine: bool = False,
        serve=None,
        runs_root=None,
    ) -> "Pipeline":
        """Attach telemetry to the run (observation-only, see
        ``docs/observability.md``).

        Pass a ready :class:`repro.telemetry.Telemetry` bundle, or use the
        keywords to have the session build (and close) one per run:
        ``trace`` writes a structured JSONL trace, ``progress`` prints a
        live heartbeat every ``interval`` seconds, ``profile_engine``
        records per-opcode/per-address hot spots of the emulator.  The
        resulting snapshot lands in :attr:`RunResult.telemetry` either way.
        Results are bit-identical with or without telemetry.

        Two observatory options work with either form: ``serve`` binds
        each campaign's service HTTP API while the campaign runs (live
        ``/metrics`` in Prometheus text format, ``/v1/campaigns``,
        ``/v1/fleet``; pass ``True`` for the default local address, a
        port number, or a ``"host:port"`` string — bind port 0 to let the
        OS pick; refused with :class:`ValueError` together with
        ``profile_engine``), and ``runs_root`` records
        the run into a durable run directory under the given root
        (``True`` for the default ``runs/``): manifest, JSONL trace (when
        no explicit ``trace`` path is given), metrics snapshots and the
        final ``RunResult`` — browsable with ``repro runs`` and ``repro
        top``.  A malformed ``serve`` address raises :class:`ValueError`
        here.
        """
        if telemetry is not None:
            self._telemetry = telemetry
            self._telemetry_spec = None
        else:
            self._telemetry = None
            self._telemetry_spec = {
                "trace": trace,
                "progress": bool(progress),
                "interval": float(interval),
                "profile_engine": bool(profile_engine),
            }
        if serve is None or serve is False:  # (0 == False: port 0 serves)
            serve = None
        else:
            from repro.telemetry.export import parse_address

            serve = parse_address(
                serve if isinstance(serve, str)
                else (str(serve) if isinstance(serve, int)
                      and not isinstance(serve, bool) else ""))
        self._observatory = {"serve": serve, "runs_root": runs_root}
        return self

    # -- stages -------------------------------------------------------------
    def fuzz(
        self,
        iterations: int = 400,
        rounds: int = 1,
        shards: int = 1,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> "Pipeline":
        """Fuzz the target: one campaign group through the scheduler."""
        self._require_target("fuzz")
        self._stages.append(_Stage("fuzz", {
            "iterations": int(iterations), "rounds": int(rounds),
            "shards": int(shards), "checkpoint": checkpoint,
            "resume": bool(resume),
        }))
        return self

    def reports(self, reports: Sequence[GadgetReport]) -> "Pipeline":
        """Inject pre-recorded gadget reports instead of a fuzz stage.

        The reports' PCs must refer to the deterministic instrumented
        build of this (target, tool, variant) — the same contract as
        ``repro harden --report-in``.
        """
        self._require_target("reports")
        self._stages.append(_Stage("reports", {"reports": list(reports)}))
        return self

    def harden(self, strategy: str = "fence") -> "Pipeline":
        """Patch the reported gadget sites with a mitigation strategy."""
        self._require_target("harden")
        if strategy not in strategy_names():
            raise PipelineError(
                f"unknown hardening strategy {strategy!r}; "
                f"available: {', '.join(strategy_names())}")
        if not any(s.kind in ("fuzz", "reports") for s in self._stages):
            raise PipelineError(
                "harden() needs gadget reports: add a fuzz() or reports() "
                "stage first")
        self._stages.append(_Stage("harden", {"strategy": strategy}))
        return self

    def refuzz(self, iterations: Optional[int] = None,
               rounds: Optional[int] = None) -> "Pipeline":
        """Verify the hardened binary by re-running the detection campaign.

        Defaults to the preceding fuzz stage's budget (or 400 iterations /
        1 round after a ``reports`` stage), mirroring
        :func:`repro.hardening.pipeline.run_hardening`.
        """
        if not any(s.kind == "harden" for s in self._stages):
            raise PipelineError("refuzz() verifies a hardened binary: add a "
                                "harden() stage first")
        self._stages.append(_Stage("refuzz", {
            "iterations": iterations, "rounds": rounds,
        }))
        return self

    def campaign(
        self,
        spec: Optional[CampaignSpec] = None,
        targets: Optional[Sequence[str]] = None,
        tools: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[str]] = None,
        iterations: int = 200,
        rounds: int = 2,
        shards: int = 1,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> "Pipeline":
        """Run a whole (target × tool × variant) campaign matrix.

        Pass a ready :class:`~repro.campaign.spec.CampaignSpec` for full
        control, or the keyword shorthand (``targets`` defaults to every
        registered target; ``tools``/``variants`` to the builder's).
        """
        if spec is None:
            spec = CampaignSpec(
                targets=tuple(targets if targets is not None
                              else target_registry().names()),
                tools=tuple(tools if tools is not None else (self._tool,)),
                variants=tuple(variants if variants is not None
                               else (self._variant,)),
                iterations=iterations,
                rounds=rounds,
                shards=shards,
                seed=self._seed,
                max_input_size=self._max_input_size,
                workers=self._workers,
                engine=self._engine,
                spec_variants=self._spec_variants,
            )
        self._stages.append(_Stage("campaign", {
            "spec": spec, "checkpoint": checkpoint, "resume": bool(resume),
        }))
        return self

    def bench(self, input_size: Optional[int] = None,
              tools: Sequence[str] = BENCH_TOOLS) -> "Pipeline":
        """Measure native vs instrumented cycles on the crafted perf input.

        Reproduces the paper's §7.1 runtime methodology: nesting and all
        heuristics disabled, one run per tool over the target's crafted
        input (``input_size`` defaults to the builder's perf-input size).
        """
        self._require_target("bench")
        for tool in tools:
            if tool not in BENCH_TOOLS:
                raise PipelineError(
                    f"unknown bench tool {tool!r}; "
                    f"available: {', '.join(BENCH_TOOLS)}")
        self._stages.append(_Stage("bench", {
            "input_size": input_size, "tools": tuple(tools),
        }))
        return self

    # -- execution ----------------------------------------------------------
    def run(self) -> RunResult:
        """Execute every recorded stage and return the run artifact."""
        if not self._stages:
            raise PipelineError("empty pipeline: add at least one stage "
                                "(fuzz, campaign, harden, bench, ...)")
        return Session(self).execute()

    def report(self) -> RunResult:
        """Execute the pipeline (terminal builder call; alias of run)."""
        return self.run()

    # -- internals ----------------------------------------------------------
    def _require_target(self, stage: str) -> None:
        if self._target is None:
            raise PipelineError(
                f"{stage}() requires a target: pipeline(target=...) or "
                f".target(name)")


class Session:
    """Executes a pipeline's stages with shared intermediate state.

    :meth:`Pipeline.run` creates one per execution; instantiate directly
    (or subclass) only to intercept stage execution.
    """

    def __init__(self, builder: Pipeline) -> None:
        self.builder = builder
        self.result = RunResult(context={
            "target": builder._target,
            "variant": builder._variant,
            "tool": builder._tool,
            "engine": builder._engine,
            "seed": builder._seed,
            "workers": builder._workers,
            "perf_input_size": builder._perf_input_size,
            "spec_variants": list(builder._spec_variants),
        })
        #: gadget reports available to a harden stage.
        self._reports: Optional[List[GadgetReport]] = None
        #: the detection campaign spec (refuzz reruns it verbatim).
        self._detect_spec: Optional[CampaignSpec] = None
        #: executions the detection campaign performed.
        self._detect_executions = 0
        #: the last harden stage's patch outcome (with cycle accounting).
        self._patch = None
        self._patch_cycles: Tuple[int, int] = (0, 0)
        #: the run's Telemetry bundle (None when telemetry is off).
        self._telemetry = None

    # -- driver -------------------------------------------------------------
    def execute(self) -> RunResult:
        observatory = self.builder._observatory or {}
        run_dir = self._create_run_dir(observatory)
        telemetry, owned = self._materialize_telemetry(run_dir)
        if telemetry is None:
            for stage in self.builder._stages:
                handler = getattr(self, f"_run_{stage.kind}")
                handler(**stage.params)
            return self.result

        from repro.telemetry.context import session as telemetry_session

        self._telemetry = telemetry
        status = "completed"
        try:
            if run_dir is not None:
                telemetry.run_dir = run_dir
            if observatory.get("serve") is not None:
                telemetry.serve = observatory["serve"]
            with telemetry_session(telemetry):
                with telemetry.span("pipeline"):
                    for stage in self.builder._stages:
                        handler = getattr(self, f"_run_{stage.kind}")
                        with telemetry.span(f"stage:{stage.kind}"):
                            handler(**stage.params)
            self.result.telemetry = telemetry.snapshot()
        except BaseException:
            status = "failed"
            raise
        finally:
            if run_dir is not None:
                try:
                    run_dir.write_metrics_snapshot(telemetry)
                    run_dir.write_result(self.result)
                    run_dir.finalize(status=status)
                except OSError:
                    pass
            if owned:
                telemetry.close()
        return self.result

    def _create_run_dir(self, observatory: Dict[str, object]):
        """Allocate the durable run directory when ``runs_root`` asks."""
        runs_root = observatory.get("runs_root")
        if not runs_root:
            return None
        from repro.telemetry.runs import DEFAULT_RUNS_ROOT, RunRegistry

        root = runs_root if isinstance(runs_root, str) else DEFAULT_RUNS_ROOT
        builder = self.builder
        return RunRegistry(root).create_run(
            command="pipeline:" + ",".join(
                stage.kind for stage in builder._stages),
            target=builder._target,
            engine=builder._engine,
            variants=list(builder._spec_variants),
            config=dict(self.result.context),
        )

    def _materialize_telemetry(self, run_dir=None):
        """The run's Telemetry bundle and whether this session owns it."""
        builder = self.builder
        if builder._telemetry is not None:
            return builder._telemetry, False
        if builder._telemetry_spec is not None:
            from repro.telemetry import Telemetry

            spec = builder._telemetry_spec
            trace = spec["trace"]
            if trace is None and run_dir is not None:
                # A recorded run always gets its trace unless the caller
                # routed it elsewhere explicitly.
                trace = run_dir.trace_path
            return Telemetry.create(
                trace=trace,
                progress=spec["progress"],
                interval=spec["interval"],
                profile_engine=spec["profile_engine"],
                context_info=dict(self.result.context),
            ), True
        return None, False

    # -- stage implementations ---------------------------------------------
    def _group_spec(self, iterations: int, rounds: int,
                    shards: int = 1) -> CampaignSpec:
        """The single-group campaign spec fuzz and refuzz stages share.

        Matches :func:`repro.hardening.pipeline.run_hardening`'s detection
        spec field for field, which is what keeps facade runs bit-identical
        with the classic entry points.
        """
        b = self.builder
        return CampaignSpec(
            targets=(b._target,),
            tools=(b._tool,),
            variants=(b._variant,),
            iterations=iterations,
            rounds=rounds,
            shards=shards,
            seed=b._seed,
            max_input_size=b._max_input_size,
            workers=b._workers,
            engine=b._engine,
            skip_uninjectable=False,
            spec_variants=b._spec_variants,
        )

    def _run_fuzz(self, iterations: int, rounds: int, shards: int,
                  checkpoint: Optional[str], resume: bool) -> None:
        b = self.builder
        spec = self._group_spec(iterations, rounds, shards=shards)
        self._progress(f"fuzzing {b._target}/{b._variant} with {b._tool} "
                       f"({iterations} executions)")
        summary = run_campaign(spec, checkpoint_path=checkpoint,
                               resume=resume, progress=b._progress)
        row = summary.row(b._target, b._tool, b._variant)
        self._reports = row.collection.reports()
        self._detect_spec = spec
        self._detect_executions = row.executions
        self.result.summary = summary
        # The payload is a CampaignResult record, as a plain fuzzer's is.
        result = CampaignResult(corpus_size=row.corpus_size,
                                reports=row.collection)
        result.merge(row)
        payload = result.to_dict()
        payload.update({
            "spec": spec.to_dict(),
            "fingerprint": summary.fingerprint,
            "unique_gadgets": row.unique_gadgets,
            "by_category": dict(sorted(row.by_category.items())),
            "by_variant": dict(sorted(row.by_variant.items())),
        })
        self.result.add_stage("fuzz", f"{b._target}/{b._tool}", payload)

    def _run_reports(self, reports: List[GadgetReport]) -> None:
        self._reports = list(reports)
        self.result.add_stage("reports", "pre-recorded", {
            "count": len(reports),
            "reports": [report.to_dict() for report in reports],
        })

    def _run_harden(self, strategy: str) -> None:
        b = self.builder
        self._progress(f"hardening {b._target}/{b._variant} with {strategy}")
        patch = patch_binary(b._target, strategy, variant=b._variant,
                             tool=b._tool, reports=self._reports or [])
        perf_input = get_target(b._target).perf_input(b._perf_input_size)
        native = measure_cycles(patch.base_binary, perf_input, b._engine)
        hardened = measure_cycles(patch.hardened, perf_input, b._engine)
        self._patch = patch
        self._patch_cycles = (native, hardened)
        if self._telemetry is not None:
            registry = self._telemetry.registry
            registry.counter("harden.sites_patched").inc(
                len(patch.site_reports))
            registry.gauge("harden.native_cycles").set(native)
            registry.gauge("harden.hardened_cycles").set(hardened)
        self.result.add_stage("harden", strategy, {
            "strategy": strategy,
            "sites": len(patch.site_reports),
            "sites_before": patch.sites_before,
            "pass_stats": patch.pass_stats,
            "native_cycles": native,
            "hardened_cycles": hardened,
            "overhead": round(hardened / native, 4) if native else 1.0,
        })

    def _run_refuzz(self, iterations: Optional[int],
                    rounds: Optional[int]) -> None:
        b = self.builder
        patch = self._patch
        if self._detect_spec is not None:
            base = self._detect_spec
            spec = self._group_spec(
                iterations if iterations is not None else base.iterations,
                rounds if rounds is not None else base.rounds,
                shards=base.shards,
            )
        else:
            spec = self._group_spec(
                iterations if iterations is not None else 400,
                rounds if rounds is not None else 1,
            )
        self._progress(f"re-fuzzing hardened binary ({patch.strategy})")
        verification = verify_patch(patch, spec)

        native, hardened_cycles = self._patch_cycles
        hardening = HardeningResult(
            target=b._target, variant=b._variant, tool=b._tool,
            strategy=patch.strategy, engine=b._engine,
            iterations=spec.iterations, seed=b._seed,
            sites_before=patch.sites_before,
            eliminated=verification.eliminated,
            residual=verification.residual,
            new_sites=verification.new_sites,
            pass_stats=patch.pass_stats,
            native_cycles=native,
            hardened_cycles=hardened_cycles,
            baseline_executions=self._detect_executions,
            verify_executions=verification.executions,
        )
        self.result.hardening_result = hardening
        if self._telemetry is not None:
            registry = self._telemetry.registry
            registry.counter("harden.refuzz_executions").inc(
                verification.executions)
            registry.gauge("harden.eliminated").set(
                len(verification.eliminated))
            registry.gauge("harden.residual").set(len(verification.residual))
            registry.gauge("harden.new_sites").set(
                len(verification.new_sites))
        payload = hardening.to_dict()
        payload["all_eliminated"] = hardening.all_eliminated
        self.result.add_stage("refuzz", patch.strategy, payload)

    def _run_campaign(self, spec: CampaignSpec, checkpoint: Optional[str],
                      resume: bool) -> None:
        self._progress(
            f"campaign matrix: {len(spec.groups())} groups x "
            f"{spec.iterations} executions")
        summary = run_campaign(spec, checkpoint_path=checkpoint,
                               resume=resume, progress=self.builder._progress)
        self.result.summary = summary
        self.result.add_stage("campaign", f"{len(spec.groups())} groups", {
            "spec": spec.to_dict(),
            "summary": summary.to_dict(),
        })

    def _run_bench(self, input_size: Optional[int],
                   tools: Tuple[str, ...]) -> None:
        b = self.builder
        size = input_size if input_size is not None else b._perf_input_size
        target = get_target(b._target)
        binary = compiled_binary(b._target, b._variant)
        perf_input = target.perf_input(size)
        self._progress(f"bench: {b._target} perf input of {size} bytes")
        native = measure_cycles(binary, perf_input, b._engine)

        tool_cycles: Dict[str, int] = {}
        for name in BENCH_TOOLS:
            if name in tools:
                tool = TOOL_TABLE[name]
                config = tool.make_config(b._engine).without_nesting()
                runtime = tool.runtime(tool.instrument(binary, config),
                                       config=config)
                tool_cycles[name] = runtime.run(perf_input).cycles

        self.result.add_stage("bench", b._target, {
            "input_size": size,
            "native_cycles": native,
            "tool_cycles": tool_cycles,
            "normalized": {tool: round(cycles / native, 4)
                           for tool, cycles in tool_cycles.items()},
        })

    def _progress(self, message: str) -> None:
        self.builder._progress(f"[pipeline] {message}")
