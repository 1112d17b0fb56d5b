"""Fuzz-workload worker: sets up, fuzzes and measures in one fresh process.

``run.py`` starts one of these per run, so every run has its own jit
cache, a cold in-process memo and its own peak RSS::

    PYTHONPATH=src:ledger python3 ledger/fuzzwork.py --workload gadgets-fuzz \\
        --seed 1 --seconds 40 --trace 0 --work .ledger_work/manual \\
        --out .ledger_work/manual/result.json

A run fuzzes a stream of fixed-length campaigns.  Campaign ``k`` is a
fresh ``TeapotRuntime`` plus a ``Fuzzer`` seeded with
``derive_seed(seed, workload, k)`` over the target's seed inputs.  A
single long fuzzer would follow one seed-dependent trajectory (on
``gadgets`` its rate ranges 770-1,170 exec/s across seeds), so the stream
averages many trajectories per run.

``--workload service-campaigns`` replays the round-0 teapot jobs of the
service workload's campaigns in-process, so the traced service run can
attribute the layers its jobs use inside the server.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.spec import CampaignSpec, derive_seed
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.disasm.disassembler import disassemble
from repro.fuzzing.corpus import Corpus
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.hardening.pipeline import measure_cycles
from repro.rewriting.reassemble import reassemble
from repro.targets import get_target
from repro.targets.injection import compile_vanilla

import catalog
import gates
from calibrate import Calibration
import ladder
import servicework

#: setups per run; ``setup_s`` and the setup layers report the median.
SETUP_REPEATS = 5
#: share of ``--seconds`` the traced run spends in its traced stream.
TRACED_SHARE = 0.5
#: executions the traced run may add to reach every ground-truth site.
SITES_EXEC_CAP = 20_000
#: measured seconds per rung (per engine) in the ladder.
LADDER_SECONDS = 0.3
#: measured seconds per side behind ``trace.overhead_x`` (at least 2 pairs).
OVERHEAD_SECONDS = 1.5
#: seconds between calibration samples while campaigns run.
CALIBRATE_EVERY_S = 1.0
#: crafted perf-input size of the paper's §7.1 measure (Pipeline default).
PERF_INPUT_SIZE = 200


@dataclass(frozen=True)
class Workload:
    #: the target, built vanilla with the default TeapotConfig on jit.
    target: str
    #: executions per campaign (service: taken from the campaign spec).
    campaign_execs: int
    #: recorded inputs fed through the rung ladder.
    ladder_inputs: int


WORKLOADS: Dict[str, Workload] = {
    "gadgets-fuzz": Workload("gadgets", 250, 100),
    "service-campaigns": Workload("gadgets", 0, 100),
}


@dataclass(frozen=True)
class Campaign:
    seeds: Tuple[bytes, ...]
    fuzzer_seed: int
    executions: int


def plan(name: str, seed: int) -> Iterator[Campaign]:
    """The run's endless campaign sequence, a pure function of the seed."""
    workload = WORKLOADS[name]
    target = get_target(workload.target)
    if name != "service-campaigns":
        for index in itertools.count():
            yield Campaign(tuple(target.seeds),
                           derive_seed(seed, name, index),
                           workload.campaign_execs)
    for index in itertools.count():
        spec = CampaignSpec.from_dict(servicework.campaign_spec(seed, index))
        shards = Corpus(list(target.seeds)).shards(spec.shards)
        for job in spec.jobs_for_round(0):
            if job.tool == "teapot":
                yield Campaign(tuple(shards[job.shard]), job.seed,
                               job.iterations)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Build:
    vanilla: object
    instrumented: object
    config: TeapotConfig
    #: seconds per setup layer, in pipeline order.
    layers: Dict[str, float]
    #: planted-sample ranges of a vanilla ``gadgets`` build (the gate's
    #: reference); filled in after the timed set-up.
    regions: List[gates.Region] = field(default_factory=list)


def build(workload: Workload, cache_dir: str) -> Build:
    """Compile, instrument and build the runtime, timing each layer.

    The layers are the steps of ``TeapotRewriter.instrument`` called one
    by one.  Pointing ``REPRO_JIT_CACHE`` at an empty directory gives a
    fresh process-wide block cache, so the runtime build compiles cold.
    """
    os.environ["REPRO_JIT_CACHE"] = cache_dir
    config = TeapotConfig(engine="jit")
    target = get_target(workload.target)
    clock = time.perf_counter
    start = clock()
    vanilla = compile_vanilla(target)
    compiled = clock()
    module = disassemble(vanilla)
    disassembled = clock()
    module = TeapotRewriter(config).instrument_module(module)
    passed = clock()
    instrumented = reassemble(module)
    reassembled = clock()
    TeapotRuntime(instrumented, config=config)
    built = clock()
    return Build(vanilla, instrumented, config, {
        "minic.compile_s": compiled - start,
        "disasm.disassemble_s": disassembled - compiled,
        "core.passes_s": passed - disassembled,
        "rewriting.reassemble_s": reassembled - passed,
        "runtime.build_s": built - reassembled,
    })


def setup(workload: Workload, work: str,
          calibration: Calibration) -> Tuple[Build, Dict[str, float]]:
    """Set up ``SETUP_REPEATS`` times; the last build serves the run."""
    builds = []
    for index in range(SETUP_REPEATS):
        calibration.sample()
        builds.append(build(workload, os.path.join(work, f"jit-setup-{index}")))
    values = {name: statistics.median(b.layers[name] for b in builds)
              for name in builds[0].layers}
    values["setup_s"] = statistics.median(sum(b.layers.values())
                                          for b in builds)
    built = builds[-1]
    built.regions = gates.sample_regions(built.vanilla)
    return built, values


def sim_overhead_x(target: str, vanilla, config: TeapotConfig) -> float:
    """Simulated cycles of the Teapot binary over native cycles (§7.1).

    Nesting off, on the target's crafted perf input; cycle counts are
    engine-invariant, so the cheaper-to-build ``fast`` engine runs it.
    """
    perf = get_target(target).perf_input(PERF_INPUT_SIZE)
    native = measure_cycles(vanilla, perf, "fast")
    config = config.with_engine("fast").without_nesting()
    instrumented = TeapotRewriter(config).instrument(vanilla)
    return TeapotRuntime(instrumented, config=config).run(perf).cycles / native


def new_oracle(built: Build) -> gates.SampleOracle:
    return gates.SampleOracle(built.regions, built.instrumented)


# ---------------------------------------------------------------------------
# tracing: timers wrapped around the layers' public calls
# ---------------------------------------------------------------------------

class Probe:
    """Times and counts every call the fuzz loop makes into a layer.

    Attached per campaign by replacing the instance attributes the loop
    calls (``target.execute``, ``target.coverage_signature``,
    ``mutator.mutate``, ``corpus.select``, ``corpus.add``), so nothing in
    ``src/`` changes.  Speculation counters are per-execution deltas of
    ``ExecutionResult.spec_stats``, which is cumulative per runtime.
    """

    LAYERS = ("execute", "signature", "mutate", "corpus", "probe")

    def __init__(self, oracle, record_limit: int) -> None:
        self.oracle = oracle
        self.record_limit = record_limit
        self.inputs: List[bytes] = []
        self.busy = dict.fromkeys(self.LAYERS, 0.0)
        self.loop_s = 0.0
        self.exec_ms: List[float] = []
        self.executions = 0
        self.crashes = 0
        self.steps = 0
        self.cycles = 0
        self.raw_reports = 0
        self.unique_reports = 0
        self.kept = 0
        self.corpus_sizes: List[int] = []
        self.spec: Dict[str, int] = {}
        self.first_complete: Optional[int] = None

    def _timed(self, layer: str, call: Callable) -> Callable:
        busy = self.busy

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                busy[layer] += time.perf_counter() - start
        return wrapper

    def attach(self, fuzzer: Fuzzer) -> None:
        target, corpus = fuzzer.target, fuzzer.corpus
        execute = target.execute
        previous: Dict[str, int] = {}
        busy = self.busy
        clock = time.perf_counter

        def traced_execute(data: bytes):
            start = clock()
            result = execute(data)
            done = clock()
            busy["execute"] += done - start
            self.exec_ms.append(1000.0 * (done - start))
            self.executions += 1
            self.steps += result.steps
            self.cycles += result.cycles
            self.crashes += result.status == "crash"
            self.raw_reports += len(result.reports)
            for key, value in result.spec_stats.items():
                self.spec[key] = (self.spec.get(key, 0) + value
                                  - previous.get(key, 0))
            previous.clear()
            previous.update(result.spec_stats)
            if len(self.inputs) < self.record_limit:
                self.inputs.append(data)
            if result.reports and self.first_complete is None:
                self.oracle.observe(result.reports)
                if self.oracle.complete:
                    self.first_complete = self.executions
            busy["probe"] += clock() - done
            return result

        add = corpus.add

        def traced_add(*args, **kwargs):
            start = clock()
            added = add(*args, **kwargs)
            busy["corpus"] += clock() - start
            self.kept += bool(added)
            return added

        target.execute = traced_execute
        target.coverage_signature = self._timed("signature",
                                                target.coverage_signature)
        fuzzer.mutator.mutate = self._timed("mutate", fuzzer.mutator.mutate)
        corpus.select = self._timed("corpus", corpus.select)
        corpus.add = traced_add

    def finish(self, fuzzer: Fuzzer, result, loop_s: float) -> None:
        self.loop_s += loop_s
        self.unique_reports += len(result.reports)
        self.corpus_sizes.append(len(fuzzer.corpus))

    def metrics(self) -> Dict[str, float]:
        n = max(self.executions, 1)
        loop = max(self.loop_s - self.busy["probe"], 1e-12)
        spec = self.spec
        rollbacks = spec.get("rollbacks", 0)
        charged = sum(self.busy[layer] for layer in
                      ("execute", "signature", "mutate", "corpus"))
        return {
            "runtime.exec_share": self.busy["execute"] / loop,
            "runtime.exec_p50_ms": catalog.percentile(self.exec_ms, 0.50),
            "runtime.exec_p99_ms": catalog.percentile(self.exec_ms, 0.99),
            "runtime.steps_per_exec": self.steps / n,
            "runtime.sim_cycles_per_exec": self.cycles / n,
            "runtime.guest_crash_ratio": self.crashes / n,
            "speculation.entries_per_exec":
                spec.get("simulations_started", 0) / n,
            "speculation.nested_per_exec":
                spec.get("nested_simulations", 0) / n,
            "speculation.rollbacks_per_exec": rollbacks / n,
            "speculation.budget_rollback_share":
                spec.get("budget_rollbacks", 0) / rollbacks if rollbacks else 0.0,
            "speculation.sim_insns_per_exec":
                spec.get("simulated_instructions", 0) / n,
            "fuzzing.loop_self_share": (loop - charged) / loop,
            "fuzzing.mutate_share": self.busy["mutate"] / loop,
            "fuzzing.corpus_share": self.busy["corpus"] / loop,
            "coverage.signature_share": self.busy["signature"] / loop,
            "fuzzing.keep_ratio": self.kept / n,
            "fuzzing.corpus_size": statistics.mean(self.corpus_sizes),
            "sanitizers.raw_reports_per_exec": self.raw_reports / n,
            "sanitizers.unique_over_raw":
                self.unique_reports / self.raw_reports if self.raw_reports
                else 0.0,
        }


# ---------------------------------------------------------------------------
# the campaign stream
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """What a stream of campaigns did (operations = executions)."""

    seconds: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def run_campaign(built: Build, campaign: Campaign, tally: Tally,
                 probe: Optional[Probe] = None):
    """One campaign: fresh runtime, fresh fuzzer, fixed executions."""
    start = time.perf_counter()
    runtime = TeapotRuntime(built.instrumented, config=built.config)
    fuzzer = Fuzzer(FuzzTarget(runtime), seeds=list(campaign.seeds),
                    seed=campaign.fuzzer_seed)
    if probe is not None:
        probe.attach(fuzzer)
    loop_start = time.perf_counter()
    try:
        result = fuzzer.run_chunk(campaign.executions)
    except Exception as error:  # an execution raised: a failed operation
        tally.attempted += fuzzer.executions + 1
        tally.failed += 1
        tally.problems.append(f"execution raised {type(error).__name__}: "
                              f"{error}")
        return None
    end = time.perf_counter()
    tally.attempted += campaign.executions
    tally.seconds.append(end - start)
    tally.rates.append(campaign.executions / (end - start))
    if probe is not None:
        probe.finish(fuzzer, result, end - loop_start)
    return result


def run_stream(built: Build, campaigns: Iterator[Campaign], seconds: float,
               tally: Tally, run_oracle, calibration: Calibration,
               probe: Optional[Probe] = None,
               until: Optional[Callable[[], bool]] = None) -> None:
    """Run campaigns back to back for ``seconds`` (or until ``until()``);
    every report feeds ``run_oracle``, the run's correctness gate."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and not (until and until()):
        result = run_campaign(built, next(campaigns), tally, probe)
        if result is not None:
            run_oracle.observe(result.reports)
        calibration.maybe_sample(CALIBRATE_EVERY_S)


def measure(name: str, seed: int, seconds: float, work: str) -> Dict:
    """The untraced run: every end-to-end metric."""
    workload = WORKLOADS[name]
    calibration = Calibration()
    built, setup_values = setup(workload, work, calibration)
    tally = Tally()
    oracle = new_oracle(built)
    run_stream(built, plan(name, seed), seconds, tally, oracle, calibration)
    tally.problems += oracle.problems()
    host = {
        "exec_per_s": statistics.median(tally.rates),
        "campaign_p50_s": catalog.percentile(tally.seconds, 0.50),
        "campaign_p75_s": catalog.percentile(tally.seconds, 0.75),
        "setup_s": setup_values["setup_s"],
        "peak_rss_mb": peak_rss_mb(),
        "sim_overhead_x": sim_overhead_x(workload.target, built.vanilla,
                                         built.config),
    }
    return {
        "values": catalog.to_reference(host, calibration.scale),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "detail": {"campaigns": len(tally.seconds), "host_values": host,
                   "reference_scale": calibration.scale},
    }


def trace(name: str, seed: int, seconds: float, work: str) -> Dict:
    """The traced run: every per-layer metric."""
    workload = WORKLOADS[name]
    calibration = Calibration()
    built, values = setup(workload, work, calibration)
    del values["setup_s"]
    values["core.code_growth_x"] = (len(built.instrumented.text.data)
                                    / len(built.vanilla.text.data))
    tally = Tally()
    oracle = new_oracle(built)
    probe = Probe(new_oracle(built), workload.ladder_inputs)
    campaigns = plan(name, seed)
    run_stream(built, campaigns, seconds * TRACED_SHARE, tally, oracle,
               calibration, probe)
    # execs_to_sites counts executions of this same stream until its
    # reports cover every site; keep fuzzing (still traced) until they do.
    extra = Tally()
    run_stream(built, campaigns, 120.0, extra, oracle, calibration, probe,
               until=lambda: (probe.first_complete is not None
                              or probe.executions > SITES_EXEC_CAP))
    tally.attempted += extra.attempted
    tally.failed += extra.failed
    tally.problems += extra.problems + oracle.problems()
    values.update(probe.metrics())
    if probe.first_complete is None:
        tally.problems.append(f"ground truth not covered within "
                              f"{probe.executions} traced executions")
        values["fuzzing.execs_to_sites"] = float(probe.executions)
    else:
        values["fuzzing.execs_to_sites"] = float(probe.first_complete)
    values["trace.overhead_x"] = trace_overhead(built, name, seed)
    rungs, mismatches = ladder.run_ladder(
        built.vanilla, built.instrumented, built.config, probe.inputs,
        LADDER_SECONDS)
    calibration.sample()
    values.update(rungs)
    tally.problems += mismatches
    return {
        "values": catalog.to_reference(values, calibration.scale),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "detail": {"traced_campaigns": len(tally.seconds),
                   "traced_executions": probe.executions,
                   "ladder_inputs": len(probe.inputs),
                   "reference_scale": calibration.scale},
    }


def trace_overhead(built: Build, name: str, seed: int) -> float:
    """Traced over untraced time of identical campaigns (same seeds).

    Pairs alternate which side runs first and continue until each side
    has ``OVERHEAD_SECONDS`` of campaigns (at least two pairs).
    """
    plain, traced = Tally(), Tally()
    for index, campaign in enumerate(plan(name, seed)):
        if index >= 2 and sum(plain.seconds) >= OVERHEAD_SECONDS:
            break
        order = [(plain, None), (traced, Probe(new_oracle(built), 0))]
        for tally, probe in (order if index % 2 == 0 else order[::-1]):
            run_campaign(built, campaign, tally, probe)
    return sum(traced.seconds) / sum(plain.seconds)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True,
                        help="private working directory of this run")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    run = trace if args.trace else measure
    outcome = run(args.workload, args.seed, args.seconds, args.work)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
