"""``repro`` (``python -m repro.api``): the single CLI over the facade.

Subcommands::

    repro fuzz --target jsmn --iterations 400 --json run.json
    repro campaign --targets all --workers 4 --iterations 200
    repro harden --target gadgets --strategy mask --iterations 400
    repro report --in run.json
    repro bench --target jsmn --input-size 200
    repro targets --json
    repro stats trace.jsonl --html report.html --flamegraph stacks.txt
    repro top http://127.0.0.1:8642             # live service dashboard
    repro top runs/<run-id>                     # a recorded run
    repro runs show <run-id> --json
    repro runs list

``fuzz``, ``harden``, ``report``, ``bench`` and ``targets`` are
implemented directly over :mod:`repro.api`'s Pipeline builder and
:class:`~repro.api.result.RunResult` artifact; ``campaign`` forwards to
the campaign CLI.  The only HTTP server is the service API
(:mod:`repro.service.httpapi`): ``repro serve`` runs it standalone and
``repro campaign --serve`` binds it over the campaign's ephemeral
service.  ``repro top`` reads either that API or a run directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

import repro.api as api
from repro._version import __version__
from repro.campaign.spec import TOOLS, VARIANTS
from repro.hardening.passes import STRATEGIES
from repro.plugins import DEFAULT_ENGINE
from repro.records import read_record

#: Fuzzing-service subcommands, dispatched through repro.service.cli
#: (which keeps submit/status import-light urllib clients).
_SERVICE_COMMANDS = {
    "serve": "run the fuzzing service (durable queue + workers + HTTP API)",
    "submit": "submit a campaign to a running service",
    "status": "query a running service's campaigns",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spectre-gadget detection, campaigns, and hardening "
                    "over one pipeline API (see docs/api.md).",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    fuzz = sub.add_parser(
        "fuzz", help="fuzz one target and write a RunResult artifact")
    fuzz.add_argument("--target", required=True,
                      help=f"target ({', '.join(api.target_names())})")
    fuzz.add_argument("--tool", default="teapot",
                      help="detector tool (default: teapot)")
    fuzz.add_argument("--variant", default="vanilla",
                      help="binary variant (default: vanilla)")
    fuzz.add_argument("--engine", default=DEFAULT_ENGINE,
                      help=f"emulator engine ({', '.join(api.engine_names())})")
    fuzz.add_argument("--variants", default="pht",
                      help="comma-separated speculation variants to simulate "
                           f"({', '.join(api.model_names())}; default: pht)")
    fuzz.add_argument("--iterations", type=int, default=400)
    fuzz.add_argument("--rounds", type=int, default=1)
    fuzz.add_argument("--shards", type=int, default=1)
    fuzz.add_argument("--workers", type=int, default=1,
                      help="worker processes (default: 1 = in this process)")
    fuzz.add_argument("--seed", type=int, default=1234)
    fuzz.add_argument("--max-input-size", type=int, default=1024)
    fuzz.add_argument("--checkpoint", metavar="PATH", default=None)
    fuzz.add_argument("--resume", action="store_true")
    fuzz.add_argument("--json", metavar="PATH", default=None,
                      help="write the RunResult artifact ('-' for stdout)")
    fuzz.add_argument("--quiet", action="store_true")
    fuzz.add_argument("--progress", action="store_true",
                      help="print a live progress heartbeat to stderr")
    fuzz.add_argument("--progress-interval", type=float, default=5.0,
                      metavar="SECONDS",
                      help="minimum seconds between heartbeats (default: 5)")
    fuzz.add_argument("--trace", metavar="PATH", default=None,
                      help="write a structured JSONL telemetry trace "
                           "(inspect with `repro stats PATH`)")
    fuzz.add_argument("--profile-engine", action="store_true",
                      help="record per-opcode/per-address emulator hot "
                           "spots into the telemetry snapshot")

    campaign = sub.add_parser(
        "campaign", help="run a multi-target fuzzing campaign matrix",
        add_help=False)
    campaign.add_argument("rest", nargs=argparse.REMAINDER)

    harden = sub.add_parser(
        "harden", help="detect, patch, and verify one target",
        description="Report-guided mitigation synthesis with re-fuzz "
                    "verification and cycle-overhead accounting.")
    harden.add_argument("--target", required=True, type=_target_name,
                        help=f"target to harden "
                             f"({', '.join(api.target_names())})")
    harden.add_argument("--strategy", default="fence", type=_strategies,
                        help="mitigation strategy "
                             f"({', '.join(api.strategy_names())}) or 'all' "
                             "to compare the built-in strategies")
    harden.add_argument("--variant", choices=VARIANTS, default="vanilla",
                        help="binary variant to fuzz and patch "
                             "(default: vanilla)")
    harden.add_argument("--tool", choices=TOOLS, default="teapot",
                        help="detector producing the reports "
                             "(default: teapot)")
    harden.add_argument("--iterations", type=int, default=400,
                        help="fuzzing executions for the detection and "
                             "verification campaigns (default: 400)")
    harden.add_argument("--rounds", type=int, default=1,
                        help="corpus-sync rounds per campaign (default: 1)")
    harden.add_argument("--seed", type=int, default=1234,
                        help="campaign seed (default: 1234)")
    harden.add_argument("--engine", choices=tuple(api.engine_names()),
                        default=DEFAULT_ENGINE,
                        help=f"emulator engine (default: {DEFAULT_ENGINE})")
    harden.add_argument("--variants", default="pht", dest="spec_variants",
                        type=_spec_variants,
                        help="comma-separated speculation variants both "
                             "campaigns simulate (pht, btb, rsb, stl; "
                             "default: pht)")
    harden.add_argument("--perf-size", type=int, default=200,
                        help="crafted performance-input size for the "
                             "overhead account (default: 200)")
    harden.add_argument("--report-in", metavar="PATH", default=None,
                        help="JSON gadget reports to patch from (skips the "
                             "detection campaign)")
    harden.add_argument("--json", metavar="PATH", default=None,
                        help="write the hardening report(s) as JSON "
                             "('-' for stdout)")
    harden.add_argument("--quiet", action="store_true",
                        help="suppress progress output")

    for name, help_text in _SERVICE_COMMANDS.items():
        fwd = sub.add_parser(name, help=help_text, add_help=False)
        fwd.add_argument("rest", nargs=argparse.REMAINDER)

    report = sub.add_parser(
        "report", help="inspect a RunResult artifact written by --json")
    report.add_argument("--in", dest="path", required=True, metavar="PATH",
                        help="RunResult JSON file")
    report.add_argument("--json", action="store_true",
                        help="re-emit the validated artifact as JSON")
    report.add_argument("--reports", action="store_true",
                        help="also list the unique gadget reports")

    bench = sub.add_parser(
        "bench", help="native-vs-instrumented cycle comparison (Figure 7 "
                      "methodology)")
    bench.add_argument("--target", required=True)
    bench.add_argument("--variant", default="vanilla")
    bench.add_argument("--engine", default=DEFAULT_ENGINE)
    bench.add_argument("--input-size", type=int, default=200)
    bench.add_argument("--tools", default=",".join(api.BENCH_TOOLS),
                       help="comma-separated tools to measure "
                            f"(default: {','.join(api.BENCH_TOOLS)})")
    bench.add_argument("--json", metavar="PATH", default=None,
                       help="write the RunResult artifact ('-' for stdout)")
    bench.add_argument("--quiet", action="store_true")

    targets = sub.add_parser(
        "targets", help="list registered targets and capability flags")
    targets.add_argument("--json", action="store_true",
                         help="machine-readable listing (runnable/"
                              "injectable flags)")

    stats = sub.add_parser(
        "stats", help="summarize a telemetry trace written by --trace")
    stats.add_argument("trace", metavar="TRACE",
                       help="JSONL trace file (from `repro fuzz --trace` "
                            "or `repro campaign --trace`)")
    stats.add_argument("--json", action="store_true",
                       help="emit the aggregate as JSON instead of a table")
    stats.add_argument("--html", metavar="PATH", default=None,
                       help="write a self-contained HTML report (span tree, "
                            "critical path, per-path percentiles, hot spots)")
    stats.add_argument("--flamegraph", metavar="PATH", default=None,
                       help="write collapsed-stack span self-times "
                            "(flamegraph.pl / speedscope input)")
    stats.add_argument("--result", metavar="PATH", default=None,
                       help="RunResult JSON whose engine profile feeds the "
                            "HTML hot-spot tables")

    top = sub.add_parser(
        "top", help="live dashboard over a service URL (repro serve, or "
                    "a campaign run with --serve) or a run directory")
    top.add_argument("target", nargs="?", default="http://127.0.0.1:8642",
                     metavar="URL|RUN_DIR",
                     help="service base URL or run-directory path "
                          "(default: http://127.0.0.1:8642)")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="refresh interval (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="render one frame to stdout and exit (CI mode)")
    top.add_argument("--json", action="store_true",
                     help="print one raw sample as JSON and exit")

    runs = sub.add_parser(
        "runs", help="list/inspect/prune the durable run registry")
    runs_sub = runs.add_subparsers(dest="runs_command", metavar="action")
    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    runs_list.add_argument("--root", default="runs")
    runs_list.add_argument("--json", action="store_true")
    runs_show = runs_sub.add_parser("show", help="show one run's manifest "
                                                 "and latest metrics")
    runs_show.add_argument("run_id", metavar="RUN_ID")
    runs_show.add_argument("--root", default="runs")
    runs_show.add_argument("--json", action="store_true")
    runs_gc = runs_sub.add_parser("gc", help="delete all but the newest "
                                             "finished runs")
    runs_gc.add_argument("--root", default="runs")
    runs_gc.add_argument("--keep", type=int, default=10)
    runs_gc.add_argument("--dry-run", action="store_true")
    return parser


def _target_name(name: str) -> str:
    if name not in api.target_names():
        raise argparse.ArgumentTypeError(
            f"unknown target {name!r}; "
            f"choose from {', '.join(api.target_names())}")
    return name


def _strategies(name: str) -> Sequence[str]:
    """``all``: the built-in strategies; else one registered strategy
    (the registry includes third-party ``@register_pass`` plugins)."""
    if name == "all":
        return STRATEGIES
    if name not in api.strategy_names():
        raise argparse.ArgumentTypeError(
            f"unknown strategy {name!r}; "
            f"choose from {', '.join(api.strategy_names())} or 'all'")
    return (name,)


def _spec_variants(text: str) -> Sequence[str]:
    from repro.campaign.cli import _parse_list

    return tuple(_parse_list(text, api.model_names(), "speculation variant"))


def _progress(quiet: bool):
    """The stderr progress printer of a run (None under ``--quiet``)."""
    return None if quiet else (
        lambda message: print(f"[repro] {message}", file=sys.stderr))


def _emit_result(run: "api.RunResult", json_arg: Optional[str],
                 quiet: bool) -> None:
    """Print the run summary and write the artifact where asked.

    With ``--json -`` the artifact owns stdout and the human summary
    moves to stderr, so piping stays machine-clean.
    """
    if json_arg and json_arg != "-":
        run.save(json_arg)
    summary_stream = sys.stderr if json_arg == "-" else sys.stdout
    if not quiet or json_arg != "-":
        print(run.format_summary(), file=summary_stream)
    if json_arg == "-":
        print(run.to_json())


def _cmd_fuzz(args: argparse.Namespace) -> int:
    spec_variants = tuple(
        item.strip() for item in args.variants.split(",") if item.strip())
    try:
        run = (api.pipeline(
                   target=args.target, variant=args.variant, tool=args.tool,
                   engine=args.engine, seed=args.seed, workers=args.workers,
                   max_input_size=args.max_input_size,
                   progress=_progress(args.quiet))
               .variants(*spec_variants)
               .fuzz(iterations=args.iterations, rounds=args.rounds,
                     shards=args.shards, checkpoint=args.checkpoint,
                     resume=args.resume))
        if args.progress or args.trace or args.profile_engine:
            run = run.telemetry(trace=args.trace, progress=args.progress,
                                interval=args.progress_interval,
                                profile_engine=args.profile_engine)
        run = run.report()
    except (api.PipelineError, api.UnknownPluginError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _emit_result(run, args.json, args.quiet)
    return 0


def _load_reports(path: str) -> List[api.GadgetReport]:
    """Read gadget reports from a JSON file.

    Accepts either a plain list of ``GadgetReport.to_dict`` records or an
    object with a ``"reports"`` key holding one (the shape the campaign
    checkpoint and hardening outputs use).
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("reports", [])
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a list of report records")
    return [api.GadgetReport.from_dict(record) for record in payload]


def _cmd_harden(args: argparse.Namespace) -> int:
    """Detect once (or read ``--report-in``), then patch and re-fuzz
    every strategy: one ``harden``/``refuzz`` pair per strategy."""
    chain = (api.pipeline(target=args.target, variant=args.variant,
                          tool=args.tool, engine=args.engine, seed=args.seed,
                          perf_input_size=args.perf_size,
                          progress=_progress(args.quiet))
             .variants(*args.spec_variants))
    if args.report_in:
        try:
            chain.reports(_load_reports(args.report_in))
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load {args.report_in}: {error}",
                  file=sys.stderr)
            return 2
    else:
        chain.fuzz(iterations=args.iterations, rounds=args.rounds)
    for strategy in args.strategy:
        chain.harden(strategy).refuzz(iterations=args.iterations,
                                      rounds=args.rounds)
    try:
        run = chain.report()
    except (ValueError, RuntimeError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    results = [read_record(api.HardeningResult, stage.payload,
                           api.ResultSchemaError)
               for stage in run.stages if stage.kind == "refuzz"]
    # With ``--json -`` stdout carries machine-readable output only; the
    # human summaries move to stderr so piping stays clean.
    summary_stream = sys.stderr if args.json == "-" else sys.stdout
    for result in results:
        print(result.format_summary(), file=summary_stream)
    payload = json.dumps([result.to_dict() for result in results],
                         indent=1, sort_keys=True)
    if args.json == "-":
        print(payload)
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    # Exit non-zero when a strategy left residual sites, so CI can gate on
    # "the patches actually worked".
    return 1 if any(result.residual for result in results) else 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        run = api.RunResult.load(args.path)
    except (OSError, ValueError) as error:
        print(f"error: cannot load {args.path}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(run.to_json())
        return 0
    print(run.format_summary())
    if args.reports:
        for report in run.gadget_reports():
            print(f"  {report.category}  pc={report.pc:#x}  "
                  f"depth={report.depth}  [{report.tool}]")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    tools = tuple(t.strip() for t in args.tools.split(",") if t.strip())
    try:
        run = (api.pipeline(target=args.target, variant=args.variant,
                            engine=args.engine,
                            progress=_progress(args.quiet))
               .bench(input_size=args.input_size, tools=tools)
               .report())
    except (api.PipelineError, api.UnknownPluginError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _emit_result(run, args.json, args.quiet)
    if args.json != "-":
        payload = run.stage("bench").payload
        for tool, factor in sorted(payload["normalized"].items()):
            print(f"  {tool}: {factor:.1f}x native")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import aggregate_trace, format_trace_stats, read_trace
    from repro.telemetry.tracing import TraceError

    try:
        records = read_trace(args.trace)
    except (OSError, TraceError, ValueError) as error:
        print(f"error: cannot read {args.trace}: {error}", file=sys.stderr)
        return 2
    aggregate = aggregate_trace(records)
    wrote_artifact = False
    if args.html:
        from repro.telemetry.report import render_html_report

        profile = None
        if args.result:
            try:
                telemetry = api.RunResult.load(args.result).telemetry or {}
                profile = telemetry.get("profile")
            except (OSError, ValueError) as error:
                print(f"error: cannot load {args.result}: {error}",
                      file=sys.stderr)
                return 2
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html_report(aggregate, profile=profile))
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
        wrote_artifact = True
    if args.flamegraph:
        from repro.telemetry.report import render_flamegraph

        with open(args.flamegraph, "w", encoding="utf-8") as handle:
            handle.write(render_flamegraph(aggregate))
        print(f"wrote collapsed stacks to {args.flamegraph}",
              file=sys.stderr)
        wrote_artifact = True
    if args.json:
        print(json.dumps(aggregate, indent=1, sort_keys=True, default=str))
        return 0
    if not wrote_artifact:
        print(format_trace_stats(aggregate))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry import top as telemetry_top

    if args.json:
        try:
            record = telemetry_top.sample(args.target)
        except telemetry_top.TopError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(json.dumps(record, indent=1, sort_keys=True))
        return 0
    return telemetry_top.run_top(args.target, interval=args.interval,
                                 once=args.once)


def _run_trace_stats(run) -> Optional[dict]:
    """Aggregate a run directory's ``trace.jsonl`` (None when absent)."""
    from repro.telemetry import aggregate_trace, read_trace
    from repro.telemetry.tracing import TraceError

    try:
        records = read_trace(run.trace_path)
    except (OSError, TraceError, ValueError):
        return None
    return aggregate_trace(records)


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.telemetry.runs import (
        RunRegistry,
        RunSchemaError,
        format_runs_table,
    )

    command = args.runs_command or "list"
    registry = RunRegistry(getattr(args, "root", "runs"))
    if command == "list":
        manifests = registry.list_manifests()
        if getattr(args, "json", False):
            print(json.dumps(manifests, indent=1, sort_keys=True))
        else:
            print(format_runs_table(manifests))
        return 0
    if command == "show":
        try:
            run = registry.get(args.run_id)
            manifest = run.manifest()
        except (KeyError, RunSchemaError) as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        aggregate = _run_trace_stats(run)
        record = {"manifest": manifest,
                  "live_counts": run.live_counts()}
        if aggregate is not None:
            record["trace"] = aggregate
        if args.json:
            print(json.dumps(record, indent=1, sort_keys=True, default=str))
            return 0
        print(f"run {manifest.get('run_id')} [{manifest.get('status')}] — "
              f"{manifest.get('command')} "
              f"(created {manifest.get('created_at')})")
        for key in ("target", "engine", "variants", "config_digest",
                    "finished_at"):
            if manifest.get(key):
                print(f"  {key}: {manifest[key]}")
        counts = run.live_counts()
        if counts:
            print("  live counts:")
            for name, value in counts.items():
                print(f"    {name} = {value}")
        if aggregate is not None:
            from repro.telemetry.report import critical_path

            span_paths = aggregate.get("span_paths") or {}
            top_paths = sorted(
                span_paths.items(),
                key=lambda item: -float(item[1].get("total_s", 0.0)))[:8]
            if top_paths:
                print("  trace (top span paths by total time):")
                for path, stats in top_paths:
                    print(f"    {path}: {stats.get('count', 0)}x "
                          f"total {stats.get('total_s', 0.0)}s "
                          f"p50 {stats.get('p50_s', 0.0)}s "
                          f"p90 {stats.get('p90_s', 0.0)}s")
            chain = critical_path(list(aggregate.get("spans") or []))
            if chain:
                print("  critical path: "
                      + " > ".join(
                          f"{span.get('name')} "
                          f"({float(span.get('elapsed_s') or 0.0):.3f}s)"
                          for span in chain))
        return 0
    if command == "gc":
        removed = registry.gc(keep=args.keep, dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {len(removed)} run(s)"
              + (": " + ", ".join(removed) if removed else ""))
        return 0
    print(f"error: unknown runs action {command!r}", file=sys.stderr)
    return 2


def _cmd_targets(args: argparse.Namespace) -> int:
    listing = api.target_listing()
    if args.json:
        print(json.dumps(listing, indent=1, sort_keys=True))
        return 0
    print("registered targets:")
    for record in listing:
        flags = ["runnable"]
        if record["injectable"]:
            flags.append(f"injectable ({record['attack_points']} attack "
                         f"points)")
        description = f"  — {record['description']}" if record["description"] else ""
        print(f"  {record['name']:<10} [{', '.join(flags)}]{description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The campaign subcommand forwards verbatim (including --help) to the
    # campaign CLI, re-branded with the `repro campaign` prog.
    if argv and argv[0] == "campaign":
        from repro.campaign import cli as campaign_cli

        return campaign_cli.main(argv[1:], prog="repro campaign")
    if argv and argv[0] in _SERVICE_COMMANDS:
        from repro.service import cli as service_cli

        return service_cli.main(argv, prog="repro")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler = {
        "fuzz": _cmd_fuzz,
        "harden": _cmd_harden,
        "report": _cmd_report,
        "bench": _cmd_bench,
        "targets": _cmd_targets,
        "stats": _cmd_stats,
        "top": _cmd_top,
        "runs": _cmd_runs,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # The reader went away (`... | head`); any --json artifact is
        # already on disk, so exit quietly like the campaign CLI does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
