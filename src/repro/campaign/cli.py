"""``repro campaign`` / ``python -m repro.campaign``: the campaign CLI.

Runs a whole-suite fuzzing matrix and prints a Table-4-style per-target
gadget table.  Examples::

    # The full target suite, 4 worker processes, 200 executions per group.
    python -m repro.campaign --targets all --workers 4 --iterations 200

    # A sharded teapot-vs-specfuzz comparison with checkpointing.
    python -m repro.campaign --targets jsmn,libyaml --tools teapot,specfuzz \
        --shards 2 --rounds 3 --checkpoint /tmp/campaign.json

    # Kill it at any point, then finish from the last completed round:
    python -m repro.campaign --targets jsmn,libyaml --tools teapot,specfuzz \
        --shards 2 --rounds 3 --checkpoint /tmp/campaign.json --resume
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import TOOLS, VARIANTS, CampaignSpec
from repro.plugins import DEFAULT_ENGINE
from repro.runtime.fastpath import engine_names
from repro.targets import runnable_targets


def _parse_list(text: str, choices: Sequence[str], what: str) -> List[str]:
    values = [item.strip() for item in text.split(",") if item.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no {what} given")
    for value in values:
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {value!r}; choose from {', '.join(choices)}"
            )
    return values


def build_parser(prog: str = "repro campaign") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Parallel multi-target Spectre-gadget fuzzing campaigns.",
    )
    parser.add_argument(
        "--targets", default="all",
        help="comma-separated target names, or 'all' for the whole suite "
             f"({', '.join(runnable_targets())})")
    parser.add_argument(
        "--tools", default="teapot",
        help=f"comma-separated detectors ({', '.join(TOOLS)}); default: teapot")
    parser.add_argument(
        "--variants", default="vanilla",
        help=f"comma-separated binary variants ({', '.join(VARIANTS)}); "
             "'injected' reproduces the Table 3 build and is skipped for "
             "targets without attack points")
    parser.add_argument(
        "--spec-variants", default="pht",
        help="comma-separated speculation variants to simulate (pht, btb, "
             "rsb, stl, or any registered model; default: pht)")
    parser.add_argument("--iterations", type=int, default=200,
                        help="total executions per (target, tool, variant) "
                             "group (default: 200)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1 = in this process)")
    parser.add_argument("--shards", type=int, default=0,
                        help="corpus shards per group (default: = workers); "
                             "affects results, unlike --workers")
    parser.add_argument("--rounds", type=int, default=2,
                        help="corpus-sync rounds (default: 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    parser.add_argument("--max-input-size", type=int, default=1024,
                        help="mutation size cap in bytes (default: 1024)")
    parser.add_argument("--engine", choices=tuple(engine_names()),
                        default=DEFAULT_ENGINE,
                        help=f"emulator engine (default: {DEFAULT_ENGINE}); "
                             "every engine produces identical results — "
                             "fast is the compiled engine one instruction "
                             "at a time, legacy keeps the reference "
                             "implementation selectable")
    parser.add_argument("--job-timeout", type=float, default=0.0,
                        metavar="SECONDS", dest="job_timeout",
                        help="per-job wall-clock cap (default: 0 = "
                             "unlimited); a timed-out job's process is "
                             "killed and the job recorded as failed")
    parser.add_argument("--job-retries", type=int, default=0, metavar="N",
                        dest="job_retries",
                        help="retries per failing/timed-out job with "
                             "exponential backoff (default: 0)")
    parser.add_argument("--job-retry-backoff", type=float, default=0.5,
                        metavar="SECONDS", dest="job_retry_backoff",
                        help="base of the per-job retry backoff "
                             "(default: 0.5)")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="write a JSON checkpoint after every round")
    parser.add_argument("--resume", action="store_true",
                        help="resume from --checkpoint if it exists")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the summary as JSON ('-' for stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--progress", action="store_true",
                        help="print a live progress heartbeat (execs/s, "
                             "per-variant site counts) to stderr")
    parser.add_argument("--progress-interval", type=float, default=5.0,
                        metavar="SECONDS",
                        help="minimum seconds between heartbeats "
                             "(default: 5)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a structured JSONL telemetry trace "
                             "(inspect with `repro stats PATH`)")
    parser.add_argument("--serve", metavar="[HOST:]PORT", nargs="?",
                        const="", default=None,
                        help="serve the campaign's service API (live "
                             "/metrics, /v1/campaigns, /v1/fleet; see "
                             "`repro top URL`) for the duration of the "
                             "campaign (default 127.0.0.1:9753; port 0 = "
                             "OS-assigned)")
    parser.add_argument("--run-dir", metavar="ROOT", nargs="?",
                        const="runs", default=None, dest="run_dir",
                        help="record the campaign into a durable run "
                             "directory under ROOT (default: runs/) — "
                             "manifest, trace, metrics snapshots; "
                             "browse with `repro runs` or `repro top "
                             "ROOT/<run-id>`")
    return parser


def main(argv: Optional[Sequence[str]] = None,
         prog: str = "repro campaign") -> int:
    parser = build_parser(prog=prog)
    args = parser.parse_args(argv)

    try:
        if args.targets.strip() == "all":
            targets = runnable_targets()
        else:
            targets = _parse_list(args.targets, runnable_targets(), "target")
        tools = _parse_list(args.tools, TOOLS, "tool")
        variants = _parse_list(args.variants, VARIANTS, "variant")
        from repro.plugins import model_names

        spec_variants = _parse_list(args.spec_variants, model_names(),
                                    "speculation variant")
    except argparse.ArgumentTypeError as error:
        parser.error(str(error))
    shards = args.shards if args.shards > 0 else max(1, args.workers)
    if args.shards <= 0 and args.resume and args.checkpoint:
        # --shards defaults to --workers, but shard count is part of the
        # campaign identity while worker count is not: when resuming,
        # default to the checkpoint's shard count so a 4-worker campaign
        # can be finished with any --workers value.
        try:
            with open(args.checkpoint, "r", encoding="utf-8") as handle:
                shards = int(json.load(handle)["spec"]["shards"])
        except (OSError, ValueError, KeyError, TypeError):
            pass  # no/unreadable checkpoint: keep the workers-based default

    try:
        spec = CampaignSpec(
            targets=tuple(targets),
            tools=tuple(tools),
            variants=tuple(variants),
            iterations=args.iterations,
            rounds=args.rounds,
            shards=shards,
            seed=args.seed,
            max_input_size=args.max_input_size,
            workers=max(1, args.workers),
            engine=args.engine,
            spec_variants=tuple(spec_variants),
            job_timeout_s=max(0.0, args.job_timeout),
            job_max_attempts=1 + max(0, args.job_retries),
            job_retry_backoff_s=max(0.0, args.job_retry_backoff),
        )
    except ValueError as error:
        parser.error(str(error))

    progress = None if args.quiet else (
        lambda message: print(f"[campaign] {message}", file=sys.stderr)
    )
    serve = None
    if args.serve is not None:
        from repro.telemetry.export import parse_address

        try:
            serve = parse_address(args.serve)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    telemetry = None
    run_dir = None
    if args.progress or args.trace or serve or args.run_dir is not None:
        from repro.telemetry import Telemetry
        from repro.telemetry.context import session as telemetry_session

        trace = args.trace
        if args.run_dir is not None:
            from repro.telemetry.runs import RunRegistry

            run_dir = RunRegistry(args.run_dir).create_run(
                command="campaign",
                target=",".join(targets),
                engine=args.engine,
                variants=list(spec_variants),
                config=spec.to_dict(),
                extra={"fingerprint": spec.fingerprint()},
            )
            if trace is None:
                trace = run_dir.trace_path
            if not args.quiet:
                print(f"[campaign] recording run {run_dir.run_id} under "
                      f"{run_dir.path}", file=sys.stderr)
        telemetry = Telemetry.create(
            trace=trace,
            progress=args.progress,
            interval=args.progress_interval,
            context_info={"command": "campaign",
                          "fingerprint": spec.fingerprint()},
        )
        telemetry.run_dir = run_dir
        telemetry.serve = serve
    started = time.time()
    status = "completed"
    try:
        if telemetry is not None:
            with telemetry_session(telemetry):
                summary = run_campaign(spec, checkpoint_path=args.checkpoint,
                                       resume=args.resume, progress=progress)
        else:
            summary = run_campaign(spec, checkpoint_path=args.checkpoint,
                                   resume=args.resume, progress=progress)
    except (ValueError, OSError) as error:
        status = "failed"
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BaseException:
        status = "failed"
        raise
    finally:
        if run_dir is not None and telemetry is not None:
            try:
                # the round loop snapshots each round it closes; this one
                # is written only when it differs from the last of those,
                # so a run that closed none (resumed finished, or failed)
                # still gets one
                run_dir.write_metrics_snapshot(telemetry)
                run_dir.finalize(status=status)
            except OSError:
                pass
        if telemetry is not None:
            telemetry.close()

    elapsed = time.time() - started
    if run_dir is not None:
        try:
            with open(os.path.join(run_dir.path, "summary.json"), "w",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(summary.to_dict(), indent=1,
                                        sort_keys=True) + "\n")
        except OSError:
            pass
    # Write the JSON artifact before touching stdout: a truncated pipe
    # (e.g. `... | head`) kills the process with BrokenPipeError and must
    # not cost the caller their summary file.
    if args.json and args.json != "-":
        payload = json.dumps(summary.to_dict(), indent=1, sort_keys=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")

    try:
        print(summary.format_table())
        if not args.quiet:
            print(f"[campaign] finished in {elapsed:.1f}s "
                  f"(fingerprint {summary.fingerprint})", file=sys.stderr)
        if args.json == "-":
            print(json.dumps(summary.to_dict(), indent=1, sort_keys=True))
        return 0
    except BrokenPipeError:
        # The reader went away (`... | head`); the campaign and any --json
        # artifact are already safe on disk, so exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
