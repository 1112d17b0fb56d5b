"""``repro harden`` / ``python -m repro.hardening``: the hardening CLI.

Closes the loop from a fuzzing campaign's report output to a verified,
overhead-accounted hardened binary.  Examples::

    # Detect, patch with targeted fences, verify, and print the account.
    repro harden --target gadgets --strategy fence --iterations 400

    # Compare every strategy on the injected jsmn build, JSON to a file.
    repro harden --target jsmn --variant injected --strategy all \
        --iterations 200 --json jsmn-hardening.json

    # Patch from a previously saved report file instead of re-fuzzing.
    repro harden --target gadgets --strategy mask --report-in reports.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.campaign.spec import TOOLS, VARIANTS
from repro.hardening.passes import STRATEGIES, strategy_names
from repro.runtime.fastpath import engine_names
from repro.hardening.pipeline import detect_reports, run_hardening
from repro.sanitizers.reports import GadgetReport
from repro.targets import runnable_targets
from repro.plugins import DEFAULT_ENGINE


def load_reports(path: str) -> List[GadgetReport]:
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
    return [GadgetReport.from_dict(record) for record in payload]


def build_parser(prog: str = "repro harden") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Report-guided mitigation synthesis with re-fuzz "
                    "verification and cycle-overhead accounting.",
    )
    parser.add_argument("--target", required=True,
                        help=f"target to harden ({', '.join(runnable_targets())})")
    parser.add_argument("--strategy", default="fence",
                        help="mitigation strategy "
                             f"({', '.join(strategy_names())}) or 'all' to "
                             "compare the built-in strategies")
    parser.add_argument("--variant", choices=VARIANTS, default="vanilla",
                        help="binary variant to fuzz and patch "
                             "(default: vanilla)")
    parser.add_argument("--tool", choices=TOOLS, default="teapot",
                        help="detector producing the reports (default: teapot)")
    parser.add_argument("--iterations", type=int, default=400,
                        help="fuzzing executions for the detection and "
                             "verification campaigns (default: 400)")
    parser.add_argument("--rounds", type=int, default=1,
                        help="corpus-sync rounds per campaign (default: 1)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="campaign seed (default: 1234)")
    parser.add_argument("--engine", choices=tuple(engine_names()),
                        default=DEFAULT_ENGINE,
                        help=f"emulator engine (default: {DEFAULT_ENGINE})")
    parser.add_argument("--variants", default="pht", dest="spec_variants",
                        help="comma-separated speculation variants both "
                             "campaigns simulate (pht, btb, rsb, stl; "
                             "default: pht)")
    parser.add_argument("--perf-size", type=int, default=200,
                        help="crafted performance-input size for the "
                             "overhead account (default: 200)")
    parser.add_argument("--report-in", metavar="PATH", default=None,
                        help="JSON gadget reports to patch from (skips the "
                             "detection campaign)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the hardening report(s) as JSON "
                             "('-' for stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    return parser


def main(argv: Optional[Sequence[str]] = None,
         prog: str = "repro harden") -> int:
    parser = build_parser(prog=prog)
    args = parser.parse_args(argv)

    if args.target not in runnable_targets():
        parser.error(f"unknown target {args.target!r}; "
                     f"choose from {', '.join(runnable_targets())}")
    from repro.campaign.cli import _parse_list
    from repro.plugins import model_names

    try:
        spec_variants = tuple(_parse_list(args.spec_variants, model_names(),
                                          "speculation variant"))
    except argparse.ArgumentTypeError as error:
        parser.error(str(error))
    if args.strategy == "all":
        strategies: Sequence[str] = STRATEGIES
    elif args.strategy in strategy_names():
        # The registry includes third-party ``@register_pass`` plugins.
        strategies = (args.strategy,)
    else:
        parser.error(f"unknown strategy {args.strategy!r}; "
                     f"choose from {', '.join(strategy_names())} or 'all'")

    reports = None
    if args.report_in:
        try:
            reports = load_reports(args.report_in)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load {args.report_in}: {error}",
                  file=sys.stderr)
            return 2

    progress = None if args.quiet else (
        lambda message: print(f"[harden] {message}", file=sys.stderr)
    )
    if reports is None and len(strategies) > 1:
        # Comparing strategies: detect once and patch every strategy from
        # the same report set (the campaign is deterministic, so this only
        # saves the redundant re-detections).
        if progress:
            progress(f"fuzzing baseline {args.target}/{args.variant} "
                     f"with {args.tool}")
        try:
            reports = detect_reports(
                args.target, variant=args.variant, tool=args.tool,
                iterations=args.iterations, rounds=args.rounds,
                seed=args.seed, engine=args.engine,
                spec_variants=spec_variants,
            )
        except (ValueError, RuntimeError, KeyError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    results = []
    for strategy in strategies:
        try:
            result = run_hardening(
                target=args.target,
                strategy=strategy,
                variant=args.variant,
                tool=args.tool,
                iterations=args.iterations,
                rounds=args.rounds,
                seed=args.seed,
                engine=args.engine,
                perf_input_size=args.perf_size,
                reports=reports,
                progress=progress,
                spec_variants=spec_variants,
            )
        except (ValueError, RuntimeError, KeyError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        results.append(result)
        # With ``--json -`` stdout carries machine-readable output only;
        # the human summary moves to stderr so piping stays clean.
        summary_stream = sys.stderr if args.json == "-" else sys.stdout
        print(result.format_summary(), file=summary_stream)

    payload = [result.to_dict() for result in results]
    if args.json == "-":
        print(json.dumps(payload, indent=1, sort_keys=True))
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    # Exit non-zero when a targeted strategy left residual sites, so CI can
    # gate on "the patches actually worked".
    failed = any(result.residual for result in results)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
