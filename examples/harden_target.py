#!/usr/bin/env python3
"""Close the detect → patch → verify loop on one workload.

Fuzzes the target once to collect gadget reports, then patches the
original binary with each mitigation strategy, re-fuzzes the hardened
build with the identical campaign to prove the reported sites are gone,
and prints the cycle overhead each strategy costs a deployed binary —
the trade-off the paper's ranked report output exists to enable.

Usage:  python examples/harden_target.py [target] [iterations]
        target defaults to 'gadgets' (the Kocher-sample driver);
        iterations to 400 executions per campaign.

Equivalent CLI:
        repro harden --target gadgets --strategy all --iterations 400
"""

import sys

import repro.api as api
from repro.hardening import STRATEGIES


def main() -> None:
    target = sys.argv[1] if len(sys.argv) > 1 else "gadgets"
    iterations = int(sys.argv[2]) if len(sys.argv) > 2 else 400

    print(f"fuzzing {target} for {iterations} executions ...")
    # One detection campaign; every strategy patches its report set and
    # re-fuzzes the hardened build with the same campaign.
    chain = api.pipeline(target=target, seed=1234).fuzz(iterations=iterations)
    for strategy in STRATEGIES:
        chain.harden(strategy).refuzz()
    run = chain.report()
    print(f"  {run.stage('fuzz').payload['unique_gadgets']} unique gadget "
          f"sites reported\n")

    for stage in run.stages:
        if stage.kind != "refuzz":
            continue
        result = stage.payload
        print(f"strategy={stage.label}: {len(result['eliminated'])}/"
              f"{len(result['sites_before'])} sites eliminated, overhead "
              f"{result['overhead']:.3f}x ({result['hardened_cycles']} vs "
              f"{result['native_cycles']} cycles)")
        verdict = ("all reported sites eliminated" if result["all_eliminated"]
                   else f"{len(result['residual'])} residual site(s)!")
        print(f"  -> {verdict}\n")


if __name__ == "__main__":
    main()
