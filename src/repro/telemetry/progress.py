"""Live campaign progress: the periodic heartbeat reporter.

The fuzzer ticks the heartbeat once per execution and the campaign
scheduler forces a beat after every round; the reporter rate-limits
itself to one line per ``interval`` seconds and renders the interesting
registry values — executions/second, corpus size and per-speculation-
variant unique gadget sites::

    [progress] 1,234 execs (410/s), corpus 57, sites: btb=1 pht=3

Ticks are cheap even at fuzzing rates: the reporter adapts its stride —
only every Nth tick reads the clock — growing N while ticks arrive much
faster than the interval and collapsing it back to 1 the moment they
slow down, so a long-running single-execution job still beats at least
once per interval instead of stalling behind a fixed 16-tick mask.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

from repro.telemetry.metrics import MetricsRegistry


class HeartbeatReporter:
    """Interval-throttled progress lines rendered from a metrics registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        interval: float = 5.0,
        sink: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self.interval = max(0.05, float(interval))
        self._sink = sink or (
            lambda line: print(line, file=sys.stderr, flush=True))
        self._clock = clock
        self._ticks = 0
        #: ticks between clock reads; adapts to the observed tick rate.
        self._stride = 1
        self._pending = 0
        self._last_check: Optional[float] = None
        self._last_time: Optional[float] = None
        self._last_execs = 0
        #: heartbeat lines emitted so far (tests and the final summary).
        self.beats = 0

    #: never amortise more than this many ticks into one clock read.
    MAX_STRIDE = 4096

    # -- hot path ------------------------------------------------------------
    def tick(self) -> None:
        """Account one execution; maybe emit a line (cheap to call often).

        The stride starts at 1 (every tick reads the clock) and doubles
        while ticks arrive much faster than the reporting interval, so
        hot fuzzing loops pay one increment-and-compare per execution.
        The moment a clock read shows a full interval between checks —
        a long single execution — the stride collapses back to 1, which
        guarantees a beat at least once per interval even at one tick
        per interval.
        """
        self._ticks += 1
        self._pending += 1
        if self._pending < self._stride:
            return
        self._pending = 0
        now = self._clock()
        if self._last_check is not None:
            gap = now - self._last_check
            if gap >= self.interval:
                self._stride = 1
            elif gap * 4 < self.interval and self._stride < self.MAX_STRIDE:
                self._stride <<= 1
        self._last_check = now
        self.maybe_beat(now=now)

    # -- emission ------------------------------------------------------------
    def maybe_beat(self, force: bool = False,
                   now: Optional[float] = None) -> bool:
        """Emit a progress line if ``interval`` elapsed (or ``force``)."""
        if now is None:
            now = self._clock()
        if self._last_time is None:
            # First observation anchors the rate window; emit only if forced.
            self._last_time = now
            self._last_execs = self._executions()
            if not force:
                return False
        elapsed = now - self._last_time
        if not force and elapsed < self.interval:
            return False
        execs = self._executions()
        rate = (execs - self._last_execs) / elapsed if elapsed > 0 else 0.0
        self._sink(self._render(execs, rate))
        self._last_time = now
        self._last_execs = execs
        self.beats += 1
        return True

    # -- rendering -----------------------------------------------------------
    def _executions(self) -> int:
        # The scheduler-side counter covers campaigns whose jobs run in
        # worker processes; the fuzzer-side one updates per execution in
        # serial runs.  Their max is the best
        # live estimate either way.
        return int(max(self.registry.value("campaign.executions"),
                       self.registry.value("fuzz.executions")))

    def _render(self, execs: int, rate: float) -> str:
        parts = [f"[progress] {execs:,} execs ({rate:,.0f}/s)"]
        corpus = self.registry.value("fuzz.corpus_size")
        if corpus:
            parts.append(f"corpus {int(corpus)}")
        # Unique sites per speculation variant; campaign-wide (deduplicated
        # by the scheduler) trumps the per-fuzzer view when both exist.
        sites = (self.registry.values_with_prefix("campaign.sites.")
                 or self.registry.values_with_prefix("fuzz.sites."))
        if sites:
            rendered = " ".join(f"{variant}={int(count)}"
                                for variant, count in sorted(sites.items()))
            parts.append(f"sites: {rendered}")
        failed = self.registry.value("campaign.jobs_failed")
        if failed:
            parts.append(f"failed jobs {int(failed)}")
        return ", ".join(parts)
