"""The process-wide active-telemetry slot.

The hot layers (emulator ``run()``, the fuzzer's execution loop, the
campaign scheduler) do not thread a telemetry handle through every call —
they ask :func:`active` once per execution/round and skip all telemetry
work when it returns ``None``.  That single check is the entire disabled
cost, which is what keeps the default path within the ≤5 % throughput
budget.

The slot is pid-guarded: a ``multiprocessing`` fork inherits the module
state, but a trace writer or heartbeat inherited by a worker's child
would interleave output and count things the parent never sees, so
:func:`active` answers ``None`` in any process other than the installer.
Campaigns whose jobs run in worker children still get telemetry — each
child counts under its own bundle and the campaign folds the counts
carried by each :class:`~repro.campaign.worker.WorkerResult` into the
parent registry, and the heartbeat ticks once per merged job.  Engine
profiling needs the fuzzing in the profiler's own process, so
:func:`~repro.campaign.scheduler.run_campaign` runs a campaign
in-process when the session has a profiler.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

_ACTIVE = None
_ACTIVE_PID = 0


def install(telemetry):
    """Make ``telemetry`` the process's active instance and return it."""
    global _ACTIVE, _ACTIVE_PID
    _ACTIVE = telemetry
    _ACTIVE_PID = os.getpid()
    return telemetry


def active() -> Optional["object"]:
    """The installed :class:`~repro.telemetry.Telemetry`, or ``None``.

    ``None`` in forked children of the installing process (see the module
    docstring) and, of course, whenever nothing is installed.
    """
    telemetry = _ACTIVE
    if telemetry is None or os.getpid() != _ACTIVE_PID:
        return None
    return telemetry


@contextmanager
def session(telemetry):
    """Install ``telemetry`` for the duration of a ``with`` block.

    Nests: the previously active instance (if any) is restored on exit,
    so a pipeline run inside a larger traced program hands the slot back.
    """
    global _ACTIVE, _ACTIVE_PID
    previous, previous_pid = _ACTIVE, _ACTIVE_PID
    install(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE = previous
        _ACTIVE_PID = previous_pid
