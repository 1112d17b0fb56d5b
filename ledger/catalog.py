"""The metric catalog and the result line every ledger run prints.

``BENCHMARK.json`` at the repository root is the single source of metric
names and units; this module reads it and turns a run's measured values
into the one-line JSON result (``correct``/``attempted``/``failed``/
``metrics``).  It imports nothing from ``repro`` so the parent process and
the tests can use it without the program under test.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Mapping, Sequence

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(LEDGER_DIR), "BENCHMARK.json")


def load_benchmark(path: str = BENCHMARK_JSON) -> Dict[str, object]:
    """The parsed ``BENCHMARK.json``."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def declared_units(trace: bool, path: str = BENCHMARK_JSON) -> Dict[str, str]:
    """``{metric name: unit}`` of the set a run prints.

    An untraced run prints every ``end_to_end`` metric, a traced run every
    ``per_layer`` metric.
    """
    spec = load_benchmark(path)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def to_reference(values: Mapping[str, float], scale: float,
                 path: str = BENCHMARK_JSON) -> Dict[str, float]:
    """Host-time values converted to reference time (see ``calibrate``).

    Times (unit ``s``/``ms``, or an undeclared name ending ``_s``/``_ms``)
    are multiplied by ``scale``, rates (``1/s``) divided by it; counts and
    ratios pass unchanged.
    """
    spec = load_benchmark(path)
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    out: Dict[str, float] = {}
    for name, value in values.items():
        unit = units.get(name)
        if unit is None and name.endswith(("_s", "_ms")):
            unit = "s"
        if unit in ("s", "ms"):
            value = value * scale
        elif unit == "1/s":
            value = value / scale
        out[name] = value
    return out


def assemble(values: Mapping[str, float], trace: bool, correct: bool,
             attempted: int, failed: int,
             path: str = BENCHMARK_JSON) -> Dict[str, object]:
    """The result object of one run.

    Raises ``ValueError`` when a declared metric is missing or not a
    finite number, or when ``values`` names a metric the catalog does not
    declare: a run never prints a partial or unlabelled result.
    """
    units = declared_units(trace, path)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, "
                         f"undeclared {extra}")
    metrics: Dict[str, Dict[str, object]] = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight
