"""``repro.api`` — the one public surface of the Teapot reproduction.

Three layers, one import::

    import repro.api as api

* **Pipeline builder** — :func:`api.pipeline` composes fuzzing,
  campaigns, hardening and benchmarking into one typed chain whose
  terminal :meth:`~repro.api.pipeline.Pipeline.report` call returns a
  versioned, JSON-round-trippable :class:`~repro.api.result.RunResult`::

      run = api.pipeline(target="jsmn").engine("fast") \\
               .fuzz(400).harden("mask").refuzz().report()

* **Plugin registries** — targets, emulator engines, hardening
  strategies and speculation models are named plugins; third-party code
  extends the system with :func:`register_target`,
  :func:`register_engine`, :func:`register_pass` and
  :func:`register_model` and the new names work everywhere a
  built-in would (builder stages, the CLI, campaign specs).

* **CLI** — the ``repro`` console script (``python -m repro.api``)
  drives everything: ``repro fuzz | campaign | harden | report | bench |
  targets``.

The tests in ``tests/api/test_public_surface.py`` pin ``__all__``; grow
it deliberately.
"""

from typing import Dict, List

from repro.api.pipeline import (
    BENCH_TOOLS,
    Pipeline,
    PipelineError,
    Session,
    pipeline,
)
from repro.api.result import (
    RESULT_KIND,
    SCHEMA_VERSION,
    ResultSchemaError,
    RunResult,
    StageRecord,
)
from repro.campaign.spec import CampaignSpec
from repro.hardening.pipeline import HardeningResult
from repro.plugins import (
    ENGINE_REGISTRY,
    MODEL_REGISTRY,
    PASS_REGISTRY,
    DuplicatePluginError,
    PluginError,
    PluginRegistry,
    UnknownPluginError,
    engine_names,
    model_names,
    register_engine,
    register_model,
    register_pass,
    register_target,
    strategy_names,
    target_names,
    target_registry,
)
from repro.sanitizers.reports import GadgetReport
from repro.specmodels import SpeculationModel
from repro.targets.base import AttackPoint, TargetProgram
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    TraceWriter,
    aggregate_trace,
    read_trace,
)
from repro.telemetry.export import render_prometheus
from repro.telemetry.runs import RunDirectory, RunRegistry


def target_listing() -> List[Dict[str, object]]:
    """Machine-readable listing of every registered target.

    One record per target with its capability flags — ``runnable``
    (campaigns can fuzz it), ``injectable`` (supports the Table-3
    ``injected`` variant) and ``variants`` (the speculation variants with
    known planted gadgets) — which is what ``repro targets --json``
    prints.
    """
    registry = target_registry()
    records: List[Dict[str, object]] = []
    for name in registry.names():
        target = registry.get(name)
        records.append({
            "name": name,
            "runnable": True,
            "injectable": bool(target.attack_points),
            "attack_points": len(target.attack_points),
            "seeds": len(target.seeds),
            "variants": sorted(target.variants),
            "description": target.description,
        })
    return records


__all__ = [
    # pipeline builder
    "BENCH_TOOLS",
    "Pipeline",
    "PipelineError",
    "Session",
    "pipeline",
    # run artifact
    "RESULT_KIND",
    "SCHEMA_VERSION",
    "ResultSchemaError",
    "RunResult",
    "StageRecord",
    # plugin registries
    "ENGINE_REGISTRY",
    "MODEL_REGISTRY",
    "PASS_REGISTRY",
    "DuplicatePluginError",
    "PluginError",
    "PluginRegistry",
    "UnknownPluginError",
    "engine_names",
    "model_names",
    "register_engine",
    "register_model",
    "register_pass",
    "register_target",
    "strategy_names",
    "target_names",
    "target_registry",
    "target_listing",
    # building blocks a plugin author needs
    "AttackPoint",
    "CampaignSpec",
    "GadgetReport",
    "HardeningResult",
    "SpeculationModel",
    "TargetProgram",
    # telemetry / observability
    "MetricsRegistry",
    "Telemetry",
    "TraceWriter",
    "aggregate_trace",
    "read_trace",
    # campaign observatory
    "RunDirectory",
    "RunRegistry",
    "render_prometheus",
]
