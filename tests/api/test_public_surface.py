"""Pin the public surface of ``repro.api``.

The CI ``api-surface`` job runs this module; a drifted ``__all__`` —
something added, removed or renamed — must fail here first, so surface
changes are always deliberate and reviewed.  Update ``EXPECTED_SURFACE``
together with ``docs/api.md`` when the facade intentionally grows.
"""

import repro.api

EXPECTED_SURFACE = sorted([
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
])


def test_public_surface_matches_snapshot():
    assert sorted(repro.api.__all__) == EXPECTED_SURFACE


def test_every_exported_name_resolves():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_schema_version_is_pinned():
    # Bumping the artifact schema is a compatibility event: update the
    # loader's accepted range and docs/api.md alongside this constant.
    assert repro.api.SCHEMA_VERSION == 1
    assert repro.api.RESULT_KIND == "repro.api/run-result"
