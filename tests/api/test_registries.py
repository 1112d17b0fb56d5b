"""Plugin registries: duplicates, unknown names, third-party plugins."""

from __future__ import annotations

import pytest

import repro.api as api

#: A minimal mini-C workload a third-party plugin test can fuzz: one
#: bounds-checked table lookup, i.e. a classic Spectre-V1 shape.
_PLUGIN_SOURCE = r"""
int table[16];

int main() {
    byte buf[8];
    int n = read_input(buf, 8);
    if (n < 1) {
        return 0;
    }
    int index = buf[0];
    if (index < 16) {
        return table[index];
    }
    return 0;
}
"""


# ---------------------------------------------------------------------------
# Generic registry behaviour
# ---------------------------------------------------------------------------

def test_duplicate_registration_is_rejected():
    registry = api.PluginRegistry("thing")
    registry.register("one", object())
    with pytest.raises(api.DuplicatePluginError):
        registry.register("one", object())
    # ...unless an explicit replace is requested.
    marker = object()
    registry.register("one", marker, replace=True)
    assert registry.get("one") is marker


def test_unknown_name_error_lists_valid_options():
    registry = api.PluginRegistry("gizmo")
    registry.register("alpha", 1)
    registry.register("beta", 2)
    with pytest.raises(api.UnknownPluginError) as excinfo:
        registry.get("gamma")
    message = str(excinfo.value)
    assert "gizmo" in message and "'gamma'" in message
    assert "alpha" in message and "beta" in message


def test_unknown_plugin_error_is_both_keyerror_and_valueerror():
    # The registries replaced tables that raised KeyError (targets) or
    # ValueError (engines, strategies); both except-clauses must keep
    # working.
    registry = api.PluginRegistry("item")
    with pytest.raises(KeyError):
        registry.get("nope")
    with pytest.raises(ValueError):
        registry.get("nope")


def test_invalid_names_are_rejected():
    registry = api.PluginRegistry("part")
    with pytest.raises(api.PluginError):
        registry.register("", object())
    with pytest.raises(api.PluginError):
        registry.register(None, object())


def test_unregister_and_container_protocol():
    registry = api.PluginRegistry("widget")
    registry.register("w", 1)
    assert "w" in registry and len(registry) == 1
    assert list(registry) == ["w"]
    registry.unregister("w")
    assert "w" not in registry
    with pytest.raises(api.UnknownPluginError):
        registry.unregister("w")


# ---------------------------------------------------------------------------
# The concrete registries behind the facade
# ---------------------------------------------------------------------------

def test_builtin_registries_contain_the_expected_plugins():
    assert set(api.engine_names()) >= {"fast", "legacy"}
    assert set(api.strategy_names()) >= {"fence", "mask", "fence-all"}
    assert {"gadgets", "jsmn", "libyaml", "libhtp", "brotli",
            "openssl"} <= set(api.target_names())


def test_duplicate_builtin_names_are_rejected_everywhere():
    with pytest.raises(api.DuplicatePluginError):
        api.register_engine("fast", lambda: None)
    with pytest.raises(api.DuplicatePluginError):
        api.register_pass("fence", lambda sites: None)
    with pytest.raises(api.DuplicatePluginError):
        api.register_target(api.TargetProgram(
            name="jsmn", source="int main() { return 0; }", seeds=[b""]))


def test_unknown_names_fail_with_options_at_the_facade():
    with pytest.raises(api.UnknownPluginError) as excinfo:
        api.pipeline(target="no-such-target")
    assert "jsmn" in str(excinfo.value)
    with pytest.raises(api.PipelineError) as excinfo:
        api.pipeline(target="gadgets", engine="turbo")
    assert "fast" in str(excinfo.value)
    with pytest.raises(api.PipelineError) as excinfo:
        api.pipeline(target="gadgets").fuzz(10).harden("nonsense")
    assert "fence" in str(excinfo.value)


def test_register_target_rejects_non_targets():
    with pytest.raises(api.PluginError):
        api.register_target("not a target")


# ---------------------------------------------------------------------------
# Third-party plugins, end to end
# ---------------------------------------------------------------------------

@pytest.fixture
def plugin_target():
    """A third-party-style target registered from inside a test module."""

    @api.register_target
    def _plugin_workload():
        return api.TargetProgram(
            name="apitest-plugin",
            source=_PLUGIN_SOURCE,
            seeds=[b"\x04", b"\x20"],
            description="third-party registry test workload",
        )

    yield _plugin_workload
    api.target_registry().unregister("apitest-plugin")


def test_third_party_target_is_discoverable_end_to_end(plugin_target):
    # Discoverable through every facade enumeration...
    assert "apitest-plugin" in api.target_names()
    listing = {record["name"]: record for record in api.target_listing()}
    assert listing["apitest-plugin"]["runnable"] is True
    assert listing["apitest-plugin"]["injectable"] is False
    # ...and fuzzable through the pipeline builder like any built-in.
    run = (api.pipeline(target="apitest-plugin", seed=11)
           .fuzz(iterations=30)
           .report())
    payload = run.stage("fuzz").payload
    assert payload["executions"] == 30
    assert payload["spec"]["targets"] == ["apitest-plugin"]
