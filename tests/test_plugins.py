"""Tests for the plugin registries (targets, techniques, environments)."""

from __future__ import annotations

import pytest

import repro
from repro.core import plugins
from repro.core.errors import ConfigurationError


@pytest.fixture(autouse=True)
def restore_builtins():
    """Each test may reset the registries; restore the built-ins after."""
    yield
    plugins._reset_for_tests()
    repro._register_builtins()


class TestTargetRegistry:
    def test_builtin_target_registered(self):
        assert "thor-rd-sim" in plugins.registered_targets()

    def test_create_target_builds_interface(self):
        target = plugins.create_target("thor-rd-sim")
        assert target.target_name == "thor-rd-sim"

    def test_unknown_target(self):
        with pytest.raises(ConfigurationError, match="unknown target"):
            plugins.create_target("pdp11")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            plugins.register_target("thor-rd-sim", lambda: None)

    def test_custom_registration(self):
        sentinel = object()
        plugins.register_target("custom", lambda: sentinel)
        assert plugins.create_target("custom") is sentinel


class TestTechniqueRegistry:
    def test_builtin_techniques(self):
        names = plugins.registered_techniques()
        assert {"scifi", "swifi_preruntime", "swifi_runtime"} <= set(names)

    def test_method_lookup(self):
        assert plugins.technique_method("scifi") == "_run_scifi_experiment"
        assert plugins.technique_method("pinlevel") == "_run_scifi_experiment"

    def test_unknown_technique(self):
        with pytest.raises(ConfigurationError, match="unknown technique"):
            plugins.technique_method("pin_level")

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigurationError):
            plugins.register_technique("scifi", "x")


class TestEnvironmentRegistry:
    def test_builtin_environments(self):
        assert {"dc_motor", "water_tank"} <= set(plugins.registered_environments())

    def test_create_with_params(self):
        env = plugins.create_environment(
            "dc_motor", {"sensor_addr": 1, "actuator_addr": 2}
        )
        assert env.sensor_addr == 1

    def test_unknown_environment(self):
        with pytest.raises(ConfigurationError, match="unknown environment"):
            plugins.create_environment("wind_tunnel")

    def test_register_builtins_is_idempotent(self):
        repro._register_builtins()
        repro._register_builtins()
        assert "thor-rd-sim" in plugins.registered_targets()
