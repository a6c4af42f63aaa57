"""Start-up: what ``import repro`` and a campaign process load.

``import repro`` loads the campaign engine, the database and the
analysis modules a campaign's analysis phase runs.  Targets and
environment simulators load when a campaign names them; the other
analysis tools, the pack loader and the workload library when one of
their names is first used (the ``_LAZY`` tables of ``repro.analysis``,
``repro.core`` and ``repro.workloads``).  Each import-set check runs in
a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import CampaignConfig, GoofiSession, Termination
from repro.core import plugins
from repro.core.errors import ConfigurationError
from repro.workloads import workload_names

SOURCE_ROOT = Path(repro.__file__).resolve().parents[1]

#: The packages that serve names lazily, and so the modules they defer.
LAZY_PACKAGES = ("repro.analysis", "repro.core", "repro.workloads")


def loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter and return the ``repro``
    modules it loaded, and every deferred module (a submodule in a
    ``_LAZY`` table), both as sorted lists."""
    script = textwrap.dedent(code) + textwrap.dedent(
        f"""
        import importlib, json, sys
        deferred = [
            f"{{package}}.{{module}}"
            for package in {LAZY_PACKAGES!r}
            for module in importlib.import_module(package)._LAZY
        ]
        print(json.dumps({{
            "loaded": sorted(m for m in sys.modules if m.startswith("repro")),
            "deferred": sorted(deferred),
        }}))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE_ROOT)},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def under(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


#: A campaign through the set-up, fault-injection and analysis phases,
#: as the ledger's workloads run them.
CAMPAIGN = """
from repro import CampaignConfig, GoofiSession
from repro import analysis

with GoofiSession(":memory:", target_name={target!r}) as session:
    extra = {{}}
    if {environment!r}:
        extra["environment"] = {{
            "name": "dc_motor",
            "params": {{
                "sensor_addr": session.workload_symbol({workload!r}, "sensor"),
                "actuator_addr": session.workload_symbol({workload!r}, "actuator"),
            }},
        }}
    config = CampaignConfig(
        name="c",
        target={target!r},
        technique={technique!r},
        workload={workload!r},
        location_patterns=({locations!r},),
        num_experiments=6,
        termination=session.default_termination({workload!r}, max_iterations=5),
        observation=session.default_observation({workload!r}),
        seed=3,
        **extra,
    )
    session.setup_campaign(config)
    session.run_campaign("c", telemetry="spans", **{run!r})
    analysis.classify_campaign(session.db, "c")
    analysis.campaign_report(session.db, "c")
    analysis.stats_report(session.db, "c")
"""


class TestImportSet:
    def test_import_repro_loads_no_target_and_no_deferred_module(self):
        sets = loaded_after("import repro, repro.session")
        loaded = sets["loaded"]
        assert under(loaded, "repro.targets") == []
        assert sorted(set(loaded) & set(sets["deferred"])) == []
        assert "repro.cli.main" not in loaded

    def test_thor_sm_campaign_loads_no_thor_rd_module(self):
        sets = loaded_after(
            CAMPAIGN.format(
                target=plugins.THOR_SM,
                technique="swifi_preruntime",
                workload="s_checksum",
                locations="memory:data",
                environment=False,
                run={"workers": 2},
            )
        )
        loaded = sets["loaded"]
        assert under(loaded, "repro.targets.thor") == []
        assert "repro.targets.stack.interface" in loaded
        late = set(loaded) & set(sets["deferred"])
        # The set-up phase asks the workload library whether the
        # workload loops; nothing else deferred loads.
        assert late <= {
            "repro.workloads.library",
            "repro.workloads.control",
            "repro.workloads.programs",
        }

    def test_thor_rd_campaign_loads_no_thor_sm_module(self):
        sets = loaded_after(
            CAMPAIGN.format(
                target=plugins.THOR_RD,
                technique="scifi",
                workload="control_protected",
                locations="internal:regs.*",
                environment=True,
                run={"checkpoints": True, "prune": True},
            )
        )
        loaded = sets["loaded"]
        assert under(loaded, "repro.targets.stack") == []
        assert "repro.targets.thor.interface" in loaded
        assert "repro.workloads.envsim" in loaded
        analysis_tools = {m for m in sets["deferred"] if m.startswith("repro.analysis")}
        assert set(loaded) & (analysis_tools | {"repro.core.packs"}) == set()

    def test_nothing_loads_inside_the_run_or_the_analysis(self):
        """Every module a campaign needs is compiled by the end of its
        set-up phase, so none is compiled inside the timed run or the
        analysis phase."""
        code = CAMPAIGN.format(
            target=plugins.THOR_RD,
            technique="scifi",
            workload="control_protected",
            locations="internal:regs.*",
            environment=True,
            run={"checkpoints": True},
        )
        code = code.replace(
            '    session.run_campaign("c"',
            "    import sys\n"
            "    before = set(sys.modules)\n"
            '    session.run_campaign("c"',
        )
        code += "\n    assert set(sys.modules) == before, set(sys.modules) - before\n"
        loaded_after(code)

    def test_every_exported_name_resolves(self):
        loaded_after(
            """
            import importlib
            for package in ("repro", "repro.analysis", "repro.core", "repro.workloads"):
                module = importlib.import_module(package)
                for name in module.__all__:
                    assert getattr(module, name) is not None, (package, name)
            """
        )

    def test_unknown_name_still_raises(self):
        import repro.core
        import repro.workloads

        for package in (repro.core, repro.workloads):
            with pytest.raises(AttributeError, match="no attribute"):
                package.does_not_exist


class TestRegistry:
    def test_name_constants_match_interfaces(self):
        from repro.targets.stack.interface import TARGET_NAME as STACK_NAME
        from repro.targets.thor.interface import TARGET_NAME as THOR_NAME

        assert plugins.THOR_RD == THOR_NAME
        assert plugins.THOR_SM == STACK_NAME
        assert {THOR_NAME, STACK_NAME} <= set(plugins.registered_targets())

    def test_builtins_register_by_module_path(self):
        loaded_after(
            """
            import sys
            from repro.core import plugins
            assert "repro.targets.stack.interface" not in sys.modules
            target = plugins.create_target(plugins.THOR_SM)
            assert target.target_name == plugins.THOR_SM
            assert "repro.targets.stack.interface" in sys.modules
            assert "repro.workloads.envsim" not in sys.modules
            plugins.create_environment("water_tank", {"sensor_addr": 1, "actuator_addr": 2})
            assert "repro.workloads.envsim" in sys.modules
            """
        )

    def test_module_path_registration(self):
        try:
            plugins.register_target(
                "stack-by-path", "repro.targets.stack.interface:StackTargetInterface"
            )
            target = plugins.create_target("stack-by-path")
            assert target.target_name == plugins.THOR_SM
        finally:
            plugins._TARGETS.pop("stack-by-path", None)


def reference_termination(session, workload, max_iterations=200, slack_factor=4.0):
    """The watchdog budget as sized from a full reference-trace run."""
    from repro.workloads.library import is_loop_workload

    target = session.target
    target.init_test_card()
    target.load_workload(workload)
    probe = Termination(
        max_cycles=2_000_000,
        max_iterations=max_iterations if is_loop_workload(workload) else None,
    )
    info, _trace = target.record_trace(probe)
    return Termination(
        max_cycles=max(100, int(info.cycle * slack_factor)),
        max_iterations=probe.max_iterations,
    )


def stack_workloads() -> list[str]:
    from repro.targets.stack.workloads import STACK_SOURCES

    return sorted(STACK_SOURCES)


class TestDefaultTermination:
    @pytest.mark.parametrize(
        "target, workload",
        [(plugins.THOR_RD, name) for name in workload_names()]
        + [(plugins.THOR_SM, name) for name in stack_workloads()],
    )
    def test_plain_run_sizes_the_watchdog_like_the_trace(self, target, workload):
        with GoofiSession(target_name=target) as session:
            expected = reference_termination(session, workload, max_iterations=40)
            assert session.default_termination(workload, max_iterations=40) == expected


class TestSetupChecksEnvironment:
    def config(self, session, environment) -> CampaignConfig:
        return CampaignConfig(
            name="env",
            target=plugins.THOR_RD,
            technique="scifi",
            workload="control_protected",
            location_patterns=("internal:regs.*",),
            num_experiments=4,
            termination=Termination(max_cycles=100_000, max_iterations=5),
            observation=session.default_observation("control_protected"),
            environment=environment,
        )

    @pytest.mark.parametrize(
        "environment, message",
        [
            ({"name": "wind_tunnel", "params": {}}, "unknown environment"),
            ({"name": "dc_motor", "params": {"sensor_addr": 1}}, "refused params"),
            (
                {"name": "dc_motor", "params": {"sensor_addr": 1, "bogus": 2}},
                "refused params",
            ),
            (
                {
                    "name": "dc_motor",
                    "params": {"sensor_addr": 1, "actuator_addr": 2},
                    "faults": {"drop_probability": 2.0},
                },
                "drop_probability",
            ),
        ],
        ids=["unknown-name", "missing-param", "unknown-param", "bad-faults"],
    )
    def test_refused_before_anything_is_stored(self, session, environment, message):
        with pytest.raises(ConfigurationError, match=message):
            session.setup_campaign(self.config(session, environment))
        assert session.db.list_campaigns() == []

    def test_good_environment_is_stored(self, session):
        environment = {
            "name": "dc_motor",
            "params": {
                "sensor_addr": session.workload_symbol("control_protected", "sensor"),
                "actuator_addr": session.workload_symbol("control_protected", "actuator"),
            },
            "faults": {"drop_probability": 0.1, "seed": 2},
        }
        session.setup_campaign(self.config(session, environment))
        assert session.db.list_campaigns() == ["env"]
