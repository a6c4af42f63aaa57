"""Tests for declarative fault packs, the dependability gate, and the
environment-boundary fault injector's campaign integration."""

from __future__ import annotations

import json

import pytest

from repro import GoofiSession
from repro.analysis import (
    count_critical_failures,
    evaluate_gate,
    format_gate_report,
    required_experiments,
)
from repro.core import (
    DependabilityBounds,
    FaultPack,
    SamplePlan,
    load_pack,
    loads_pack,
    replay_function,
    save_pack,
)
from repro.core.errors import AnalysisError, ConfigurationError, TargetError
from repro.db import GoofiDatabase


def pack_dict(**overrides) -> dict:
    data = {
        "pack": "demo",
        "description": "demo pack",
        "campaign": {
            "technique": "scifi",
            "workload": "fibonacci",
            "locations": ["internal:regs.*", "internal:icache.*"],
            "fault_model": {"model": "transient_bitflip"},
            "seed": 42,
        },
        "sample_plan": {"experiments": 30},
        "bounds": {"min_coverage": 0.05, "coverage_basis": "ci_low"},
    }
    data.update(overrides)
    return data


class TestSamplePlan:
    def test_explicit_count(self):
        assert SamplePlan(experiments=75).resolve() == 75

    def test_half_width_matches_samplesize(self):
        plan = SamplePlan(half_width=0.05, confidence=0.95)
        assert plan.resolve() == required_experiments(0.05, 0.95)

    def test_both_or_neither_rejected(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            SamplePlan(experiments=10, half_width=0.1)
        with pytest.raises(ConfigurationError, match="exactly one"):
            SamplePlan()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            SamplePlan.from_dict({"experiments": 10, "bogus": 1})

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.5, 2.0])
    def test_half_width_bound_checked_at_load_time(self, bad):
        """A pack with an out-of-range half_width must fail when the
        pack is loaded, not later when resolve() reaches the planning
        formula mid-run (regression: SamplePlan accepted any float)."""
        with pytest.raises(ConfigurationError, match="half_width"):
            SamplePlan(half_width=bad)
        with pytest.raises(ConfigurationError, match="half_width"):
            SamplePlan.from_dict({"half_width": bad})

    @pytest.mark.parametrize("field", ["confidence", "expected_proportion"])
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_probability_fields_checked_at_load_time(self, field, bad):
        """Regression: a pack with ``confidence: 1.0`` or
        ``expected_proportion: 0`` loaded and then failed mid-run at
        resolve()."""
        with pytest.raises(ConfigurationError, match=field):
            SamplePlan(half_width=0.05, **{field: bad})
        with pytest.raises(ConfigurationError, match=field):
            SamplePlan.from_dict({"half_width": 0.05, field: bad})


class TestBounds:
    def test_empty_bounds(self):
        assert DependabilityBounds().empty
        assert not DependabilityBounds(min_coverage=0.5).empty

    def test_bad_coverage(self):
        with pytest.raises(ConfigurationError, match="min_coverage"):
            DependabilityBounds(min_coverage=1.5)

    def test_bad_basis(self):
        with pytest.raises(ConfigurationError, match="coverage_basis"):
            DependabilityBounds(min_coverage=0.5, coverage_basis="wish")

    def test_unknown_latency_statistic(self):
        with pytest.raises(ConfigurationError, match="unknown statistic"):
            DependabilityBounds(max_latency={"p42": 100})

    def test_non_positive_latency_ceiling(self):
        with pytest.raises(ConfigurationError, match="positive"):
            DependabilityBounds(max_latency={"p95": 0})


class TestPackSchema:
    def test_round_trip_dict(self):
        data = FaultPack.from_dict(pack_dict()).to_dict()
        assert FaultPack.from_dict(data).to_dict() == data

    def test_round_trip_yaml_and_json(self, tmp_path):
        pack = FaultPack.from_dict(pack_dict())
        for suffix in (".yaml", ".json"):
            path = tmp_path / f"demo{suffix}"
            save_pack(pack, path)
            assert load_pack(path).to_dict() == pack.to_dict()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            FaultPack.from_dict(pack_dict(extra="nope"))

    def test_unknown_campaign_key(self):
        data = pack_dict()
        data["campaign"]["frobnicate"] = True
        with pytest.raises(ConfigurationError, match="frobnicate"):
            FaultPack.from_dict(data)

    def test_unknown_technique(self):
        data = pack_dict()
        data["campaign"]["technique"] = "prayer"
        with pytest.raises(ConfigurationError, match="unknown technique"):
            FaultPack.from_dict(data)

    def test_missing_campaign_section(self):
        with pytest.raises(ConfigurationError, match="campaign section"):
            FaultPack.from_dict({"pack": "x"})

    def test_bad_fault_model_payload(self):
        data = pack_dict()
        data["campaign"]["fault_model"] = {"model": "stuck_at"}
        with pytest.raises(ConfigurationError, match="missing key"):
            FaultPack.from_dict(data)

    def test_unknown_environment(self):
        data = pack_dict(environment={"name": "warp_core"})
        with pytest.raises(ConfigurationError, match="unknown environment"):
            FaultPack.from_dict(data)

    def test_env_faults_validated(self):
        data = pack_dict(
            environment={"name": "dc_motor", "faults": {"drop_probability": 7}}
        )
        with pytest.raises(ConfigurationError, match="drop_probability"):
            FaultPack.from_dict(data)

    def test_critical_bound_needs_environment(self):
        data = pack_dict(bounds={"max_critical_failures": 3})
        with pytest.raises(ConfigurationError, match="no environment"):
            FaultPack.from_dict(data)

    def test_loads_pack_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            loads_pack(": not : valid : yaml :")


class TestResolveCampaign:
    def test_resolves_full_config(self, session):
        pack = FaultPack.from_dict(
            pack_dict(
                environment={
                    "name": "dc_motor",
                    "sensor_symbol": "sensor",
                    "actuator_symbol": "actuator",
                    "faults": {"drop_probability": 0.1, "seed": 5},
                },
                campaign={
                    "technique": "scifi",
                    "workload": "control_unprotected",
                    "locations": ["internal:regs.*"],
                    "seed": 9,
                    "max_iterations": 50,
                },
            )
        )
        config = pack.resolve_campaign(session)
        assert config.name == "demo"
        assert config.num_experiments == 30
        assert config.seed == 9
        assert config.termination.max_iterations == 50
        env = config.environment
        assert env["name"] == "dc_motor"
        assert env["params"]["sensor_addr"] > 0
        assert env["params"]["actuator_addr"] > 0
        assert env["faults"] == {"drop_probability": 0.1, "seed": 5}

    def test_name_override_and_explicit_cycles(self, session):
        data = pack_dict()
        data["campaign"]["max_cycles"] = 123_456
        config = FaultPack.from_dict(data).resolve_campaign(session, name="other")
        assert config.name == "other"
        assert config.termination.max_cycles == 123_456


class TestGate:
    def run_pack(self, session, pack, name="demo"):
        config = pack.resolve_campaign(session, name=name)
        session.setup_campaign(config)
        session.run_campaign(name)
        return config

    def test_gate_passes_on_loose_bounds(self, session):
        pack = FaultPack.from_dict(
            pack_dict(
                bounds={
                    "min_coverage": 0.05,
                    "coverage_basis": "ci_low",
                    "max_latency": {"p95": 10_000_000, "max": 10_000_000},
                }
            )
        )
        config = self.run_pack(session, pack)
        result = evaluate_gate(
            session.db, config.name, pack.bounds, environment=config.environment
        )
        assert result.passed
        assert result.violations == ()
        report = format_gate_report(result)
        assert "PASSED" in report and "min_coverage" in report

    def test_gate_fails_on_tight_coverage(self, session):
        pack = FaultPack.from_dict(pack_dict(bounds={"min_coverage": 0.999}))
        config = self.run_pack(session, pack)
        result = evaluate_gate(session.db, config.name, pack.bounds)
        assert not result.passed
        assert [check.bound for check in result.violations] == ["min_coverage"]
        assert "violated bound(s): min_coverage" in format_gate_report(result)

    def test_latency_bound_with_zero_detections_passes_explicitly(
        self, session
    ):
        """Zero usable latency samples under a max_latency bound is an
        explicit, documented PASS (docs/packs.md): a latency ceiling
        bounds how slow detections are, so with none recorded nothing
        exceeded it.  Requiring detections to exist is min_coverage's
        job, which must FAIL on the analogous no-data case.  This
        campaign (regs.*, 4 experiments, seed 1234) deterministically
        produces no detections."""
        import math

        from tests.conftest import make_campaign
        from repro.analysis import classify_campaign
        from repro.analysis.latency import detection_latencies

        make_campaign(
            session, "silent", locations=("internal:regs.*",),
            num_experiments=4, seed=1234,
        )
        session.run_campaign("silent")
        assert detection_latencies(classify_campaign(session.db, "silent")).count == 0
        bounds = DependabilityBounds(max_latency={"p95": 100, "max": 100})
        result = evaluate_gate(session.db, "silent", bounds)
        assert result.passed
        for check in result.checks:
            assert math.isnan(check.measured)
            assert check.detail == "no detection latencies recorded"
        # The same campaign under a coverage bound: no effective errors
        # means no coverage evidence, which must read as a violation.
        cov = evaluate_gate(
            session.db, "silent", DependabilityBounds(min_coverage=0.5)
        )
        assert not cov.passed
        assert [c.bound for c in cov.violations] == ["min_coverage"]

    def test_gate_report_is_strict_json(self, session):
        pack = FaultPack.from_dict(
            pack_dict(bounds={"min_coverage": 0.1, "max_latency": {"p99": 1}})
        )
        config = self.run_pack(session, pack)
        result = evaluate_gate(session.db, config.name, pack.bounds)
        # allow_nan=False raises on NaN/Infinity; the report must stay
        # loadable by strict parsers (CI artifact consumers).
        text = json.dumps(result.to_dict(), allow_nan=False)
        assert json.loads(text)["campaign"] == config.name

    def test_critical_failure_budget(self, session):
        pack = FaultPack.from_dict(
            pack_dict(
                campaign={
                    "technique": "scifi",
                    "workload": "control_unprotected",
                    "locations": ["internal:regs.*"],
                    "seed": 7,
                    "max_iterations": 40,
                },
                environment={
                    "name": "dc_motor",
                    "sensor_symbol": "sensor",
                    "actuator_symbol": "actuator",
                },
                sample_plan={"experiments": 12},
                bounds={"max_critical_failures": 12},
            )
        )
        config = self.run_pack(session, pack)
        replay = replay_function(config.environment)
        result = evaluate_gate(
            session.db,
            config.name,
            pack.bounds,
            environment=config.environment,
            replay=replay,
        )
        critical = count_critical_failures(
            session.db, config.name, config.environment, replay
        )
        (check,) = result.checks
        assert check.bound == "max_critical_failures"
        assert check.measured == float(critical)
        assert result.passed

        tight = DependabilityBounds(max_critical_failures=0)
        if critical > 0:
            assert not evaluate_gate(
                session.db,
                config.name,
                tight,
                environment=config.environment,
                replay=replay,
            ).passed

    def test_critical_bound_without_environment_raises(self, session):
        pack = FaultPack.from_dict(pack_dict())
        config = self.run_pack(session, pack)
        with pytest.raises(AnalysisError, match="environment"):
            evaluate_gate(
                session.db,
                config.name,
                DependabilityBounds(max_critical_failures=0),
            )

    def test_critical_bound_without_replay_raises(self, session):
        pack = FaultPack.from_dict(pack_dict())
        config = self.run_pack(session, pack)
        with pytest.raises(AnalysisError, match="replay"):
            evaluate_gate(
                session.db,
                config.name,
                DependabilityBounds(max_critical_failures=0),
                environment={"name": "dc_motor"},
            )

    def test_replay_function_rejects_unknown_environment(self):
        with pytest.raises(ConfigurationError, match="no replay model"):
            replay_function({"name": "wind_turbine"})
        assert replay_function({"name": "dc_motor"}) is not None

    def test_no_bounds_raises(self, session):
        pack = FaultPack.from_dict(pack_dict())
        config = self.run_pack(session, pack)
        with pytest.raises(AnalysisError, match="no bounds"):
            evaluate_gate(session.db, config.name, DependabilityBounds())


def control_pack(faults: dict | None, name: str, experiments: int = 10) -> FaultPack:
    environment = {
        "name": "dc_motor",
        "sensor_symbol": "sensor",
        "actuator_symbol": "actuator",
    }
    if faults is not None:
        environment["faults"] = faults
    return FaultPack.from_dict(
        {
            "pack": name,
            "campaign": {
                "technique": "scifi",
                "workload": "control_unprotected",
                "locations": ["internal:regs.*"],
                "seed": 21,
                "max_iterations": 40,
            },
            "environment": environment,
            "sample_plan": {"experiments": experiments},
        }
    )


def campaign_rows(session, name: str) -> dict:
    return {
        record.experiment_name.replace(name, "X"): record.state_vector
        for record in session.db.iter_experiments(name)
    }


class TestEnvFaultCampaignIntegration:
    def test_disabled_wrapper_rows_bit_identical(self, session):
        """No ``faults`` key and an all-zero-probability ``faults`` key
        must log byte-for-byte identical campaign rows."""
        for name, faults in (
            ("plain", None),
            ("zeroed", {"drop_probability": 0.0, "seed": 3}),
        ):
            pack = control_pack(faults, name)
            config = pack.resolve_campaign(session, name=name)
            session.setup_campaign(config)
            session.run_campaign(name)
        assert campaign_rows(session, "plain") == campaign_rows(session, "zeroed")

    def test_enabled_wrapper_changes_rows_deterministically(self, session):
        """Enabled env faults change results, and re-running with the
        same seeds reproduces them exactly."""
        faults = {
            "drop_probability": 0.2,
            "corrupt_probability": 0.2,
            "seed": 11,
        }
        for name in ("fault_a", "fault_b"):
            pack = control_pack(faults, name)
            config = pack.resolve_campaign(session, name=name)
            session.setup_campaign(config)
            session.run_campaign(name)
        assert campaign_rows(session, "fault_a") == campaign_rows(session, "fault_b")

        pack = control_pack(None, "clean")
        config = pack.resolve_campaign(session, name="clean")
        session.setup_campaign(config)
        session.run_campaign("clean")
        assert campaign_rows(session, "clean") != campaign_rows(session, "fault_a")

    def test_reference_run_stays_clean(self, session):
        """The reference row is fault-free even when the campaign arms
        aggressive environment faults: classification must always
        compare against an unfaulted baseline."""
        from repro.db import reference_name

        heavy = {"drop_probability": 0.9, "corrupt_probability": 0.9, "seed": 2}
        for name, faults in (("noisy", heavy), ("quiet", None)):
            pack = control_pack(faults, name, experiments=3)
            config = pack.resolve_campaign(session, name=name)
            session.setup_campaign(config)
            session.run_campaign(name)
        noisy_ref = session.db.load_experiment(reference_name("noisy"))
        quiet_ref = session.db.load_experiment(reference_name("quiet"))
        assert noisy_ref.state_vector == quiet_ref.state_vector

    def test_worker_count_invariance_with_env_faults(self, tmp_path):
        faults = {"drop_probability": 0.15, "delay_probability": 0.15, "seed": 4}

        def run(db_name: str, workers: int) -> dict:
            with GoofiSession(tmp_path / db_name) as session:
                pack = control_pack(faults, "wc", experiments=8)
                config = pack.resolve_campaign(session, name="wc")
                session.setup_campaign(config)
                session.run_campaign("wc", workers=workers)
                return campaign_rows(session, "wc")

        assert run("serial.db", workers=1) == run("sharded.db", workers=2)


class TestPackCLI:
    def write_pack(self, tmp_path, bounds: dict) -> str:
        pack = FaultPack.from_dict(
            pack_dict(sample_plan={"experiments": 25}, bounds=bounds)
        )
        path = tmp_path / "pack.yaml"
        save_pack(pack, path)
        return str(path)

    def test_pack_validate_and_show(self, tmp_path, capsys):
        from repro.cli.main import main

        path = self.write_pack(tmp_path, {"min_coverage": 0.05})
        assert main(["pack", "validate", path]) == 0
        assert "valid" in capsys.readouterr().out
        assert main(["pack", "show", path]) == 0
        assert json.loads(capsys.readouterr().out)["pack"] == "demo"

    def test_run_with_pack(self, tmp_path, capsys):
        from repro.cli.main import main

        path = self.write_pack(tmp_path, {"min_coverage": 0.05})
        db = str(tmp_path / "g.db")
        assert main(["run", "--pack", path, "--db", db, "--quiet"]) == 0
        assert "25/25 experiments" in capsys.readouterr().out

    def test_run_without_campaign_or_pack_errors(self, tmp_path, capsys):
        from repro.cli.main import main

        assert main(["run", "--db", str(tmp_path / "e.db"), "--quiet"]) == 1
        assert "--pack" in capsys.readouterr().err

    def test_gate_exit_codes_and_report(self, tmp_path, capsys):
        from repro.cli.main import main

        report = tmp_path / "report.json"
        healthy = self.write_pack(tmp_path, {"min_coverage": 0.05})
        code = main(
            ["gate", healthy, "--db", str(tmp_path / "a.db"), "--quiet",
             "--report", str(report)]
        )
        assert code == 0
        assert "PASSED" in capsys.readouterr().out
        assert json.loads(report.read_text())["passed"] is True

        tightened = self.write_pack(tmp_path, {"min_coverage": 0.999})
        code = main(["gate", tightened, "--db", str(tmp_path / "b.db"), "--quiet"])
        assert code == 2
        out = capsys.readouterr().out
        assert "FAILED" in out and "min_coverage" in out

    def test_gate_without_bounds_errors(self, tmp_path, capsys):
        from repro.cli.main import main

        pack = FaultPack.from_dict(pack_dict(bounds={}))
        path = tmp_path / "unbounded.yaml"
        save_pack(pack, path)
        assert main(["gate", str(path), "--db", str(tmp_path / "c.db")]) == 1
        assert "no dependability bounds" in capsys.readouterr().err

    def test_gate_experiments_override(self, tmp_path, capsys):
        from repro.cli.main import main

        path = self.write_pack(tmp_path, {"min_coverage": 0.01})
        code = main(
            ["gate", path, "--db", str(tmp_path / "d.db"), "--quiet",
             "--experiments", "10"]
        )
        assert code in (0, 2)  # small samples may legitimately miss the floor
        assert "campaign 'demo'" in capsys.readouterr().out


class TestThorSmPack:
    """A pack's campaign section may name its target; thor-sm packs
    validate, resolve on a thor-sm session, and gate through the CLI."""

    def sm_pack_dict(self, **bounds) -> dict:
        return pack_dict(
            pack="sm-demo",
            campaign={
                "target": "thor-sm",
                "technique": "swifi_preruntime",
                "workload": "s_checksum",
                "locations": ["memory:data"],
                "seed": 7,
            },
            sample_plan={"experiments": 20},
            bounds=bounds or {"min_coverage": 0.0, "coverage_basis": "estimate"},
        )

    def write_pack(self, tmp_path, **bounds) -> str:
        path = tmp_path / "sm-pack.yaml"
        save_pack(FaultPack.from_dict(self.sm_pack_dict(**bounds)), path)
        return str(path)

    def test_validates_and_round_trips(self):
        pack = FaultPack.from_dict(self.sm_pack_dict())
        assert pack.target == "thor-sm"
        assert FaultPack.from_dict(pack.to_dict()) == pack
        assert FaultPack.from_dict(pack_dict()).target == "thor-rd-sim"

    def test_unknown_target_rejected(self):
        data = self.sm_pack_dict()
        data["campaign"]["target"] = "pdp11"
        with pytest.raises(ConfigurationError, match="unknown target 'pdp11'"):
            FaultPack.from_dict(data)

    def test_resolves_on_its_target_only(self, session):
        pack = FaultPack.from_dict(self.sm_pack_dict())
        with pytest.raises(ConfigurationError, match="runs on target 'thor-sm'"):
            pack.resolve_campaign(session)
        with GoofiSession(target_name="thor-sm") as sm_session:
            config = pack.resolve_campaign(sm_session)
            assert config.target == "thor-sm"
            sm_session.setup_campaign(config)
            assert sm_session.db.list_campaigns() == ["sm-demo"]

    def test_gate_and_run_on_thor_sm(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "sm.db")
        assert main(["pack", "validate", self.write_pack(tmp_path)]) == 0
        assert "target 'thor-sm'" in capsys.readouterr().out
        assert main(["gate", self.write_pack(tmp_path), "--db", db, "--quiet"]) == 0
        assert "PASSED" in capsys.readouterr().out
        with GoofiDatabase(db) as stored:
            assert stored.load_campaign("sm-demo").target_name == "thor-sm"
        tightened = self.write_pack(tmp_path, min_coverage=0.999)
        code = main(["gate", tightened, "--db", db, "--name", "tight", "--quiet"])
        assert code == 2
        assert "FAILED" in capsys.readouterr().out
        code = main(["run", "--pack", self.write_pack(tmp_path), "--db", db,
                     "--name", "ran", "--quiet"])
        assert code == 0
        assert "20/20 experiments" in capsys.readouterr().out


class TestWorkloadSymbols:
    """Pack and CLI symbol lookups go through a target-neutral accessor."""

    @pytest.mark.parametrize(
        "target, workload, symbol",
        [("thor-rd-sim", "control_protected", "sensor"), ("thor-sm", "s_checksum", "acc")],
    )
    def test_resolves_on_both_targets(self, target, workload, symbol):
        with GoofiSession(target_name=target) as session:
            address = session.workload_symbol(workload, symbol)
            assert address == session.target._loaded.symbol(symbol)
            with pytest.raises(TargetError, match="no symbol 'missing'"):
                session.workload_symbol(workload, "missing")
