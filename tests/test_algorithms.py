"""Tests for the fault-injection algorithms (paper Figure 2)."""

from __future__ import annotations

from unittest import mock

import pytest

from tests.conftest import make_campaign
from repro.core.campaign import ExperimentSpec, PlanGenerator, PlannedFault, experiment_name
from repro.core.errors import ConfigurationError
from repro.core.faultmodels import IntermittentBitFlip, StuckAt
from repro.core.framework import ObservationSpec
from repro.core.locations import KIND_MEMORY, Location
from repro.core.triggers import TimeTrigger
from repro.db import reference_name
from repro.workloads import load


class TestReferenceRun:
    def test_reference_logged_first(self, session):
        config = make_campaign(session, "c", num_experiments=3)
        session.run_campaign("c")
        reference = session.db.load_experiment(reference_name("c"))
        assert reference.experiment_data["technique"] == "reference"
        assert reference.state_vector["termination"]["outcome"] == "workload_end"

    def test_reference_trace_retained(self, session):
        make_campaign(session, "c", num_experiments=1)
        session.run_campaign("c")
        trace = session.algorithms.reference_trace
        assert trace is not None
        assert trace.duration > 0
        assert len(trace.instructions) == trace.duration

    def test_reference_must_finish_cleanly(self, session):
        from repro.core import Termination

        config = make_campaign(
            session,
            "c",
            num_experiments=1,
            termination=Termination(max_cycles=5),  # absurdly tight watchdog
        )
        with pytest.raises(ConfigurationError, match="did not finish cleanly"):
            session.run_campaign("c")


class TestScifiCampaign:
    def test_all_experiments_logged(self, session):
        make_campaign(session, "c", num_experiments=15)
        result = session.run_campaign("c")
        assert result.experiments_run == 15
        assert not result.aborted
        # 15 experiments + 1 reference row.
        assert session.db.count_experiments("c") == 16
        assert session.db.load_campaign("c").status == "completed"

    def test_experiment_data_records_faults(self, session):
        make_campaign(session, "c", num_experiments=5)
        session.run_campaign("c")
        record = session.db.load_experiment(experiment_name("c", 0))
        faults = record.experiment_data["faults"]
        assert len(faults) == 1
        assert faults[0]["applied"] is True
        assert faults[0]["location"]["chain"] == "internal"
        assert "injection_cycle" in faults[0]

    def test_campaign_is_reproducible(self, session):
        """Same seed, same campaign → byte-identical experiment data and
        state vectors (the property the parentExperiment workflow needs)."""
        make_campaign(session, "a", num_experiments=10, seed=77)
        make_campaign(session, "b", num_experiments=10, seed=77)
        session.run_campaign("a")
        session.run_campaign("b")
        for i in range(10):
            record_a = session.db.load_experiment(experiment_name("a", i))
            record_b = session.db.load_experiment(experiment_name("b", i))
            assert record_a.experiment_data["faults"] == record_b.experiment_data["faults"]
            assert record_a.state_vector == record_b.state_vector

    def test_injected_flip_visible_when_dormant(self, session):
        """A flip in a register the workload never touches must persist
        to the final state (observable as a latent error)."""
        from repro.core import TimeTrigger
        from repro.core.campaign import ExperimentSpec, PlannedFault
        from repro.core.faultmodels import TransientBitFlip
        from repro.core.locations import Location

        config = make_campaign(session, "c", workload="fibonacci", num_experiments=1)
        trace = session.algorithms.make_reference_run(config)
        spec = ExperimentSpec(
            name="c/manual",
            index=0,
            faults=(
                PlannedFault(
                    location=Location(
                        kind="scan", chain="internal", element="regs.R11", bit=4
                    ),
                    trigger=TimeTrigger(10),
                    model=TransientBitFlip(),
                ),
            ),
            seed=1,
        )
        record = session.algorithms._run_scifi_experiment(config, spec, trace)
        final = record.state_vector["final"]
        assert final["scan"]["internal:regs.R11"] == 1 << 4

    def test_multi_flip_schedule_ordered(self, session):
        make_campaign(session, "c", num_experiments=5, flips_per_experiment=3)
        session.run_campaign("c")
        record = session.db.load_experiment(experiment_name("c", 2))
        cycles = [f["injection_cycle"] for f in record.experiment_data["faults"]]
        assert cycles == sorted(cycles)

    def test_wrong_target_rejected(self, session):
        make_campaign(session, "c")
        session.target.target_name = "other-target"
        try:
            with pytest.raises(ConfigurationError, match="targets"):
                session.run_campaign("c")
        finally:
            session.target.target_name = "thor-rd-sim"


class TestSwifiCampaigns:
    def test_preruntime_corrupts_image(self, session):
        make_campaign(
            session,
            "pre",
            technique="swifi_preruntime",
            locations=("memory:program", "memory:data"),
            num_experiments=10,
        )
        result = session.run_campaign("pre")
        assert result.experiments_run == 10
        record = session.db.load_experiment(experiment_name("pre", 0))
        assert record.experiment_data["faults"][0]["location"]["kind"] == "memory"
        assert record.experiment_data["faults"][0]["injection_cycle"] == 0

    def test_runtime_reaches_memory_and_registers(self, session):
        make_campaign(
            session,
            "rt",
            technique="swifi_runtime",
            locations=("memory:data", "internal:regs.*"),
            num_experiments=20,
        )
        result = session.run_campaign("rt")
        assert result.experiments_run == 20
        kinds = set()
        for i in range(20):
            record = session.db.load_experiment(experiment_name("rt", i))
            kinds.add(record.experiment_data["faults"][0]["location"]["kind"])
        assert kinds == {"memory", "scan"}


class TestFaultModels:
    def test_stuck_at_campaign_runs(self, session):
        make_campaign(session, "sa", num_experiments=10, fault_model=StuckAt(1))
        result = session.run_campaign("sa")
        assert result.experiments_run == 10

    def test_stuck_at_zero_on_loaded_register_changes_result(self, session):
        """Stuck-at-0 on a low bit of R1 during fibonacci must corrupt
        the accumulating sum (effective error)."""
        from repro.analysis import classify_campaign

        make_campaign(
            session,
            "sa0",
            workload="fibonacci",
            locations=("internal:regs.R1",),
            num_experiments=15,
            fault_model=StuckAt(0),
            injection_window=(1, 50),
        )
        session.run_campaign("sa0")
        classification = classify_campaign(session.db, "sa0")
        assert classification.effective > 0

    def test_intermittent_campaign_runs(self, session):
        make_campaign(
            session,
            "im",
            num_experiments=10,
            fault_model=IntermittentBitFlip(duration=200, activity=0.1),
        )
        result = session.run_campaign("im")
        assert result.experiments_run == 10

    @pytest.mark.parametrize("technique", ["swifi_preruntime", "swifi_runtime"])
    def test_memory_stuck_at_zero_forces_its_bit(self, session, technique):
        """A stuck-at-0 memory fault forces its bit for the run: a set
        bit reads 0 afterwards, a clear one leaves the word unchanged.
        ``crc32`` only reads its input words, so each keeps its image
        value in a fault-free run."""
        program = load("crc32")
        address, word = program.data_base, program.data[0]
        assert word & 8 and not word & 1
        for bit, expected in ((3, word & ~8), (0, word)):
            name = f"{technique}{bit}"
            make_campaign(
                session, name, workload="crc32", technique=technique,
                locations=("memory:data",), num_experiments=1,
                fault_model=StuckAt(0),
                observation=ObservationSpec(memory_ranges=((address, 1),)),
            )
            fault = PlannedFault(
                Location(kind=KIND_MEMORY, address=address, bit=bit),
                TimeTrigger(0 if technique == "swifi_preruntime" else 1),
                StuckAt(0),
            )
            spec = ExperimentSpec(experiment_name(name, 0), 0, (fault,), 1)
            with mock.patch.object(PlanGenerator, "generate", lambda _: [spec]):
                session.run_campaign(name)
            row = session.db.load_experiment(experiment_name(name, 0))
            assert row.state_vector["final"]["memory"] == {str(address): expected}


class TestDetailMode:
    def test_detail_mode_logs_steps(self, session):
        make_campaign(
            session,
            "d",
            num_experiments=2,
            logging_mode="detail",
            injection_window=(1, 50),  # early injection -> long logged tail
        )
        session.run_campaign("d")
        reference = session.db.load_experiment(reference_name("d"))
        assert "steps" in reference.state_vector
        record = session.db.load_experiment(experiment_name("d", 0))
        steps = record.state_vector["steps"]
        assert len(steps) > 10
        assert steps[0]["cycle"] < steps[-1]["cycle"]

    def test_detail_period_thins_logging(self, session):
        make_campaign(
            session, "d1", num_experiments=1, logging_mode="detail",
            injection_window=(1, 50),
        )
        make_campaign(
            session, "d5", num_experiments=1, logging_mode="detail",
            detail_period=5, injection_window=(1, 50),
        )
        session.run_campaign("d1")
        session.run_campaign("d5")
        steps_1 = session.db.load_experiment(experiment_name("d1", 0)).state_vector["steps"]
        steps_5 = session.db.load_experiment(experiment_name("d5", 0)).state_vector["steps"]
        assert len(steps_5) <= len(steps_1) // 4

    def test_detail_period_counts_executed_instructions(self, session):
        """``detail_period`` thins by *executed instructions*, not by
        cycles: the period-N run logs exactly every Nth sample of the
        period-1 run (plus the termination sample), whatever cycle
        stride each instruction produces."""
        make_campaign(
            session, "p1", num_experiments=1, logging_mode="detail",
            injection_window=(1, 50),
        )
        make_campaign(
            session, "p3", num_experiments=1, logging_mode="detail",
            detail_period=3, injection_window=(1, 50),
        )
        session.run_campaign("p1")
        session.run_campaign("p3")
        cycles_1 = [
            s["cycle"]
            for s in session.db.load_experiment(
                experiment_name("p1", 0)
            ).state_vector["steps"]
        ]
        cycles_3 = [
            s["cycle"]
            for s in session.db.load_experiment(
                experiment_name("p3", 0)
            ).state_vector["steps"]
        ]
        # Every 3rd executed instruction of the period-1 log...
        expected = cycles_1[2::3]
        assert cycles_3[: len(expected)] == expected
        # ...plus at most the extra termination sample.
        assert cycles_3[len(expected):] in ([], [cycles_1[-1]])

    def test_rerun_detailed_links_parent(self, session):
        make_campaign(session, "c", num_experiments=3)
        session.run_campaign("c")
        original = experiment_name("c", 1)
        record = session.algorithms.rerun_experiment_detailed(original)
        assert record.parent_experiment == original
        assert "steps" in record.state_vector
        # The re-run reproduces the parent's fault exactly.
        parent = session.db.load_experiment(original)
        rerun_faults = record.experiment_data["faults"]
        parent_faults = parent.experiment_data["faults"]
        assert [f["location"] for f in rerun_faults] == [
            f["location"] for f in parent_faults
        ]
        # And reaches the same final state.
        assert record.state_vector["final"] == parent.state_vector["final"]

    def test_rerun_after_other_campaign_records_fresh_trace(self, session):
        """Regression: the detail re-run caches the reference trace on
        the algorithms object.  After running a *different* campaign on
        the same session, a re-run must not resolve the parent's
        triggers against the other campaign's stale trace."""
        make_campaign(
            session, "a", workload="fibonacci", num_experiments=3,
            time_strategy="branch",
        )
        session.run_campaign("a")
        original = experiment_name("a", 1)
        parent = session.db.load_experiment(original)
        # Poison the cached trace with another workload's execution.
        make_campaign(session, "other", workload="crc32", num_experiments=2)
        session.run_campaign("other")
        record = session.algorithms.rerun_experiment_detailed(original)
        assert [f["injection_cycle"] for f in record.experiment_data["faults"]] == [
            f["injection_cycle"] for f in parent.experiment_data["faults"]
        ]
        assert record.state_vector["final"] == parent.state_vector["final"]

    def test_rerun_twice_reuses_matching_trace(self, session):
        """The cache still helps when it is valid: two re-runs from the
        same campaign give identical records."""
        make_campaign(session, "a", num_experiments=3)
        session.run_campaign("a")
        first = session.algorithms.rerun_experiment_detailed(
            experiment_name("a", 0), new_experiment_name="a/exp00000/d1"
        )
        second = session.algorithms.rerun_experiment_detailed(
            experiment_name("a", 0), new_experiment_name="a/exp00000/d2"
        )
        assert first.state_vector == second.state_vector


class TestProgressControl:
    def test_abort_stops_campaign(self, session):
        make_campaign(session, "c", num_experiments=50)
        stop_after = 10

        def maybe_abort(event):
            if event.completed >= stop_after:
                session.progress.end()

        session.progress.observers.append(maybe_abort)
        result = session.run_campaign("c")
        assert result.aborted
        assert result.experiments_run == stop_after
        assert session.db.load_campaign("c").status == "aborted"

    def test_progress_counts_match(self, session):
        events = []
        session.progress.observers.append(events.append)
        make_campaign(session, "c", num_experiments=7)
        session.run_campaign("c")
        assert [e.completed for e in events] == list(range(1, 8))


class TestEnvironmentCampaign:
    def test_control_campaign_with_dc_motor(self, session):
        from repro.workloads import load

        program = load("control_protected")
        make_campaign(
            session,
            "ctl",
            workload="control_protected",
            num_experiments=5,
            termination=session.default_termination(
                "control_protected", max_iterations=60
            ),
            observation=session.default_observation("control_protected"),
            environment={
                "name": "dc_motor",
                "params": {
                    "sensor_addr": program.symbol("sensor"),
                    "actuator_addr": program.symbol("actuator"),
                },
            },
        )
        result = session.run_campaign("ctl")
        assert result.experiments_run == 5
        reference = session.db.load_experiment(reference_name("ctl"))
        outputs = reference.state_vector["final"]["outputs"]
        assert len([1 for _c, p, _v in outputs if p == 1]) == 60


class TestCampaignLoopCrashSafety:
    """Regression: a ``run_experiment`` crash mid-campaign used to lose
    up to 63 batched pending records and leave the campaign status stuck
    at ``"running"``."""

    def _run_with_crash_at(self, session, monkeypatch, crash_index: int, **run):
        from repro.core.algorithms import FaultInjectionAlgorithms

        original = FaultInjectionAlgorithms._run_scifi_experiment
        calls = {"n": 0}

        def crashing(self, config, spec, trace):
            calls["n"] += 1
            if calls["n"] == crash_index + 1:  # crash exactly once
                raise RuntimeError("target wedged mid-campaign")
            return original(self, config, spec, trace)

        monkeypatch.setattr(
            FaultInjectionAlgorithms, "_run_scifi_experiment", crashing
        )
        with pytest.raises(RuntimeError, match="wedged"):
            session.run_campaign("c", **run)

    def test_pending_records_flushed_and_status_aborted(self, session, monkeypatch):
        make_campaign(session, "c", num_experiments=20, seed=71)
        self._run_with_crash_at(session, monkeypatch, crash_index=7)
        # 7 completed experiments (all < the 64-record batch) + reference.
        assert session.db.count_experiments("c") == 8
        assert session.db.load_campaign("c").status == "aborted"

    def test_observations_flushed_through_the_bus(self, session, monkeypatch):
        """Spans and resource samples reach the database through the
        event bus subscriber, whose queue the same crash-safe flush
        writes."""
        make_campaign(session, "c", num_experiments=20, seed=71)
        self._run_with_crash_at(
            session, monkeypatch, crash_index=7, telemetry="spans", resources=True
        )
        assert session.db.count_spans("c") == 7
        assert session.db.count_resource_samples("c") >= 1
        assert session.db.load_campaign("c").status == "aborted"

    def test_crashed_campaign_is_resumable(self, session, monkeypatch):
        make_campaign(session, "c", num_experiments=12, seed=72)
        self._run_with_crash_at(session, monkeypatch, crash_index=5)
        result = session.run_campaign("c", resume=True)
        assert result.experiments_run == 7
        assert session.db.count_experiments("c") == 13
        assert session.db.load_campaign("c").status == "completed"
