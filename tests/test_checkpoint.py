"""Tests for the checkpoint/fast-forward experiment engine.

The contract under test: a checkpointed campaign logs rows bit-identical
to the plain serial loop (only insertion order may differ — the plan is
run sorted by first-injection cycle), for every target and technique,
serial and parallel.  Plus unit coverage of the LRU cache and the
full-fidelity ``save_state``/``restore_state`` snapshots themselves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_campaign
from repro import CampaignConfig, GoofiSession, ObservationSpec, Termination
from repro.core.checkpoint import (
    CheckpointCache,
    first_injection_cycle,
    sort_plan_by_first_injection,
)
from repro.core.errors import ConfigurationError, TargetError
from repro.core.framework import TargetSystemInterface
from repro.core.plugins import create_target


def rows_by_name(db, campaign: str) -> dict:
    """Logged rows keyed by the campaign-relative experiment name,
    stripped of ``createdAt`` and insertion order."""
    return {
        record.experiment_name.split("/", 1)[1]: (
            record.experiment_data,
            record.state_vector,
            record.parent_experiment,
        )
        for record in db.iter_experiments(campaign)
    }


class TestCheckpointCache:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            CheckpointCache(capacity=0)

    def test_nearest_returns_newest_at_or_before(self):
        cache = CheckpointCache(capacity=4)
        cache.save(100, "s100")
        cache.save(300, "s300")
        assert cache.nearest(50) is None
        assert cache.nearest(100).state == "s100"
        assert cache.nearest(250).state == "s100"
        hit = cache.nearest(10_000)
        assert hit.cycle == 300 and hit.state == "s300"

    def test_has_and_len(self):
        cache = CheckpointCache(capacity=2)
        assert not cache.has(5)
        cache.save(5, "s")
        assert cache.has(5)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = CheckpointCache(capacity=2)
        cache.save(10, "a")
        cache.save(20, "b")
        cache.nearest(10)  # touch 10: now 20 is least recently used
        cache.save(30, "c")
        assert cache.has(10) and cache.has(30)
        assert not cache.has(20)
        assert cache.stats.evictions == 1

    def test_nearest_refreshes_recency_of_hot_prefix(self):
        """Sorted-plan access pattern at capacity 2: a prefix checkpoint
        that keeps serving hits must stay cached — ``nearest`` has to
        refresh LRU recency of the snapshot it returns, or insertion
        order would evict the hottest entry first."""
        cache = CheckpointCache(capacity=2)
        cache.save(100, "s100")
        cache.save(300, "s300")
        hit = cache.nearest(150)  # serves (and touches) 100
        assert hit.cycle == 100
        cache.save(500, "s500")  # must evict 300, the cold entry
        assert cache.has(100) and cache.has(500)
        assert not cache.has(300)
        assert cache.nearest(150).cycle == 100  # still a hit

    def test_stats_counters(self):
        cache = CheckpointCache(capacity=2)
        cache.save(10, "a")
        cache.nearest(15)
        cache.nearest(5)
        assert cache.stats.to_dict() == {
            "saves": 1,
            "restores": 1,
            "misses": 1,
            "evictions": 0,
        }


class TestPlanSorting:
    def test_plan_sorted_by_first_injection(self, session):
        config = make_campaign(session, "c", num_experiments=12, seed=7)
        trace = session.algorithms.make_reference_run(config)
        from repro.core.campaign import PlanGenerator

        plan = PlanGenerator(
            config, session.target.location_space(), trace
        ).generate()
        ordered = sort_plan_by_first_injection(plan, trace)
        cycles = [first_injection_cycle(spec, trace) for spec in ordered]
        assert cycles == sorted(cycles)
        assert sorted(s.name for s in ordered) == sorted(s.name for s in plan)


class TestSaveRestoreFidelity:
    """A restored target must be indistinguishable from one that
    simulated the prefix itself."""

    @pytest.mark.parametrize(
        "target_name,workload",
        [("thor-rd-sim", "fibonacci"), ("thor-sm", "s_checksum")],
    )
    def test_restore_then_run_matches_straight_run(self, target_name, workload):
        termination = Termination(max_cycles=100_000)
        target = create_target(target_name)
        target.init_test_card()
        target.load_workload(workload)
        target.run_workload()
        assert target.wait_for_breakpoint(50) is None
        snapshot = target.save_state()
        target.wait_for_termination(termination)
        reference_end = target.save_state()

        # Diverge the live state, then restore the snapshot and re-run:
        # the end state must be bit-identical to the straight run.
        data = target.location_space().region("data")
        target.write_memory(data.base, [0xDEAD])
        target.restore_state(snapshot)
        target.wait_for_termination(termination)
        assert target.save_state() == reference_end

    def test_thor_restore_covers_caches_and_counters(self):
        target = create_target("thor-rd-sim")
        target.init_test_card()
        target.load_workload("bubble_sort")
        target.run_workload()
        target.wait_for_breakpoint(400)
        snapshot = target.save_state()
        cpu = target.card.cpu
        baseline = (
            cpu.cycle,
            cpu.icache.hits,
            cpu.icache.misses,
            cpu.dcache.hits,
            list(cpu.regs),
            cpu.psw,
        )
        target.wait_for_breakpoint(900)  # diverge
        target.restore_state(snapshot)
        assert (
            cpu.cycle,
            cpu.icache.hits,
            cpu.icache.misses,
            cpu.dcache.hits,
            list(cpu.regs),
            cpu.psw,
        ) == baseline
        # The cached snapshot must not alias live state: running on must
        # leave the snapshot restorable a second time.
        target.wait_for_breakpoint(900)
        target.restore_state(snapshot)
        assert cpu.cycle == baseline[0]

    def test_stack_restore_covers_stacks_in_place(self):
        """The stack target's scan chains capture the exact stack list
        objects, so restore must update them in place."""
        target = create_target("thor-sm")
        target.init_test_card()
        target.load_workload("s_fib")
        machine = target.machine
        dstack_obj = machine.dstack
        target.run_workload()
        target.wait_for_breakpoint(30)
        snapshot = target.save_state()
        expected = list(machine.dstack)
        target.wait_for_breakpoint(200)
        target.restore_state(snapshot)
        assert machine.dstack is dstack_obj
        assert list(machine.dstack) == expected

    def test_unsupported_target_raises_target_error(self):
        class Dummy:
            target_name = "dummy"

        assert TargetSystemInterface.supports_checkpoints is False
        with pytest.raises(TargetError, match="does not support checkpointing"):
            TargetSystemInterface.save_state(Dummy())
        with pytest.raises(TargetError, match="does not support checkpointing"):
            TargetSystemInterface.restore_state(Dummy(), {})


class TestCampaignEquivalence:
    """Rows from checkpointed runs (serial and parallel) must be
    bit-identical to the plain serial loop."""

    def run_three_ways(self, build):
        with GoofiSession() as session:
            build(session, "plain")
            session.run_campaign("plain")
            reference = rows_by_name(session.db, "plain")

            build(session, "ckpt")
            result = session.run_campaign("ckpt", checkpoints=True)
            assert rows_by_name(session.db, "ckpt") == reference
            assert result.checkpoint_stats is not None

            build(session, "par")
            par = session.run_campaign("par", workers=2, checkpoints=True)
            assert rows_by_name(session.db, "par") == reference
            assert not par.aborted
        return result

    def test_scifi_thor(self):
        def build(session, name):
            make_campaign(
                session,
                name,
                workload="bubble_sort",
                num_experiments=14,
                injection_window=(10, 900),
                seed=41,
            )

        result = self.run_three_ways(build)
        assert result.checkpoint_stats["saves"] > 0
        assert result.checkpoint_stats["restores"] > 0

    def test_swifi_runtime_thor(self):
        def build(session, name):
            make_campaign(
                session,
                name,
                technique="swifi_runtime",
                locations=("memory:data", "internal:regs.*"),
                num_experiments=12,
                seed=42,
            )

        result = self.run_three_ways(build)
        assert result.checkpoint_stats["saves"] > 0

    def test_swifi_preruntime_thor(self):
        """Pre-runtime faults land before cycle 0 — nothing to skip, but
        the flag must be accepted and rows stay identical."""

        def build(session, name):
            make_campaign(
                session,
                name,
                technique="swifi_preruntime",
                locations=("memory:program", "memory:data"),
                num_experiments=8,
                seed=43,
            )

        self.run_three_ways(build)

    @pytest.mark.parametrize(
        "environment",
        [
            {"name": "dc_motor"},
            {"name": "water_tank"},
            {"name": "dc_motor", "faults": {"corrupt_probability": 0.3, "seed": 5}},
        ],
        ids=["dc_motor", "water_tank", "faulty_dc_motor"],
    )
    def test_environment_workload_thor(self, environment):
        """Checkpoints must snapshot the environment simulator too,
        including an environment fault layer's RNG stream."""
        from repro.workloads import load

        program = load("control_protected")

        def build(session, name):
            make_campaign(
                session,
                name,
                workload="control_protected",
                num_experiments=6,
                seed=44,
                termination=session.default_termination(
                    "control_protected", max_iterations=60
                ),
                environment={
                    **environment,
                    "params": {
                        "sensor_addr": program.symbol("sensor"),
                        "actuator_addr": program.symbol("actuator"),
                    },
                },
            )

        self.run_three_ways(build)

    def test_scifi_stack_target(self):
        def stack_config(session, name):
            session.target.init_test_card()
            session.target.load_workload("s_checksum")
            data = session.target.location_space().region("data")
            config = CampaignConfig(
                name=name,
                target="thor-sm",
                technique="scifi",
                workload="s_checksum",
                location_patterns=(
                    "internal:dstack.C0", "internal:dstack.C1",
                    "internal:ctrl.DSP", "internal:ctrl.PC",
                ),
                num_experiments=16,
                termination=Termination(max_cycles=5_000),
                observation=ObservationSpec(
                    scan_elements=("internal:ctrl.DSP",),
                    memory_ranges=((data.base, data.words),),
                ),
                seed=45,
            )
            session.setup_campaign(config)

        with GoofiSession(target_name="thor-sm") as session:
            stack_config(session, "plain")
            session.run_campaign("plain")
            reference = rows_by_name(session.db, "plain")

            stack_config(session, "ckpt")
            result = session.run_campaign("ckpt", checkpoints=True)
            assert rows_by_name(session.db, "ckpt") == reference
            assert result.checkpoint_stats is not None

            stack_config(session, "par")
            result = session.run_campaign("par", workers=2, checkpoints=True)
            assert rows_by_name(session.db, "par") == reference
            # Summed over the workers' caches.
            assert result.checkpoint_stats is not None
            assert result.checkpoint_stats["restores"] > 0

    def test_resume_with_checkpoints(self, session):
        make_campaign(session, "r1", num_experiments=10, seed=46)
        session.run_campaign("r1")
        reference = rows_by_name(session.db, "r1")

        make_campaign(session, "r2", num_experiments=10, seed=46)

        def abort_early(event):
            if event.completed >= 3:
                session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            first = session.run_campaign("r2", checkpoints=True)
        finally:
            session.progress.observers.remove(abort_early)
        assert first.aborted
        second = session.run_campaign("r2", resume=True, checkpoints=True)
        assert not second.aborted
        assert rows_by_name(session.db, "r2") == reference

    def test_no_checkpoint_run_reports_no_stats(self, session):
        make_campaign(session, "c", num_experiments=4, seed=47)
        result = session.run_campaign("c")
        assert result.checkpoint_stats is None

    def test_capacity_one_still_identical(self, session):
        make_campaign(session, "plain", num_experiments=10, seed=48)
        session.run_campaign("plain")
        make_campaign(session, "tiny", num_experiments=10, seed=48)
        session.algorithms.checkpoint_capacity = 1
        try:
            result = session.run_campaign("tiny", checkpoints=True)
        finally:
            session.algorithms.checkpoint_capacity = 8
        assert rows_by_name(session.db, "tiny") == rows_by_name(
            session.db, "plain"
        )
        assert result.checkpoint_stats["saves"] > 0


class TestCheckpointProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        window_start=st.integers(min_value=1, max_value=150),
    )
    def test_rows_bit_identical_for_any_window(self, seed, window_start):
        """Property: for any seed and injection window, the checkpointed
        serial run logs exactly the rows of the plain serial run."""
        with GoofiSession() as session:
            make_campaign(
                session,
                "plain",
                num_experiments=5,
                seed=seed,
                injection_window=(window_start, window_start + 300),
            )
            session.run_campaign("plain")
            make_campaign(
                session,
                "ckpt",
                num_experiments=5,
                seed=seed,
                injection_window=(window_start, window_start + 300),
            )
            session.run_campaign("ckpt", checkpoints=True)
            assert rows_by_name(session.db, "ckpt") == rows_by_name(
                session.db, "plain"
            )
