"""Tests for liveness-based experiment pruning (repro.core.liveness).

The load-bearing property: a pruned campaign logs **bit-identical**
experiment rows to an unpruned one, in every execution mode — pruned
experiments are synthesised, never guessed.  The spot-check safety net
turns any classifier mistake into a hard campaign failure.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import make_campaign
from repro import CampaignConfig, GoofiSession
from repro.analysis.classify import ReferenceState
from repro.core import DEFAULT_SPOT_CHECK_RATE
from repro.core.campaign import ExperimentSpec, PlannedFault
from repro.core.errors import ConfigurationError
from repro.core.faultmodels import IntermittentBitFlip, StuckAt, TransientBitFlip
from repro.core.framework import ObservationSpec, Termination
from repro.core.liveness import (
    ExperimentClassifier,
    PruneConfig,
    PruneDivergence,
    build_prune_plan,
    resolve_prune,
    synthesize_record,
)
from repro.core.locations import KIND_SCAN, Location, LocationSpace, ScanElementInfo
from repro.core.triggers import END, ReferenceTrace, TimeTrigger
from repro.db import ExperimentRecord
from repro.targets.thor import ThorTargetInterface


def logged_rows(session: GoofiSession, name: str) -> list[tuple]:
    """All experiment rows, sorted by name, excluding provenance
    columns (timestamps, the pruned flag): content is what must match."""
    return sorted(
        (
            e.experiment_name,
            json.dumps(e.state_vector, sort_keys=True),
            json.dumps(e.experiment_data, sort_keys=True),
        )
        for e in session.db.iter_experiments(name)
    )


def run_campaign(name="c", prune=None, technique="scifi",
                 locations=("internal:regs.*",), num_experiments=24,
                 seed=1234, **run_kwargs):
    with GoofiSession() as session:
        make_campaign(
            session, name, technique=technique, locations=locations,
            num_experiments=num_experiments, seed=seed,
        )
        result = session.run_campaign(name, prune=prune, **run_kwargs)
        return result, logged_rows(session, name)


class TestResolvePrune:
    def test_off(self):
        assert resolve_prune(None) is None
        assert resolve_prune(False) is None

    def test_default(self):
        config = resolve_prune(True)
        assert config == PruneConfig()
        assert config.spot_check_rate == DEFAULT_SPOT_CHECK_RATE

    def test_rate_and_dict_and_passthrough(self):
        assert resolve_prune(0.25).spot_check_rate == 0.25
        assert resolve_prune(1).spot_check_rate == 1.0
        config = PruneConfig(spot_check_rate=0.5)
        assert resolve_prune(config) is config
        assert resolve_prune(config.to_dict()) == config

    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError, match="spot-check rate"):
            resolve_prune(1.5)
        with pytest.raises(ConfigurationError, match="spot-check rate"):
            resolve_prune(-0.1)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="prune must be"):
            resolve_prune("often")


class TestLivenessPrimitives:
    # A register written at 10, read at 20, written at 30, and never
    # touched again, in a 50-cycle run.
    EVENTS = [(10, "write"), (20, "read"), (30, "write")]
    R1 = Location(kind=KIND_SCAN, chain="internal", element="regs.R1", bit=0)

    def trace(self, events, duration=50):
        return ReferenceTrace(
            reg_accesses=[(cycle, kind, 1) for cycle, kind in events],
            duration=duration,
        )

    def dead_cycles(self, events, duration=50):
        trace = self.trace(events, duration)
        return [
            cycle for cycle in range(duration)
            if trace.next_access(self.R1, cycle)[1] == "write"
        ]

    def test_next_access(self):
        trace = self.trace(self.EVENTS)
        assert trace.next_access(self.R1, 0) == (10, "write")
        assert trace.next_access(self.R1, 10) == (10, "write")
        assert trace.next_access(self.R1, 11) == (20, "read")
        assert trace.next_access(self.R1, 21) == (30, "write")
        assert trace.next_access(self.R1, 31) == (50, END)

    def test_dead_windows(self):
        # Flips in [0, 11) die at the write of cycle 10; flips in
        # [21, 31) die at the write of cycle 30.  The tail after cycle
        # 30 is NOT dead: a flip there is latent in the final capture.
        assert self.dead_cycles(self.EVENTS) == [*range(0, 11), *range(21, 31)]

    def test_dead_windows_clamped_to_duration(self):
        # The write at 10 lies past the end of an 8-cycle run: a fault at
        # cycle 8 is not pruned, one at cycle 7 is.
        trace = self.trace([(10, "write")], duration=8)
        config = CampaignConfig(
            name="c", target="t", technique="scifi", workload="w",
            location_patterns=("internal:regs.*",), num_experiments=1,
            termination=Termination(max_cycles=100), observation=ObservationSpec(),
        )
        space = LocationSpace(
            scan_elements=[ScanElementInfo("internal", "regs.R1", 32, True)],
            memory_regions=[],
        )
        classifier = ExperimentClassifier(config, trace, space)

        def spec(cycle):
            fault = PlannedFault(self.R1, TimeTrigger(cycle), TransientBitFlip())
            return ExperimentSpec(name="e", index=0, faults=(fault,), seed=0)

        assert classifier.prunable(spec(7))
        assert not classifier.prunable(spec(8))

    def test_read_before_write_at_same_cycle_blocks(self):
        # Reads precede writes at the same cycle (read-modify-write), so
        # the cycle of an RMW is live.
        events = [(10, "read"), (10, "write")]
        assert self.trace(events).next_access(self.R1, 10) == (10, "read")
        assert self.dead_cycles(events, 20) == []

    def test_adjacent_windows_merge(self):
        events = [(5, "write"), (11, "write")]
        assert self.dead_cycles(events, 20) == list(range(0, 12))


class TestClassifier:
    def make_inputs(self, session, name="c", **overrides):
        config = make_campaign(session, name, **overrides)
        trace = session.algorithms.make_reference_run(config)
        return config, trace, session.target.location_space()

    def test_detail_logging_disables(self, session):
        config, trace, space = self.make_inputs(
            session, logging_mode="detail"
        )
        classifier = ExperimentClassifier(config, trace, space)
        assert not classifier.enabled
        assert "detail logging" in classifier.disabled_reason

    def test_next_access_matches_trace(self, session):
        config, trace, space = self.make_inputs(session)
        registers = sorted({register for _, _, register in trace.reg_accesses})
        assert registers
        for register in registers:
            location = Location(
                kind=KIND_SCAN, chain="internal", element=f"regs.R{register}", bit=0
            )
            events = [
                (cycle, kind)
                for cycle, kind, reg in trace.reg_accesses
                if reg == register
            ]
            assert trace.events(location) == events
            for cycle, _kind in events:
                assert trace.next_access(location, cycle) == next(
                    event for event in events if event[0] >= cycle
                )
            assert trace.next_access(location, events[-1][0] + 1) == (
                trace.duration, END
            )

    def test_some_experiments_prune_on_fibonacci(self, session):
        from repro.core.campaign import PlanGenerator

        config, trace, space = self.make_inputs(
            session, num_experiments=30
        )
        plan = PlanGenerator(config, space, trace).generate()
        classifier = ExperimentClassifier(config, trace, space)
        pruned = [spec for spec in plan if classifier.prunable(spec)]
        assert 0 < len(pruned) < len(plan)


def register_flip(register: int, bit: int, cycle: int, model=None) -> PlannedFault:
    return PlannedFault(
        location=Location(
            kind=KIND_SCAN, chain="internal", element=f"regs.R{register}", bit=bit
        ),
        trigger=TimeTrigger(cycle),
        model=model or TransientBitFlip(),
    )


def spec_of(*faults: PlannedFault) -> ExperimentSpec:
    return ExperimentSpec(name="c/exp00000", index=0, faults=faults, seed=0)


class TestLatentTail:
    """Flips the golden run never touches again: no register access at
    or after the injection cycle.  They are prunable; their rows carry
    the flip in the final scan capture."""

    # R3: written at 10, read at 20, written at 30, then untouched.  R4:
    # read-modify-written at 40.  R5 is never accessed.  50-cycle run.
    TRACE_EVENTS = [
        (10, "write", 3), (20, "read", 3), (30, "write", 3),
        (40, "read", 4), (40, "write", 4),
    ]
    FINAL = {
        "cycle": 50,
        "iteration": 0,
        "memory": {"4096": 17},
        "outputs": [[12, 1, 5]],
        "pc": 9,
        "scan": {"internal:regs.R3": 0b1010, "internal:regs.R4": 7},
    }
    TERMINATION = {"outcome": "workload_end", "cycle": 50}

    @pytest.fixture
    def inputs(self, session):
        config = make_campaign(session, "c")
        trace = ReferenceTrace(reg_accesses=list(self.TRACE_EVENTS), duration=50)
        reference = ExperimentRecord(
            experiment_name="c/__reference__",
            campaign_name="c",
            experiment_data={},
            state_vector={
                "termination": dict(self.TERMINATION),
                "final": json.loads(json.dumps(self.FINAL)),
            },
        )
        return config, trace, session.target.location_space(), reference

    def prunable(self, inputs, *faults) -> bool:
        config, trace, space, _reference = inputs
        return ExperimentClassifier(config, trace, space).prunable(spec_of(*faults))

    def synthesise(self, inputs, *faults) -> ExperimentRecord:
        config, trace, _space, reference = inputs
        return synthesize_record(config, spec_of(*faults), trace, reference)

    # -- classifier ------------------------------------------------------
    def test_no_access_after_injection_is_prunable(self, inputs):
        assert self.prunable(inputs, register_flip(3, 0, 31))
        assert self.prunable(inputs, register_flip(3, 0, 49))
        assert self.prunable(inputs, register_flip(4, 0, 41))
        # Never accessed at all.
        assert self.prunable(inputs, register_flip(5, 0, 0))

    def test_read_next_is_not_prunable(self, inputs):
        assert not self.prunable(inputs, register_flip(3, 0, 11))
        assert not self.prunable(inputs, register_flip(3, 0, 20))

    def test_read_modify_write_next_is_not_prunable(self, inputs):
        assert not self.prunable(inputs, register_flip(4, 0, 31))
        assert not self.prunable(inputs, register_flip(4, 0, 40))

    def test_cycle_at_duration_is_not_prunable(self, inputs):
        assert not self.prunable(inputs, register_flip(3, 0, 50))
        assert not self.prunable(inputs, register_flip(5, 0, 50))

    def test_permanent_and_intermittent_are_not_prunable(self, inputs):
        for model in (StuckAt(value=1), IntermittentBitFlip(duration=5)):
            assert not self.prunable(inputs, register_flip(3, 0, 45, model))
            assert not self.prunable(inputs, register_flip(5, 0, 10, model))

    # -- synthesis -------------------------------------------------------
    def test_row_carries_the_flip(self, inputs):
        record = self.synthesise(inputs, register_flip(3, 0, 45))
        final = record.state_vector["final"]
        assert final["scan"] == {
            "internal:regs.R3": 0b1011, "internal:regs.R4": 7,
        }
        assert {k: v for k, v in final.items() if k != "scan"} == {
            k: v for k, v in self.FINAL.items() if k != "scan"
        }
        assert record.state_vector["termination"] == self.TERMINATION
        assert record.pruned
        # The reference row itself is untouched.
        reference = inputs[3]
        assert reference.state_vector["final"] == self.FINAL

    def test_unobserved_register_gives_reference_final(self, inputs):
        reference = inputs[3]
        record = self.synthesise(inputs, register_flip(5, 2, 45))
        assert record.state_vector["final"] is reference.state_vector["final"]

    def test_dead_window_flip_gives_reference_final(self, inputs):
        reference = inputs[3]
        record = self.synthesise(inputs, register_flip(3, 0, 25))
        assert record.state_vector["final"] is reference.state_vector["final"]

    def test_adjacent_burst_xors_both_bits(self, inputs):
        record = self.synthesise(
            inputs, register_flip(3, 1, 45), register_flip(3, 2, 45)
        )
        assert record.state_vector["final"]["scan"]["internal:regs.R3"] == 0b1100

    def test_same_bit_twice_cancels(self, inputs):
        reference = inputs[3]
        record = self.synthesise(
            inputs, register_flip(3, 0, 41), register_flip(3, 0, 45)
        )
        assert record.state_vector["final"] == reference.state_vector["final"]

    def test_plan_rows_encode_like_to_row(self, inputs):
        """The prune plan encodes each row from the reference's shared
        encoding; the bytes equal a plain :meth:`ExperimentRecord.to_row`,
        and the row is classified like any other."""
        config, trace, space, reference = inputs
        specs = [
            ExperimentSpec(f"c/exp{i:05d}", i, faults, seed=i)
            for i, faults in enumerate([
                (register_flip(3, 0, 45),),
                (register_flip(3, 0, 25),),
                (register_flip(5, 0, 45),),
                (register_flip(3, 1, 45), register_flip(3, 2, 45)),
                (register_flip(3, 0, 11),),
            ])
        ]
        plan = build_prune_plan(
            config, trace, space, specs, PruneConfig(0.0), reference
        )
        assert [spec.name for spec in plan.to_run] == ["c/exp00004"]
        assert plan.latent == 2
        assert plan.report()["latent"] == 2
        for spec in specs[:4]:
            row = plan.rows[spec.name]
            expected = ReferenceState.of(reference.state_vector).row(
                synthesize_record(config, spec, trace, reference)
            )
            # Everything but the createdAt timestamp.
            assert row[:5] + row[6:] == expected[:5] + expected[6:]
        assert plan.upfront_records() == [plan.rows[s.name] for s in specs[:4]]


def control_campaign(session: GoofiSession, name: str = "ctl", seed: int = 2001,
                     num_experiments: int = 60):
    """The benchmark's thor-rd shape, small: ``control_protected`` with
    the ``dc_motor`` plant, flips anywhere in the register file."""
    from repro.workloads import load

    program = load("control_protected")
    return make_campaign(
        session, name,
        workload="control_protected",
        num_experiments=num_experiments,
        seed=seed,
        termination=session.default_termination(
            "control_protected", max_iterations=20
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


def run_control(target=None, **run_kwargs):
    with GoofiSession(target=target) as session:
        control_campaign(session)
        result = session.run_campaign("ctl", **run_kwargs)
        return result, logged_rows(session, "ctl")


class TestLatentTailCampaigns:
    """Every engine configuration: at spot-check 1.0 every pruned row —
    latent ones included — is re-simulated and must match; the logged
    rows equal an unpruned run's."""

    @pytest.fixture(scope="class")
    def baseline(self):
        _result, rows = run_control()
        return rows

    @pytest.fixture(scope="class")
    def parity_baseline(self):
        _result, rows = run_control(ThorTargetInterface(register_parity=True))
        return rows

    def check(self, result, rows, baseline):
        prune = result.prune
        assert prune["divergences"] == 0
        assert prune["spot_checks"] == prune["pruned"]
        assert prune["latent"] > 0
        assert rows == baseline

    def test_serial_checkpoints(self, baseline):
        self.check(*run_control(prune=1.0, checkpoints=True), baseline)

    def test_parallel_checkpoints(self, baseline):
        self.check(
            *run_control(prune=1.0, checkpoints=True, workers=2), baseline
        )

    def test_reference_loop(self, baseline):
        self.check(*run_control(prune=1.0, fast=False), baseline)

    def test_register_parity(self, parity_baseline):
        self.check(
            *run_control(ThorTargetInterface(register_parity=True), prune=1.0),
            parity_baseline,
        )

    def test_skipped_rows_equal_unpruned(self, baseline):
        result, rows = run_control(prune=0.0, checkpoints=True)
        assert result.prune["skipped"] == result.prune["pruned"]
        assert result.prune["latent"] > 0
        assert rows == baseline


class TestRowEquivalence:
    """Pruned rows must be bit-identical to unpruned rows in every
    engine, at every spot-check rate."""

    @pytest.fixture(scope="class")
    def baseline(self):
        _result, rows = run_campaign()
        return rows

    def test_serial_full_spot_check(self, baseline):
        result, rows = run_campaign(prune=1.0)
        assert result.prune["pruned"] > 0
        assert result.prune["divergences"] == 0
        assert result.prune["spot_checks"] == result.prune["pruned"]
        assert rows == baseline

    def test_serial_no_spot_check(self, baseline):
        result, rows = run_campaign(prune=0.0)
        assert result.prune["skipped"] == result.prune["pruned"] > 0
        assert rows == baseline

    def test_parallel(self, baseline):
        result, rows = run_campaign(prune=0.0, workers=2)
        assert result.prune["skipped"] > 0
        assert rows == baseline

    def test_checkpointed(self, baseline):
        _result, rows = run_campaign(prune=0.0, checkpoints=True)
        assert rows == baseline

    def test_reference_loop(self, baseline):
        _result, rows = run_campaign(prune=0.0, fast=False)
        assert rows == baseline

    def test_swifi_preruntime_memory(self):
        _result, baseline = run_campaign(
            technique="swifi_preruntime", locations=("memory:data",),
            num_experiments=20, seed=5,
        )
        result, rows = run_campaign(
            technique="swifi_preruntime", locations=("memory:data",),
            num_experiments=20, seed=5, prune=1.0,
        )
        assert result.prune["pruned"] > 0
        assert result.prune["divergences"] == 0
        assert rows == baseline

    def test_pruned_flag_marks_synthesised_rows(self):
        with GoofiSession() as session:
            make_campaign(session, "c", num_experiments=24)
            result = session.run_campaign("c", prune=0.0)
            flagged = [
                e.experiment_name
                for e in session.db.iter_experiments("c")
                if e.pruned
            ]
            assert len(flagged) == result.prune["pruned"]

    def test_pruned_rows_classify_non_effective(self):
        """Pruned experiments stay visible to the analysis phase — as
        overwritten rows, or latent ones when a flip survives into the
        final capture — and classify exactly as their simulated rows:
        they never vanish from coverage or sample-size accounting."""
        with GoofiSession() as session:
            make_campaign(session, "c", num_experiments=24)
            session.run_campaign("c")
            unpruned = session.classify("c").summary()
        with GoofiSession() as session:
            make_campaign(session, "c", num_experiments=24)
            result = session.run_campaign("c", prune=0.0)
            pruned = session.classify("c").summary()
            assert result.prune["skipped"] > 0
        assert pruned == unpruned


class TestSpotCheckSafetyNet:
    def test_divergence_hard_fails_campaign(self, session, monkeypatch):
        """An unsound classification must abort the campaign, not log a
        wrong row: force the classifier to call everything prunable and
        spot-check 100% — the first genuinely effective experiment
        diverges from its synthesised prediction."""
        monkeypatch.setattr(
            ExperimentClassifier, "prunable", lambda self, spec: True
        )
        make_campaign(session, "c", num_experiments=20)
        with pytest.raises(PruneDivergence, match="diverged"):
            session.run_campaign("c", prune=1.0)
        assert session.db.load_campaign("c").status == "aborted"

    def test_divergence_hard_fails_parallel_campaign(self, session, monkeypatch):
        """The same safety net on the process executor: the coordinator
        compares each worker's encoded row with the prediction's."""
        monkeypatch.setattr(
            ExperimentClassifier, "prunable", lambda self, spec: True
        )
        make_campaign(session, "c", num_experiments=20)
        with pytest.raises(PruneDivergence, match="diverged"):
            session.run_campaign("c", prune=1.0, workers=2)
        assert session.db.load_campaign("c").status == "aborted"

    def test_divergent_synthesised_rows_not_persisted(
        self, session, monkeypatch
    ):
        """With spot-check 1.0 nothing is persisted up-front, so a
        divergence leaves only simulation-confirmed rows behind: every
        persisted row equals the same experiment's row from an unpruned
        run of the same campaign."""
        _result, unpruned = run_campaign(num_experiments=20)
        expected = {name: (state, data) for name, state, data in unpruned}
        monkeypatch.setattr(
            ExperimentClassifier, "prunable", lambda self, spec: True
        )
        make_campaign(session, "c", num_experiments=20)
        with pytest.raises(PruneDivergence):
            session.run_campaign("c", prune=1.0)
        persisted = [
            row for row in logged_rows(session, "c")
            if row[0] != "c/__reference__"
        ]
        assert persisted, "no row confirmed before the divergence"
        for name, state, data in persisted:
            assert (state, data) == expected[name], name

    def test_spot_check_sample_is_deterministic(self, session):
        config = make_campaign(session, "c", num_experiments=30)
        trace = session.algorithms.make_reference_run(config)
        space = session.target.location_space()
        from repro.core.campaign import PlanGenerator

        plan = PlanGenerator(config, space, trace).generate()
        reference = session.db.load_experiment("c/__reference__")
        plans = [
            build_prune_plan(
                config, trace, space, plan,
                PruneConfig(spot_check_rate=0.5), reference,
            )
            for _ in range(2)
        ]
        assert plans[0].spot_checks == plans[1].spot_checks
        assert [s.name for s in plans[0].to_run] == \
            [s.name for s in plans[1].to_run]

    def test_resume_completes_pruned_campaign(self, session):
        """Abort-and-resume over a pruned campaign ends with the full
        row count: up-front synthesised rows are kept and the resumed
        run fills in the rest."""
        make_campaign(session, "c", num_experiments=24)

        def abort_early(event):
            if event.completed >= 4:
                session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            first = session.run_campaign("c", prune=0.0)
        finally:
            session.progress.observers.remove(abort_early)
        assert first.aborted
        result = session.run_campaign("c", prune=0.0, resume=True)
        assert not result.aborted
        # 24 experiment rows + 1 reference row.
        assert session.db.count_experiments("c") == 25


class TestPruneKnobs:
    def test_prune_and_probes_conflict(self, session):
        make_campaign(session, "c", num_experiments=4)
        with pytest.raises(ConfigurationError, match="prune"):
            session.run_campaign("c", prune=0.5, probes=True)

    def test_prune_cli_flag(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "p.db")
        assert main([
            "campaign", "create", "--db", db, "--name", "c",
            "--workload", "fibonacci", "--experiments", "24",
        ]) == 0
        assert main(["run", "--db", db, "c", "--quiet", "--prune=1.0"]) == 0
        out = capsys.readouterr().out
        assert "prune:" in out
        assert "0 divergences" in out

    def test_report_surfaces_disabled_reason(self, session):
        make_campaign(session, "c", num_experiments=4, logging_mode="detail")
        result = session.run_campaign("c", prune=1.0)
        assert result.prune["pruned"] == 0
        assert "detail logging" in result.prune["disabled_reason"]


class TestNoEffectProperty:
    """The classifier's core promise, as a property: a no-effect-classified
    experiment, when actually simulated, never produces an effect.
    ``prune=1.0`` re-simulates every pruned experiment and raises on any
    divergence, so a clean run *is* the property holding."""

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31),
        technique_locations=st.sampled_from([
            ("scifi", ("internal:regs.*",)),
            ("scifi", ("internal:regs.*", "internal:ctrl.*")),
            ("swifi_runtime", ("internal:regs.*",)),
            ("swifi_preruntime", ("memory:data",)),
            ("swifi_preruntime", ("memory:program", "memory:data")),
        ]),
    )
    def test_pruned_experiments_have_no_effect(self, seed, technique_locations):
        technique, locations = technique_locations
        result, _rows = run_campaign(
            technique=technique, locations=locations,
            num_experiments=12, seed=seed, prune=1.0,
        )
        assert result.prune["divergences"] == 0
        assert result.prune["spot_checks"] == result.prune["pruned"]
