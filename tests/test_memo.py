"""The fault memo: each distinct fault is simulated once.

Experiments whose faults are the same as executed — the same cycle,
element, bit and model per fault — log the same run.  The pipeline
simulates the first of each key (its representative) and replays every
other one (a follower) from that row.  The contract: rows keyed by
experiment name, payloads and analysis columns, equal those of the
memo-free reference engine (``fast=False``), on both targets, under
every engine option.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import liveness
from repro.core.campaign import CampaignConfig, ExperimentSpec, PlannedFault
from repro.core.faultmodels import IntermittentBitFlip, StuckAt, TransientBitFlip
from repro.core.framework import Termination
from repro.core.liveness import PruneDivergence, fault_key, replay_row
from repro.core.locations import KIND_SCAN, Location
from repro.core.triggers import TimeTrigger
from repro.db.models import REPLAYED, ExperimentRecord
from repro.session import GoofiSession
from repro.workloads import load

CAMPAIGN = "memo"

#: Per target and technique: workloads and location patterns whose
#: location space is small, so that fault keys repeat within a plan.
SPACES = {
    ("thor-rd-sim", "scifi"): (("fibonacci", "crc32"), ("internal:ctrl.PSW",)),
    ("thor-rd-sim", "swifi_preruntime"): (("fibonacci", "crc32"), ("memory:data",)),
    ("thor-rd-sim", "swifi_runtime"): (("fibonacci", "crc32"), ("memory:data",)),
    ("thor-sm", "scifi"): (("s_checksum", "s_fib"), ("internal:ctrl.RSP",)),
    ("thor-sm", "swifi_preruntime"): (("s_checksum", "s_sumvec"), ("memory:data",)),
    ("thor-sm", "swifi_runtime"): (("s_checksum", "s_sumvec"), ("memory:data",)),
}

ROW_COLUMNS = (
    "experimentName, experimentData, stateVector, category, mechanism, "
    "escapeKind, outcome, terminationCycle, faultElement, faultCycle"
)


def make_config(session, target, technique, workload, locations, size, seed,
                window=None, model=TransientBitFlip(), **extra) -> CampaignConfig:
    config = CampaignConfig(
        name=CAMPAIGN,
        target=target,
        technique=technique,
        workload=workload,
        location_patterns=tuple(locations),
        num_experiments=size,
        termination=extra.pop("termination", None)
        or session.default_termination(workload),
        observation=session.default_observation(workload),
        fault_model=model,
        injection_window=window,
        seed=seed,
        **extra,
    )
    session.setup_campaign(config)
    return config


def rows(session) -> dict[str, tuple]:
    """Every logged row by experiment name: payloads and analysis
    columns (provenance and timestamps left out)."""
    return {
        row[0]: row[1:]
        for row in session.db.execute_sql(
            f"SELECT {ROW_COLUMNS} FROM LoggedSystemState WHERE campaignName = ?",
            (CAMPAIGN,),
        )
    }


def replayed(session) -> int:
    [(count,)] = session.db.execute_sql(
        "SELECT COUNT(*) FROM LoggedSystemState "
        "WHERE campaignName = ? AND pruned = ?",
        (CAMPAIGN, REPLAYED),
    )
    return count


def run(campaign: dict, **options) -> tuple[dict, int, object]:
    """Run ``campaign`` in a fresh session; its rows, replayed-row count
    and result."""
    with GoofiSession(target_name=campaign["target"]) as session:
        make_config(session, **campaign)
        result = session.run_campaign(CAMPAIGN, **options)
        return rows(session), replayed(session), result


@st.composite
def campaigns(draw) -> dict:
    target, technique = draw(st.sampled_from(sorted(SPACES)), label="space")
    workloads, locations = SPACES[(target, technique)]
    window = None
    if technique != "swifi_preruntime":
        start = draw(st.integers(0, 40), label="window start")
        window = (start, start + draw(st.integers(1, 3), label="window width"))
    return {
        "target": target,
        "technique": technique,
        "workload": draw(st.sampled_from(workloads), label="workload"),
        "locations": locations,
        "size": draw(st.integers(4, 24), label="plan size"),
        "seed": draw(st.integers(0, 2**31 - 1), label="seed"),
        "window": window,
        "model": draw(
            st.sampled_from((TransientBitFlip(), StuckAt(0), StuckAt(1))),
            label="model",
        ),
    }


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    campaign=campaigns(),
    workers=st.sampled_from((1, 2)),
    checkpoints=st.booleans(),
    telemetry=st.sampled_from((None, "spans")),
    prune=st.sampled_from((None, 0.0, 0.5, 1.0)),
)
def test_memo_rows_equal_the_reference_engine(
    campaign, workers, checkpoints, telemetry, prune
):
    expected, reference_replayed, _ = run(campaign, fast=False)
    assert reference_replayed == 0
    got, _, _ = run(
        campaign, workers=workers, checkpoints=checkpoints,
        telemetry=telemetry, prune=prune,
    )
    assert got == expected


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
#: A campaign whose 40 pre-runtime flips land on one data word of 32
#: bits: keys repeat.
REPEATING = {
    "target": "thor-rd-sim",
    "technique": "swifi_preruntime",
    "workload": "fibonacci",
    "locations": ("memory:data",),
    "size": 40,
    "seed": 11,
}


#: SCIFI on the 4-bit PSW within two cycles: control state, which
#: liveness pruning never prunes, so every key is simulated or replayed.
CONTROL = {
    "target": "thor-rd-sim",
    "technique": "scifi",
    "workload": "fibonacci",
    "locations": ("internal:ctrl.PSW",),
    "size": 24,
    "seed": 14,
    "window": (20, 22),
}


def test_reference_engine_memoizes_nothing():
    _, count, _ = run(REPEATING, fast=False)
    assert count == 0


@pytest.mark.parametrize(
    "campaign",
    [
        {
            "target": "thor-rd-sim",
            "technique": "swifi_runtime",
            "workload": "fibonacci",
            "locations": ("memory:data",),
            "size": 30,
            "seed": 12,
            "window": (10, 12),
            "model": IntermittentBitFlip(duration=50, activity=0.2),
        },
        {
            "target": "thor-rd-sim",
            "technique": "scifi",
            "workload": "control_protected",
            "locations": ("internal:ctrl.PSW",),
            "size": 8,
            "seed": 13,
            "window": (100, 101),
            "termination": Termination(max_cycles=20_000, max_iterations=6),
            "environment": {
                "name": "dc_motor",
                "params": {
                    "sensor_addr": load("control_protected").symbol("sensor"),
                    "actuator_addr": load("control_protected").symbol("actuator"),
                },
                "faults": {"corrupt_probability": 0.3, "seed": 5},
            },
        },
    ],
    ids=["intermittent", "environment_faults"],
)
def test_seed_drawing_campaigns_memoize_nothing(campaign):
    expected, _, _ = run(campaign, fast=False)
    got, count, _ = run(campaign)
    assert count == 0
    assert got == expected


#: A stored configuration for the unit cases below, which run nothing.
SCIFI_R1 = CampaignConfig.from_dict(
    {
        "name": CAMPAIGN, "target": "thor-rd-sim", "technique": "scifi",
        "workload": "fibonacci", "location_patterns": ["internal:regs.R1"],
        "num_experiments": 8, "termination": {"max_cycles": 1000},
        "observation": {}, "fault_model": {"model": "transient_bitflip"},
    }
)


def test_follower_fault_columns_are_its_own():
    """A follower's ``faultElement``/``faultCycle`` come from its own
    faults, not from its representative's row."""
    location = Location(kind=KIND_SCAN, chain="internal", element="regs.R1", bit=3)
    spec = ExperimentSpec(
        "memo/exp00007", 7, (PlannedFault(location, TimeTrigger(40), TransientBitFlip()),), 99
    )
    representative = (
        "memo/exp00002", None, CAMPAIGN, "{}", '{"final": {}}', "then", 0,
        "overwritten", None, None, "workload_end", 90, "internal:regs.R2", 12,
    )
    row = replay_row(SCIFI_R1, spec, [(40, spec.faults[0])], representative, [False])
    assert row[ExperimentRecord.ROW_NAME] == "memo/exp00007"
    assert row[ExperimentRecord.ROW_STATE] == '{"final": {}}'
    assert row[6] == REPLAYED
    assert row[7:12] == representative[7:12]
    assert row[12:] == ("internal:regs.R1", 40)
    faults = json.loads(row[ExperimentRecord.ROW_DATA])["faults"]
    assert [(f["injection_cycle"], f["applied"]) for f in faults] == [(40, False)]


def test_follower_fault_cycle_matches_a_simulation():
    expected, _, _ = run(CONTROL, fast=False)
    with GoofiSession() as session:
        make_config(session, **CONTROL)
        session.run_campaign(CAMPAIGN)
        followers = session.db.execute_sql(
            "SELECT experimentName, experimentData, faultCycle FROM "
            "LoggedSystemState WHERE pruned = ?", (REPLAYED,),
        )
    assert followers
    for name, data, cycle in followers:
        assert cycle == json.loads(data)["faults"][0]["injection_cycle"]
        assert cycle == expected[name][-1]


def test_key_holds_cycle_element_bit_and_model():
    location = Location(kind=KIND_SCAN, chain="internal", element="regs.R1", bit=3)

    def key(cycle, bit=3, model=TransientBitFlip()):
        fault = PlannedFault(
            Location(kind=KIND_SCAN, chain="internal", element="regs.R1", bit=bit),
            TimeTrigger(cycle), model,
        )
        spec = ExperimentSpec("x", 0, (fault,), 1)
        return fault_key(SCIFI_R1, spec, SimpleNamespace(duration=1000))

    assert key(5) == ((5, location.element_key, 3, TransientBitFlip()),)
    assert len({key(5), key(6), key(5, bit=4), key(5, model=StuckAt(1))}) == 4


@pytest.mark.parametrize(
    "campaign",
    [
        {**CONTROL, "locations": ("internal:regs.R1",), "window": (0, 150)},
        {**CONTROL, "locations": ("internal:regs.R1",), "window": (60, 61), "size": 40},
    ],
    ids=["cycle_decides", "bit_decides"],
)
def test_rows_where_cycle_or_bit_decide(campaign):
    expected, _, _ = run(campaign, fast=False)
    got, _, _ = run(campaign)
    assert got == expected


def test_resume_after_partial_run_gives_uninterrupted_rows(tmp_path):
    uninterrupted, _, _ = run(REPEATING)
    path = tmp_path / "resume.db"
    with GoofiSession(path) as session:
        make_config(session, **REPEATING)

        def stop_early(event):
            if event.completed >= 12:
                session.progress.end()

        session.progress.observers.append(stop_early)
        result = session.run_campaign(CAMPAIGN)
        session.progress.observers.remove(stop_early)
        assert result.aborted
        # A representative's row logged without some of its followers:
        # the first remaining follower of its key is simulated next time.
        with session.db.transaction() as conn:
            conn.execute(
                "DELETE FROM LoggedSystemState WHERE rowid IN (SELECT rowid "
                "FROM LoggedSystemState WHERE pruned = ? LIMIT 2)", (REPLAYED,),
            )
        session.run_campaign(CAMPAIGN, resume=True)
        assert rows(session) == uninterrupted


def test_events_name_the_representative_and_followers_send_no_span(tmp_path):
    path = tmp_path / "events.jsonl"
    with GoofiSession() as session:
        make_config(session, **REPEATING)
        session.run_campaign(CAMPAIGN, telemetry="spans", events=str(path))
        provenance = dict(
            session.db.execute_sql(
                "SELECT experimentName, pruned FROM LoggedSystemState "
                "WHERE campaignName = ?", (CAMPAIGN,),
            )
        )
        spans = {span.experiment_name for span in session.db.iter_spans(CAMPAIGN)}
    records = [json.loads(line) for line in path.read_text().splitlines()]
    finished = [r for r in records if r["kind"] == "experiment_finished"]
    assert len(finished) == 40
    followers = {r["experiment"]: r["representative"] for r in finished if r["representative"]}
    assert followers
    assert set(followers) == {
        name for name, flag in provenance.items() if flag == REPLAYED
    }
    simulated = {r["experiment"] for r in finished} - set(followers)
    assert set(followers.values()) <= simulated
    assert spans == simulated
    assert {r["span"]["experiment"] for r in records if r["kind"] == "span"} == simulated


def test_prune_rate_one_checks_every_follower():
    expected, _, _ = run(CONTROL, fast=False)
    got, count, result = run(CONTROL, prune=1.0)
    assert got == expected
    assert result.prune["replayed"] == 0
    assert result.prune["replay_checks"] == count > 0


def test_diverging_replay_fails_the_spot_check(monkeypatch):
    original = liveness.replay_row

    def corrupt(config, spec, schedule, row, applied):
        replayed_row = list(original(config, spec, schedule, row, applied))
        replayed_row[ExperimentRecord.ROW_STATE] = '{"final": {}}'
        return tuple(replayed_row)

    monkeypatch.setattr(liveness, "replay_row", corrupt)
    with pytest.raises(PruneDivergence, match="memo follower"):
        run(CONTROL, prune=1.0)


def test_replay_runs_no_experiment_body():
    """Followers cost no simulation: the body runs once per key."""
    from repro.core.algorithms import FaultInjectionAlgorithms

    calls = []
    original = FaultInjectionAlgorithms._run_swifi_preruntime_experiment

    def counting(self, config, spec, trace):
        calls.append(spec.name)
        return original(self, config, spec, trace)

    with mock.patch.object(
        FaultInjectionAlgorithms, "_run_swifi_preruntime_experiment", counting
    ):
        _, count, result = run(REPEATING)
    assert count > 0
    assert len(calls) + count == result.experiments_run == 40
    assert result.prune is None
