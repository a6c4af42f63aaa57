"""Tests for the pre-injection liveness analysis: the reference trace's
def-use index (:meth:`ReferenceTrace.next_access`) and the plan filter
built on it (:func:`is_live`, :func:`live_windows`, and the sampling in
:class:`PlanGenerator`)."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CampaignConfig
from repro.core import campaign
from repro.core.campaign import (
    TECHNIQUE_SCIFI,
    TECHNIQUE_SWIFI_RUNTIME,
    PlanGenerator,
    is_live,
    live_windows,
)
from repro.core.errors import ConfigurationError
from repro.core.framework import ObservationSpec, Termination
from repro.core.locations import (
    KIND_MEMORY,
    KIND_SCAN,
    Location,
    LocationSpace,
    MemoryRegionInfo,
    ScanElementInfo,
)
from repro.core.triggers import END, ReferenceTrace


def reg_location(index: int, bit: int = 0) -> Location:
    return Location(kind=KIND_SCAN, chain="internal", element=f"regs.R{index}", bit=bit)


def mem_location(address: int, bit: int = 0) -> Location:
    return Location(kind=KIND_MEMORY, address=address, bit=bit)


def register_trace(events: list[tuple[int, str]], duration: int = 100) -> ReferenceTrace:
    """A trace in which register R1 sees exactly ``events``."""
    return ReferenceTrace(
        reg_accesses=[(cycle, kind, 1) for cycle, kind in events],
        duration=duration,
    )


def live_cycles(events: list[tuple[int, str]], lo: int = 0, hi: int = 100) -> list[int]:
    """Every cycle of ``[lo, hi)`` the live windows of R1 cover."""
    windows = live_windows(register_trace(events), reg_location(1), lo, hi)
    return [cycle for start, end in windows for cycle in range(start, end)]


class TestLiveIntervals:
    def test_write_then_read(self):
        # write at 2, read at 5 -> injections in [3, 6) are consumed.
        assert live_cycles([(2, "write"), (5, "read")]) == [3, 4, 5]

    def test_leading_read_live_from_start(self):
        # Initial data loaded before the run: read at 4 consumes
        # anything injected from cycle 0.
        assert live_cycles([(4, "read")]) == [0, 1, 2, 3, 4]

    def test_write_then_write_is_dead(self):
        assert live_cycles([(1, "write"), (7, "write")]) == []

    def test_read_after_read_extends(self):
        assert live_cycles([(2, "read"), (3, "read")]) == [0, 1, 2, 3]

    def test_alternating_pattern(self):
        events = [(1, "write"), (3, "read"), (5, "write"), (9, "read")]
        assert live_cycles(events) == [2, 3, 6, 7, 8, 9]

    def test_interval_membership(self):
        trace = register_trace([(2, "write"), (5, "read")])
        assert is_live(trace, reg_location(1), 3) and is_live(trace, reg_location(1), 5)
        assert not is_live(trace, reg_location(1), 2)
        assert not is_live(trace, reg_location(1), 6)


def make_trace() -> ReferenceTrace:
    return ReferenceTrace(
        instructions=[(c, c, "NOP") for c in range(20)],
        mem_accesses=[
            (4, "read", 0x4000),
            (6, "write", 0x4001),  # written, never read: always dead
            (8, "write", 0x4000),
            (12, "read", 0x4000),
        ],
        reg_accesses=[
            (2, "write", 1),
            (10, "read", 1),
            (11, "write", 1),
        ],
        duration=20,
    )


class TestLivenessAnalysis:
    def test_register_liveness(self):
        trace = make_trace()
        assert is_live(trace, reg_location(1), 5)  # before the read at 10
        assert is_live(trace, reg_location(1), 10)  # at the read cycle
        assert not is_live(trace, reg_location(1), 11)  # next access is a write
        assert not is_live(trace, reg_location(1), 15)  # no access follows

    def test_untouched_register_is_dead(self):
        assert not is_live(make_trace(), reg_location(9), 5)

    def test_memory_liveness(self):
        trace = make_trace()
        assert is_live(trace, mem_location(0x4000), 2)  # leading read at 4
        assert not is_live(trace, mem_location(0x4000), 7)  # next is write at 8
        assert is_live(trace, mem_location(0x4000), 9)  # read at 12
        assert not is_live(trace, mem_location(0x4000), 13)

    def test_never_read_memory_is_dead(self):
        assert not is_live(make_trace(), mem_location(0x4001), 10)

    def test_control_state_always_live(self):
        trace = make_trace()
        pc = Location(kind=KIND_SCAN, chain="internal", element="ctrl.PC", bit=3)
        cache = Location(
            kind=KIND_SCAN, chain="internal", element="icache.line3.data", bit=0
        )
        assert trace.next_access(pc, 0) is None
        assert is_live(trace, pc, 0) and is_live(trace, pc, 19)
        assert is_live(trace, cache, 15)

    def test_live_fraction(self):
        trace = make_trace()
        # R1 live on [3, 11) -> 8 of 20 cycles.
        assert live_windows(trace, reg_location(1), 0, 20) == [(3, 11)]
        assert live_windows(trace, mem_location(0x4001), 0, 20) == []
        pc = Location(kind=KIND_SCAN, chain="internal", element="ctrl.PC", bit=0)
        assert live_windows(trace, pc, 0, 20) is None


def config_for(trace, patterns, experiments, technique=TECHNIQUE_SCIFI, seed=3):
    return CampaignConfig(
        name="live",
        target="t",
        technique=technique,
        workload="w",
        location_patterns=patterns,
        num_experiments=experiments,
        termination=Termination(max_cycles=trace.duration * 4),
        observation=ObservationSpec(),
        seed=seed,
        use_preinjection_analysis=True,
    )


REGISTER_SPACE = LocationSpace(
    scan_elements=[
        ScanElementInfo("internal", "regs.R1", 32, True),
        ScanElementInfo("internal", "regs.R9", 32, True),
    ],
    memory_regions=[],
)


def register_plan(trace, experiments, seed=3):
    config = config_for(trace, ("internal:regs.*",), experiments, seed=seed)
    return PlanGenerator(config, REGISTER_SPACE, trace).generate()


class TestPreInjectionFilter:
    def test_sampled_pairs_are_live(self):
        trace = make_trace()
        for spec in register_plan(trace, 50):
            (fault,) = spec.faults
            assert is_live(trace, fault.location, fault.trigger.cycle)
            # R9 is never accessed, so only R1 can be drawn.
            assert fault.location.element == "regs.R1"

    def test_all_dead_selection_raises(self, monkeypatch):
        # A trace in which R1/R9 are never read.
        trace = ReferenceTrace(
            instructions=[(c, c, "NOP") for c in range(10)],
            reg_accesses=[(1, "write", 1)],
            duration=10,
        )
        monkeypatch.setattr(campaign, "MAX_ATTEMPTS_PER_SAMPLE", 20)
        with pytest.raises(ConfigurationError, match="no live"):
            register_plan(trace, 1, seed=0)

    def test_interval_fallback_finds_rare_live_windows(self, monkeypatch):
        """When the live window is a sliver of the injection window,
        direct interval sampling must still find it."""
        trace = ReferenceTrace(
            instructions=[(c, c, "NOP") for c in range(10_000)],
            reg_accesses=[(5000, "write", 1), (5001, "read", 1)],
            duration=10_000,
        )
        monkeypatch.setattr(campaign, "MAX_ATTEMPTS_PER_SAMPLE", 5)
        (spec,) = register_plan(trace, 1, seed=0)
        (fault,) = spec.faults
        assert fault.location.element == "regs.R1"
        assert fault.trigger.cycle == 5001


class TestFallbackDistribution:
    """Regression: the direct-interval fallback used to return the first
    always-live element immediately, so an almost-dead selection always
    produced the same (iteration-order) location and memory regions got
    zero probability mass."""

    SPACE = LocationSpace(
        scan_elements=[
            ScanElementInfo("internal", "ctrl.PC", 16, True),
            ScanElementInfo("internal", "ctrl.PSW", 16, True),
        ],
        memory_regions=[MemoryRegionInfo("data", 0x4000, 0x4010, 32)],
    )

    @pytest.fixture
    def trace(self, monkeypatch):
        # 0x4000 is read at cycle 90: live on [0, 91).  The ctrl
        # elements are always-live.  No rejection draws: every sample
        # goes through the fallback path.
        monkeypatch.setattr(campaign, "MAX_ATTEMPTS_PER_SAMPLE", 0)
        return ReferenceTrace(
            instructions=[(c, c, "NOP") for c in range(100)],
            mem_accesses=[(90, "read", 0x4000)],
            duration=100,
        )

    def faults(self, trace, experiments, seed):
        config = config_for(
            trace, ("internal:ctrl.*", "memory:data"), experiments,
            technique=TECHNIQUE_SWIFI_RUNTIME, seed=seed,
        )
        plan = PlanGenerator(config, self.SPACE, trace).generate()
        return [fault for spec in plan for fault in spec.faults]

    def test_fallback_spreads_over_all_live_candidates(self, trace):
        sampled_elements = set()
        sampled_memory = 0
        for fault in self.faults(trace, 300, seed=7):
            location, cycle = fault.location, fault.trigger.cycle
            assert is_live(trace, location, cycle)
            if location.kind == KIND_MEMORY:
                assert location.address == 0x4000
                assert 0 <= cycle <= 90
                sampled_memory += 1
            else:
                sampled_elements.add(location.element)
        # Both always-live elements AND the live memory word are drawn.
        assert sampled_elements == {"ctrl.PC", "ctrl.PSW"}
        assert sampled_memory > 0

    def test_fallback_weights_are_roughly_proportional(self, trace):
        """Each of the three candidates spans ~the whole window, so each
        should take ~a third of the draws (not 100%/0%/0%)."""
        counts = {"ctrl.PC": 0, "ctrl.PSW": 0, "memory": 0}
        draws = 600
        for fault in self.faults(trace, draws, seed=11):
            location = fault.location
            key = "memory" if location.kind == KIND_MEMORY else location.element
            counts[key] += 1
        for key, count in counts.items():
            assert count / draws > 0.15, f"{key} starved: {counts}"


# ----------------------------------------------------------------------
# The def-use index against a brute-force oracle
# ----------------------------------------------------------------------
def first_at_or_after(events: list[tuple[int, str]], cycle: int):
    """The oracle: a linear scan for the first event at or after ``cycle``."""
    return next((event for event in events if event[0] >= cycle), None)


# Chronological (cycle, kind) lists; same-cycle reads and writes keep
# the random order they were drawn in (the sort is stable).
event_lists = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(["read", "write"])), max_size=25
).map(lambda events: sorted(events, key=lambda event: event[0]))


@settings(max_examples=300, deadline=None)
@given(events=event_lists, bounds=st.tuples(st.integers(0, 45), st.integers(0, 45)))
def test_property_live_is_next_access_read(events, bounds):
    """For a register and a memory word with the same random accesses:
    "live at t" is "the first access at or after t is a read", the index
    reports that access (or the run's end), and the fallback's clamped
    windows cover exactly the live cycles of ``[lo, hi)``, ascending and
    disjoint."""
    duration = 45
    trace = ReferenceTrace(
        mem_accesses=[(cycle, kind, 0x4000) for cycle, kind in events],
        reg_accesses=[(cycle, kind, 1) for cycle, kind in events],
        duration=duration,
    )
    lo, hi = min(bounds), max(bounds)
    for location in (reg_location(1), mem_location(0x4000)):
        live = set()
        for cycle in range(duration + 1):
            expected = first_at_or_after(events, cycle)
            assert trace.next_access(location, cycle) == (expected or (duration, END))
            assert is_live(trace, location, cycle) == (
                expected is not None and expected[1] == "read"
            )
            if lo <= cycle < hi and is_live(trace, location, cycle):
                live.add(cycle)
        windows = live_windows(trace, location, lo, hi)
        covered = [cycle for start, end in windows for cycle in range(start, end)]
        assert covered == sorted(live)
        assert all(start < end for start, end in windows)


# ----------------------------------------------------------------------
# Filtered plans are pinned
# ----------------------------------------------------------------------
def plan_digest(plan) -> str:
    payload = [
        {"name": spec.name, "seed": spec.seed, "faults": [f.to_dict() for f in spec.faults]}
        for spec in plan
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "workload, seed, technique, locations, options, digest",
    [
        # The E5 campaigns (benchmarks/bench_preinjection.py).
        ("bubble_sort", 500, "scifi", ("internal:regs.*",),
         {"use_preinjection_analysis": True},
         "924db0e7351c0ef7c15ca3ee92cd8cdbcfcd1d71fdbc56eb2529df26b422a54d"),
        ("crc32", 501, "scifi", ("internal:regs.*",),
         {"use_preinjection_analysis": True},
         "d7cd80b1a047f98b33db6d1d670ab6e885be034d99238dbe705379801d9060bd"),
        # The E9 data-access campaign (benchmarks/bench_triggers.py).
        ("dotprod", 900, "swifi_runtime", ("memory:data",),
         {"time_strategy": "data_access"},
         "dd25f518638d041e386cb8073460c680f882db500d657f6ba831f70e1900e8ea"),
    ],
)
def test_plan_digest_is_pinned(session, workload, seed, technique, locations,
                               options, digest):
    """The plans of the benchmark campaigns the liveness filter and the
    data-access triggers draw, byte for byte (120 experiments each)."""
    config = CampaignConfig(
        name="pinned", target="thor-rd-sim", technique=technique, workload=workload,
        location_patterns=locations, num_experiments=120,
        termination=session.default_termination(workload, max_iterations=80),
        observation=session.default_observation(workload), seed=seed, **options,
    )
    session.setup_campaign(config)
    trace = session.algorithms.make_reference_run(config)
    plan = PlanGenerator(config, session.target.location_space(), trace).generate()
    assert plan_digest(plan) == digest
