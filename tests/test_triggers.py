"""Tests for fault triggers and the reference trace."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.locations import KIND_MEMORY, KIND_SCAN, Location
from repro.core.triggers import (
    BranchTrigger,
    BreakpointTrigger,
    CallTrigger,
    ClockTrigger,
    DataAccessTrigger,
    ReferenceTrace,
    TimeTrigger,
    cycles_in_window,
    trigger_from_dict,
)


def reg(index: int) -> Location:
    return Location(kind=KIND_SCAN, chain="internal", element=f"regs.R{index}", bit=0)


def mem(address: int) -> Location:
    return Location(kind=KIND_MEMORY, address=address, bit=0)


def make_trace() -> ReferenceTrace:
    """A small synthetic reference trace:

    cycle pc op       memory accesses
      0   0  LDI
      1   1  BEQ
      2   2  LDA      read  0x4000
      3   3  CALL
      4  10  STA      write 0x4000
      5  11  BR
      6   4  STA      write 0x4001
      7   5  HALT
    """
    return ReferenceTrace(
        instructions=[
            (0, 0, "LDI"),
            (1, 1, "BEQ"),
            (2, 2, "LDA"),
            (3, 3, "CALL"),
            (4, 10, "STA"),
            (5, 11, "BR"),
            (6, 4, "STA"),
            (7, 5, "HALT"),
        ],
        mem_accesses=[
            (2, "read", 0x4000),
            (4, "write", 0x4000),
            (6, "write", 0x4001),
        ],
        reg_accesses=[
            (0, "write", 1),
            (2, "read", 1),
            (4, "write", 2),
        ],
        duration=8,
    )


class TestReferenceTraceIndices:
    def test_pc_cycles(self):
        trace = make_trace()
        assert trace.pc_cycles(2) == [2]
        assert trace.pc_cycles(99) == []

    def test_branch_cycles_include_all_b_ops(self):
        assert make_trace().branch_cycles() == [1, 5]

    def test_call_cycles(self):
        assert make_trace().call_cycles() == [3]

    def test_access_cycles_by_kind(self):
        trace = make_trace()

        def resolve(access, occurrence=1):
            return DataAccessTrigger(
                address=0x4000, access=access, occurrence=occurrence
            ).resolve(trace)

        assert resolve("read") == 2
        assert resolve("write") == 4
        assert [resolve("any", 1), resolve("any", 2)] == [2, 4]
        with pytest.raises(ConfigurationError, match="only 1"):
            resolve("read", 2)

    def test_reg_events(self):
        trace = make_trace()
        assert trace.events(reg(1)) == [(0, "write"), (2, "read")]
        assert trace.events(reg(9)) == []
        # Control state, caches and pins: the trace cannot reason about them.
        assert trace.events(Location(kind=KIND_SCAN, chain="internal",
                                     element="ctrl.PC", bit=0)) is None

    def test_mem_events(self):
        assert make_trace().events(mem(0x4000)) == [(2, "read"), (4, "write")]

    def test_mem_events_index_matches_linear_scan(self):
        """The lazily built per-location index gives, for every accessed
        address and for one never accessed, the chronological list a
        scan over every access would."""
        trace = make_trace()
        for address in {addr for _, _, addr in trace.mem_accesses} | {0x4999}:
            assert trace.events(mem(address)) == [
                (cycle, kind)
                for cycle, kind, addr in trace.mem_accesses
                if addr == address
            ]
        assert trace.events(mem(0x4999)) == []
        assert trace._events is not None


class TestTriggerResolution:
    def test_time_trigger(self):
        assert TimeTrigger(cycle=5).resolve(make_trace()) == 5

    def test_time_trigger_out_of_range(self):
        with pytest.raises(ConfigurationError, match="outside"):
            TimeTrigger(cycle=100).resolve(make_trace())

    def test_breakpoint_trigger(self):
        assert BreakpointTrigger(address=3).resolve(make_trace()) == 3

    def test_breakpoint_occurrence_beyond_trace(self):
        with pytest.raises(ConfigurationError, match="occurrence"):
            BreakpointTrigger(address=3, occurrence=2).resolve(make_trace())

    def test_data_access_trigger(self):
        trace = make_trace()
        assert DataAccessTrigger(address=0x4000, access="write").resolve(trace) == 4
        assert DataAccessTrigger(address=0x4000, access="any", occurrence=2).resolve(trace) == 4

    def test_data_access_bad_kind(self):
        with pytest.raises(ConfigurationError):
            DataAccessTrigger(address=0, access="touch")

    def test_branch_trigger(self):
        assert BranchTrigger(occurrence=2).resolve(make_trace()) == 5

    def test_call_trigger(self):
        assert CallTrigger().resolve(make_trace()) == 3

    def test_clock_trigger(self):
        assert ClockTrigger(period=3, tick=2).resolve(make_trace()) == 6

    def test_clock_trigger_past_duration(self):
        with pytest.raises(ConfigurationError, match="past"):
            ClockTrigger(period=5, tick=3).resolve(make_trace())

    def test_clock_trigger_validation(self):
        with pytest.raises(ConfigurationError):
            ClockTrigger(period=0)
        with pytest.raises(ConfigurationError):
            ClockTrigger(period=5, tick=0)

    def test_occurrence_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            BranchTrigger(occurrence=0).resolve(make_trace())


class TestTriggerSerialisation:
    @pytest.mark.parametrize(
        "trigger",
        [
            TimeTrigger(cycle=9),
            BreakpointTrigger(address=0x12, occurrence=3),
            DataAccessTrigger(address=0x4000, access="write", occurrence=2),
            BranchTrigger(occurrence=4),
            CallTrigger(occurrence=1),
            ClockTrigger(period=100, tick=7),
        ],
    )
    def test_dict_roundtrip(self, trigger):
        assert trigger_from_dict(trigger.to_dict()) == trigger

    def test_unknown_trigger_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trigger"):
            trigger_from_dict({"trigger": "lunar_phase"})


class TestWindowHelpers:
    def test_window_clamped_to_duration(self):
        assert cycles_in_window(make_trace(), -5, 100) == (0, 8)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            cycles_in_window(make_trace(), 8, 20)


class TestMalformedTriggerPayloads:
    """Regression: malformed payloads (hand-written pack YAML, corrupted
    rows) used to leak bare ``TypeError``s from the dataclass
    constructor; they must raise ``ConfigurationError`` naming the
    payload."""

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            trigger_from_dict(["time", 5])

    def test_missing_trigger_key_names_payload(self):
        with pytest.raises(ConfigurationError, match=r"\{'cycle': 5\}"):
            trigger_from_dict({"cycle": 5})

    def test_unexpected_key_named(self):
        with pytest.raises(ConfigurationError, match="does not accept key.*cycles"):
            trigger_from_dict({"trigger": "time", "cycles": 5})

    def test_unexpected_key_lists_accepted_keys(self):
        with pytest.raises(ConfigurationError, match="accepted: .*period.*tick"):
            trigger_from_dict({"trigger": "clock", "period": 10, "phase": 1})

    def test_missing_required_key_wrapped(self):
        with pytest.raises(ConfigurationError, match="bad breakpoint trigger"):
            trigger_from_dict({"trigger": "breakpoint"})

    def test_unknown_name_lists_known_triggers(self):
        with pytest.raises(ConfigurationError, match="known: .*breakpoint.*time"):
            trigger_from_dict({"trigger": "lunar_phase", "cycle": 1})
