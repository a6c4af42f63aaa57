"""Tests for the zero-copy state engine.

Three contracts:

* the array-backed memory keeps the host-facing API shapes intact —
  ``host_read_block``/``read_memory`` return plain lists, ``snapshot``
  a tuple, and logged state vectors stay JSON-serialisable;
* ``save_state`` → ``restore_state`` → ``save_state`` is a lossless
  round trip on both targets (Hypothesis-driven);
* the start-up state a ``spawn`` worker unpickles — reference traces
  and golden probe snapshots — equals the coordinator's.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locations import KIND_MEMORY, Location
from repro.core.probes import GoldenSnapshots
from repro.core.triggers import ReferenceTrace
from repro.core.plugins import create_target
from repro.targets import statebuf
from repro.targets.stack.machine import (
    MEMORY_WORDS as STACK_WORDS,
    StackMachine,
)
from repro.targets.thor.memory import MEMORY_WORDS as THOR_WORDS, Memory

WORD = st.integers(min_value=0, max_value=0xFFFFFFFF)


# ----------------------------------------------------------------------
# statebuf helpers
# ----------------------------------------------------------------------
class TestStatebuf:
    def test_word_typecode_is_32_bit(self):
        assert statebuf.WORD_ITEMSIZE >= 4

    def test_new_words_zero_filled(self):
        words = statebuf.new_words(64)
        assert len(words) == 64
        assert not any(words)

    def test_words_from_masks(self):
        words = statebuf.words_from([0x1_FFFF_FFFF, 2], mask=0xFFFFFFFF)
        assert list(words) == [0xFFFFFFFF, 2]

    def test_words_from_unmasked_overflows_loudly(self):
        with pytest.raises(OverflowError):
            statebuf.words_from([0x1_0000_0000])

    def test_save_restore_round_trip(self):
        words = statebuf.words_from([1, 2, 3, 4])
        blob = statebuf.save_words(words)
        assert isinstance(blob, bytes)
        statebuf.zero_fill(words)
        assert not any(words)
        statebuf.restore_words(words, blob)
        assert list(words) == [1, 2, 3, 4]

    def test_pack_values_fits_64_bits(self):
        packed = statebuf.pack_values([0, 1, 2**64 - 1])
        assert packed is not None
        assert list(packed) == [0, 1, 2**64 - 1]
        assert statebuf.pack_values([2**64]) is None
        assert statebuf.pack_values([-1]) is None


# ----------------------------------------------------------------------
# API-compatible boundary shapes after the array migration
# ----------------------------------------------------------------------
class TestBoundaryShapes:
    def test_thor_host_read_block_returns_list(self):
        memory = Memory()
        memory.load_image(0, [5, 6, 7])
        block = memory.host_read_block(0, 3)
        assert type(block) is list
        assert block == [5, 6, 7]
        assert all(type(value) is int for value in block)

    def test_thor_snapshot_returns_tuple(self):
        memory = Memory()
        memory.load_image(0, [9, 8])
        assert type(memory.snapshot(0, 2)) is tuple
        assert memory.snapshot(0, 2) == (9, 8)

    def test_thor_save_state_words_are_bytes(self):
        memory = Memory()
        state = memory.save_state()
        assert isinstance(state["words"], bytes)
        assert len(state["words"]) == THOR_WORDS * statebuf.WORD_ITEMSIZE

    def test_stack_save_state_memory_is_bytes(self):
        machine = StackMachine()
        state = machine.save_state()
        assert isinstance(state["memory"], bytes)
        assert len(state["memory"]) == STACK_WORDS * statebuf.WORD_ITEMSIZE

    def test_stack_interface_read_memory_returns_list(self):
        target = create_target("thor-sm")
        target.init_test_card()
        target.load_workload("s_checksum")
        block = target.read_memory(0, 4)
        assert type(block) is list
        assert all(type(value) is int for value in block)

    def test_thor_interface_read_memory_returns_list(self):
        target = create_target("thor-rd-sim")
        target.init_test_card()
        target.load_workload("fibonacci")
        block = target.read_memory(0, 4)
        assert type(block) is list
        assert all(type(value) is int for value in block)

    @pytest.mark.parametrize(
        ("target_name", "workload"),
        [("thor-rd-sim", "fibonacci"), ("thor-sm", "s_checksum")],
    )
    def test_state_vector_stays_json_serialisable(self, target_name, workload):
        """The logged state vector (capture_state output) must keep its
        JSON payload shape: plain ints in plain lists, no array/bytes
        leaking through the observation boundary."""
        from repro.core.framework import ObservationSpec, Termination

        target = create_target(target_name)
        target.init_test_card()
        target.load_workload(workload)
        target.run_workload()
        target.wait_for_termination(Termination(max_cycles=200_000))
        observation = ObservationSpec(memory_ranges=((0, 8),))
        state = target.capture_state(observation)
        round_tripped = json.loads(json.dumps(state))
        assert round_tripped == state


# ----------------------------------------------------------------------
# Hypothesis: save -> restore -> save is lossless on both targets
# ----------------------------------------------------------------------
class TestSaveRestoreRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        words=st.lists(WORD, min_size=1, max_size=32),
        address=st.integers(min_value=0, max_value=1024),
        protect=st.booleans(),
    )
    def test_thor_memory_round_trip(self, words, address, protect):
        memory = Memory()
        memory.load_image(address, words)
        memory.protect_program = protect
        saved = memory.save_state()
        scratch = Memory()
        scratch.restore_state(saved)
        assert scratch.save_state() == saved
        assert scratch.host_read_block(address, len(words)) == words

    @settings(max_examples=25, deadline=None)
    @given(
        words=st.lists(WORD, min_size=1, max_size=32),
        address=st.integers(min_value=0, max_value=512),
        stack=st.lists(WORD, min_size=0, max_size=8),
        pc=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_stack_machine_round_trip(self, words, address, stack, pc):
        machine = StackMachine()
        machine.load_image(address, words)
        for value in stack:
            machine._dpush(value)
        machine.pc = pc
        saved = machine.save_state()
        scratch = StackMachine()
        scratch.restore_state(saved)
        assert scratch.save_state() == saved
        assert list(scratch.memory[address : address + len(words)]) == words

    @pytest.mark.parametrize(
        ("target_name", "workload"),
        [("thor-rd-sim", "fibonacci"), ("thor-sm", "s_checksum")],
    )
    def test_interface_round_trip_mid_run(self, target_name, workload):
        """Full-interface round trip from a genuinely interesting state:
        mid-workload, with caches/stacks warm."""
        from repro.core.framework import Termination

        target = create_target(target_name)
        target.init_test_card()
        target.load_workload(workload)
        target.run_workload()
        assert target.wait_for_breakpoint(50) is None
        saved = target.save_state()
        target.restore_state(saved)
        assert target.save_state() == saved


# ----------------------------------------------------------------------
# Worker start-up state across a pickle boundary
# ----------------------------------------------------------------------
class TestReferenceTracePayload:
    def test_round_trip(self):
        trace = ReferenceTrace(
            instructions=[(0, 0, "LOAD"), (1, 1, "BNE")],
            mem_accesses=[(0, "read", 7), (1, "write", 7)],
            reg_accesses=[(0, "write", 3)],
            duration=2,
        )
        trace.pc_cycles(0)  # an index built before the pickle travels along
        # A spawn worker unpickles the coordinator's trace.
        rebuilt = pickle.loads(pickle.dumps(trace))
        assert rebuilt.instructions == trace.instructions
        assert rebuilt.mem_accesses == trace.mem_accesses
        assert rebuilt.reg_accesses == trace.reg_accesses
        assert rebuilt.duration == trace.duration
        # The lazy indices answer identically on the receiving side.
        assert rebuilt.pc_cycles(1) == trace.pc_cycles(1)
        memory_word = Location(kind=KIND_MEMORY, address=7, bit=0)
        assert rebuilt.next_access(memory_word, 1) == trace.next_access(memory_word, 1)


class TestGoldenSharedEquivalence:
    def make_golden(self) -> GoldenSnapshots:
        return GoldenSnapshots(
            period=100,
            chains=("internal", "boundary"),
            snapshots={
                100: ((1, 2, 3), (9,)),
                200: ((4, 5, 6), (2**70,)),  # second chain unpackable
            },
            duration=250,
        )

    def assert_equivalent(self, golden: GoldenSnapshots, other: GoldenSnapshots):
        assert other.cycles() == golden.cycles()
        assert other.period == golden.period
        assert other.chains == golden.chains
        assert other.duration == golden.duration
        for cycle in golden.cycles():
            for index in range(len(golden.chains)):
                assert other.chain_values(cycle, index) == golden.chain_values(
                    cycle, index
                )
                packed = golden.packed_chain(cycle, index)
                other_packed = other.packed_chain(cycle, index)
                if packed is None:
                    assert other_packed is None
                else:
                    assert other_packed == packed

    def test_shared_matches_payload(self):
        """The golden snapshots a ``spawn`` worker unpickles expose the
        same values through the same accessors as the coordinator's,
        packed chain images included: workers diff against the same
        images."""
        golden = self.make_golden()
        golden.packed_chain(100, 0)  # a lazy packing travels along
        via_pickle = pickle.loads(pickle.dumps(golden))
        self.assert_equivalent(golden, via_pickle)
