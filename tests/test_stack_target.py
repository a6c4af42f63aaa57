"""Tests for THOR-SM, the stack-machine target."""

from __future__ import annotations

import pytest

from repro import CampaignConfig, GoofiSession, ObservationSpec, Termination
from repro.core.faultmodels import StuckAt
from repro.core.locations import Location
from repro.targets.stack import (
    SAssemblerError,
    SIllegalOpcode,
    SInstruction,
    SOp,
    StackMachine,
    StackTargetInterface,
    s_assemble,
    s_decode,
    s_encode,
    s_expected_output,
    s_load,
)
from repro.targets.stack.machine import DATA_BASE

TERM = Termination(max_cycles=100_000)


def run_stack_source(source: str, max_cycles: int = 10_000) -> StackMachine:
    machine = StackMachine()
    program = s_assemble(source)
    machine.load_image(0, program.program)
    machine.load_image(program.data_base, program.data)
    machine.reset(program.entry_point)
    machine.run(max_cycles)
    return machine


class TestIsa:
    @pytest.mark.parametrize("op", list(SOp))
    def test_encode_decode_roundtrip(self, op):
        inst = SInstruction(op, operand=0x1234)
        decoded = s_decode(s_encode(inst))
        assert decoded.op is op
        assert decoded.operand == 0x1234

    def test_illegal_opcode(self):
        with pytest.raises(SIllegalOpcode):
            s_decode(0xEE000000)


class TestMachineSemantics:
    def test_arithmetic_stack_discipline(self):
        machine = run_stack_source(
            """
            PUSHI 30
            PUSHI 12
            SUB
            OUT 1
            HALT
            """
        )
        assert machine.output_log[-1][2] == 18

    def test_stack_manipulation_ops(self):
        machine = run_stack_source(
            """
            PUSHI 1
            PUSHI 2
            OVER        ; 1 2 1
            ADD         ; 1 3
            SWAP        ; 3 1
            DROP        ; 3
            DUP
            ADD         ; 6
            OUT 1
            HALT
            """
        )
        assert machine.output_log[-1][2] == 6

    def test_pushih_builds_32bit_constants(self):
        machine = run_stack_source("PUSHI 0xBEEF\nPUSHIH 0xDEAD\nOUT 1\nHALT")
        assert machine.output_log[-1][2] == 0xDEADBEEF

    def test_lt_and_eq_are_signed(self):
        machine = run_stack_source(
            """
            PUSHI 1
            NEG         ; -1
            PUSHI 1
            LT          ; -1 < 1 -> 1
            OUT 1
            PUSHI 5
            PUSHI 5
            EQ
            OUT 2
            HALT
            """
        )
        assert machine.output_ports[1] == 1
        assert machine.output_ports[2] == 1

    def test_indirect_load_store(self):
        machine = run_stack_source(
            """
            PUSHI 77
            PUSHI =slot
            STOREI
            PUSHI =slot
            LOADI
            OUT 1
            HALT
            .data
            slot: .word 0
            """
        )
        assert machine.output_log[-1][2] == 77

    def test_call_ret_nesting(self):
        machine = run_stack_source(
            """
            CALL a
            OUT 1
            HALT
            a:
            CALL b
            PUSHI 1
            ADD
            RET
            b:
            PUSHI 41
            RET
            """
        )
        assert machine.output_log[-1][2] == 42

    def test_iter_counts(self):
        machine = StackMachine()
        program = s_assemble("ITER\nITER\nHALT")
        machine.load_image(0, program.program)
        machine.reset()
        assert machine.run(100) == "iteration"
        assert machine.run(100) == "iteration"
        assert machine.run(100) == "halted"
        assert machine.iteration == 2


class TestMachineEdms:
    def test_data_stack_underflow(self):
        machine = run_stack_source("DROP\nHALT")
        assert machine.detection["mechanism"] == "stack_bounds"

    def test_data_stack_overflow(self):
        source = "\n".join(["PUSHI 1"] * 17) + "\nHALT"
        machine = run_stack_source(source)
        assert machine.detection["mechanism"] == "stack_bounds"
        assert "overflow" in machine.detection["detail"]

    def test_return_stack_underflow(self):
        machine = run_stack_source("RET")
        assert machine.detection["mechanism"] == "stack_bounds"

    def test_div_by_zero(self):
        machine = run_stack_source("PUSHI 5\nPUSHI 0\nDIV\nHALT")
        assert machine.detection["mechanism"] == "arithmetic"

    def test_store_into_program_area(self):
        machine = run_stack_source("PUSHI 9\nSTORE 0\nHALT")
        assert machine.detection["mechanism"] == "mem_violation"

    def test_fetch_outside_program(self):
        machine = run_stack_source(f"BR {DATA_BASE + 5}")
        assert machine.detection["mechanism"] == "mem_violation"

    def test_illegal_opcode_detected(self):
        machine = StackMachine()
        machine.memory[0] = 0xEE000000
        machine.reset()
        assert machine.run(10) == "detected"
        assert machine.detection["mechanism"] == "illegal_opcode"

    def test_stack_parity_catches_cell_corruption(self):
        machine = StackMachine()
        program = s_assemble("PUSHI 5\nNOP\nNOP\nPUSHI 2\nADD\nOUT 1\nHALT")
        machine.load_image(0, program.program)
        machine.reset()
        assert machine.run(1000, stop_at_cycle=2) == "cycle_break"
        machine.dstack[0] ^= 1 << 7  # corrupt the live cell (SCIFI-style)
        assert machine.run(1000) == "detected"
        assert machine.detection["mechanism"] == "dstack_parity"

    def test_stack_parity_bit_corruption_detected(self):
        machine = StackMachine()
        program = s_assemble("PUSHI 5\nNOP\nDROP\nHALT")
        machine.load_image(0, program.program)
        machine.reset()
        machine.run(1000, stop_at_cycle=2)
        machine.dparity[0] ^= 1
        assert machine.run(1000) == "detected"

    def test_return_stack_parity(self):
        machine = StackMachine()
        program = s_assemble("CALL sub\nHALT\nsub:\nNOP\nNOP\nRET")
        machine.load_image(0, program.program)
        machine.reset()
        machine.run(1000, stop_at_cycle=2)
        machine.rstack[0] ^= 1
        assert machine.run(1000) == "detected"
        assert machine.detection["mechanism"] == "rstack_parity"


class TestAssembler:
    def test_unknown_mnemonic(self):
        with pytest.raises(SAssemblerError, match="unknown mnemonic"):
            s_assemble("FLY 1")

    def test_missing_operand(self):
        with pytest.raises(SAssemblerError, match="needs an operand"):
            s_assemble("PUSHI")

    def test_spurious_operand(self):
        with pytest.raises(SAssemblerError, match="takes no operand"):
            s_assemble("DUP 3")

    def test_duplicate_label(self):
        with pytest.raises(SAssemblerError, match="duplicate"):
            s_assemble("x: NOP\nx: HALT")

    def test_symbols_and_data(self):
        program = s_assemble("HALT\n.data\nv: .word 1, 2\nb: .space 2")
        assert program.symbols["v"] == DATA_BASE
        assert program.symbols["b"] == DATA_BASE + 2
        assert program.data == [1, 2, 0, 0]


class TestWorkloads:
    @pytest.mark.parametrize("name", ["s_sumvec", "s_fib", "s_checksum"])
    def test_golden_outputs(self, name):
        program = s_load(name)
        machine = StackMachine()
        machine.load_image(0, program.program)
        machine.load_image(program.data_base, program.data)
        machine.reset(program.entry_point)
        assert machine.run(100_000) == "halted"
        assert machine.output_log[-1][2] == s_expected_output(name)


class TestInterface:
    @pytest.fixture
    def stack_target(self) -> StackTargetInterface:
        return StackTargetInterface()

    def test_scan_injection_roundtrip(self, stack_target):
        stack_target.init_test_card()
        stack_target.load_workload("s_fib")
        stack_target.run_workload()
        assert stack_target.wait_for_breakpoint(10) is None
        location = Location(kind="scan", chain="internal", element="dstack.C3", bit=4)
        stack_target.read_scan_chain("internal")
        stack_target.inject_fault(location)
        stack_target.write_scan_chain("internal")
        assert stack_target.machine.dstack[3] == 1 << 4

    def test_trace_records_branch_mnemonics(self, stack_target):
        stack_target.init_test_card()
        stack_target.load_workload("s_fib")
        info, trace = stack_target.record_trace(TERM)
        assert info.outcome == "workload_end"
        assert trace.branch_cycles()  # BR/BZ names satisfy the B-prefix rule
        assert trace.duration == info.cycle

    def test_stuck_at_overlay_on_stack_pointer(self, stack_target):
        stack_target.init_test_card()
        stack_target.load_workload("s_sumvec")
        stack_target.run_workload()
        assert stack_target.wait_for_breakpoint(5) is None
        location = Location(kind="scan", chain="internal", element="ctrl.DSP", bit=3)
        stack_target.install_fault_overlay(location, StuckAt(1), seed=1)
        info = stack_target.wait_for_termination(TERM)
        # DSP forced to >= 8 wrecks stack discipline fast.
        assert info.outcome in ("error_detected", "timeout", "workload_end")
        assert info.outcome != "workload_end" or info.detection is None

    def test_describe_reports_architecture(self, stack_target):
        description = stack_target.describe()
        assert "stack machine" in description["architecture"]
        assert "s_fib" in description["workloads"]


class TestCampaignOnStackTarget:
    def test_generic_tool_runs_unchanged(self):
        """The acceptance test of the porting claim: the same generic
        algorithms + DB + analysis over the stack target."""
        with GoofiSession(target_name="thor-sm") as session:
            session.target.init_test_card()
            session.target.load_workload("s_checksum")
            data = session.target.location_space().region("data")
            config = CampaignConfig(
                name="sm",
                target="thor-sm",
                technique="scifi",
                workload="s_checksum",
                location_patterns=(
                    "internal:dstack.C0", "internal:dstack.C1",
                    "internal:ctrl.DSP", "internal:ctrl.PC",
                ),
                num_experiments=60,
                termination=Termination(max_cycles=5_000),
                observation=ObservationSpec(
                    scan_elements=("internal:ctrl.DSP",),
                    memory_ranges=((data.base, data.words),),
                ),
                seed=9,
            )
            session.setup_campaign(config)
            result = session.run_campaign("sm")
            assert result.experiments_run == 60
            classification = session.classify("sm")
            assert classification.total == 60
            assert classification.effective > 0

    def test_swifi_preruntime_on_stack_target(self):
        with GoofiSession(target_name="thor-sm") as session:
            session.target.init_test_card()
            session.target.load_workload("s_sumvec")
            config = CampaignConfig(
                name="smpre",
                target="thor-sm",
                technique="swifi_preruntime",
                workload="s_sumvec",
                location_patterns=("memory:program", "memory:data"),
                num_experiments=40,
                termination=Termination(max_cycles=5_000),
                observation=ObservationSpec(memory_ranges=((DATA_BASE, 14),)),
                seed=10,
            )
            session.setup_campaign(config)
            result = session.run_campaign("smpre")
            assert result.experiments_run == 40
            assert session.classify("smpre").effective > 0

    def test_scan_fault_past_the_data_stack_is_a_detection(self):
        """A flip of the 5-bit ctrl.DSP over 16 cells can point past the
        data stack; the next pop must be a stack-bounds detection and
        the campaign must log every experiment, not abort."""
        with GoofiSession(target_name="thor-sm") as session:
            session.target.init_test_card()
            session.target.load_workload("s_checksum")
            data = session.target.location_space().region("data")
            config = CampaignConfig(
                name="dsp",
                target="thor-sm",
                technique="scifi",
                workload="s_checksum",
                location_patterns=("internal:ctrl.DSP",),
                num_experiments=30,
                termination=Termination(max_cycles=5_000),
                observation=ObservationSpec(memory_ranges=((data.base, data.words),)),
                seed=5,
            )
            session.setup_campaign(config)
            result = session.run_campaign("dsp")
            assert not result.aborted
            assert result.experiments_run == 30
            classification = session.classify("dsp")
            assert classification.total == 30
            assert "stack_bounds" in {c.mechanism for c in classification.classifications}
