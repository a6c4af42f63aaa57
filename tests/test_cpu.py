"""Tests for the THOR-RD-sim execution core."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.targets.thor.assembler import assemble
from repro.targets.thor.cpu import (
    StopReason,
    ThorCPU,
    _h_add,
    _h_sub,
    to_signed,
    to_word,
)
from repro.targets.thor.edm import Mechanism
from repro.targets.thor.isa import REG_SP, Instruction, Op
from repro.targets.thor.memory import DATA_BASE, STACK_TOP


def run_source(source: str, max_cycles: int = 10_000) -> ThorCPU:
    """Assemble, load, run to a stop, return the CPU."""
    cpu = ThorCPU()
    program = assemble(source)
    cpu.memory.load_image(program.program_base, program.program)
    if program.data:
        cpu.memory.load_image(program.data_base, program.data)
    cpu.reset(entry_point=program.entry_point)
    cpu.run(max_cycles)
    return cpu


class TestArithmetic:
    def test_add(self):
        cpu = run_source("LDI r1, 30\nLDI r2, 12\nADD r3, r1, r2\nHALT")
        assert cpu.regs[3] == 42

    def test_add_sets_carry_and_wraps(self):
        cpu = run_source(
            """
            LDI r1, 0xFFFF
            LDIH r1, 0xFFFF
            LDI r2, 1
            ADD r3, r1, r2
            HALT
            """
        )
        assert cpu.regs[3] == 0
        assert cpu.flag_c == 1
        assert cpu.flag_z == 1

    def test_signed_overflow_sets_v(self):
        cpu = run_source(
            """
            LDI r1, 0xFFFF
            LDIH r1, 0x7FFF     ; INT_MAX
            LDI r2, 1
            ADD r3, r1, r2
            HALT
            """
        )
        assert cpu.flag_v == 1
        assert to_signed(cpu.regs[3]) == -(2**31)

    def test_sub_borrow(self):
        cpu = run_source("LDI r1, 3\nLDI r2, 5\nSUB r3, r1, r2\nHALT")
        assert to_signed(cpu.regs[3]) == -2
        assert cpu.flag_c == 1
        assert cpu.flag_n == 1

    def test_mul_signed(self):
        cpu = run_source("LDI r1, 7\nLDI r2, 6\nNEG r2, r2\nMUL r3, r1, r2\nHALT")
        assert to_signed(cpu.regs[3]) == -42

    def test_div_truncates_toward_zero(self):
        cpu = run_source("LDI r1, 7\nNEG r1, r1\nLDI r2, 2\nDIV r3, r1, r2\nHALT")
        assert to_signed(cpu.regs[3]) == -3

    def test_mod(self):
        cpu = run_source("LDI r1, 17\nLDI r2, 5\nMOD r3, r1, r2\nHALT")
        assert cpu.regs[3] == 2

    def test_div_by_zero_is_detected(self):
        cpu = run_source("LDI r1, 1\nLDI r2, 0\nDIV r3, r1, r2\nHALT")
        assert cpu.detection is not None
        assert cpu.detection.mechanism is Mechanism.ARITHMETIC

    def test_logic_ops(self):
        cpu = run_source(
            """
            LDI r1, 0xF0F0
            LDI r2, 0x0FF0
            AND r3, r1, r2
            OR  r4, r1, r2
            XOR r5, r1, r2
            NOT r6, r1
            HALT
            """
        )
        assert cpu.regs[3] == 0x00F0
        assert cpu.regs[4] == 0xFFF0
        assert cpu.regs[5] == 0xFF00
        assert cpu.regs[6] == 0xFFFF0F0F

    def test_shifts(self):
        cpu = run_source(
            """
            LDI r1, 1
            LDI r2, 4
            SHL r3, r1, r2      ; 16
            LDI r4, 0x8000
            LDIH r4, 0x8000     ; sign bit set
            SHR r5, r4, r2      ; logical
            SAR r6, r4, r2      ; arithmetic
            HALT
            """
        )
        assert cpu.regs[3] == 16
        assert cpu.regs[5] == 0x08000800
        assert cpu.regs[6] == 0xF8000800

    def test_addi_negative(self):
        cpu = run_source("LDI r1, 10\nADDI r1, r1, -3\nHALT")
        assert cpu.regs[1] == 7

    def test_ldih_combines_halves(self):
        cpu = run_source("LDI r1, 0xBEEF\nLDIH r1, 0xDEAD\nHALT")
        assert cpu.regs[1] == 0xDEADBEEF


class TestBranches:
    @pytest.mark.parametrize(
        "compare, branch, taken",
        [
            ("LDI r1, 5\nLDI r2, 5", "BEQ", True),
            ("LDI r1, 5\nLDI r2, 6", "BEQ", False),
            ("LDI r1, 5\nLDI r2, 6", "BNE", True),
            ("LDI r1, 4\nLDI r2, 6", "BLT", True),
            ("LDI r1, 6\nLDI r2, 6", "BLT", False),
            ("LDI r1, 6\nLDI r2, 6", "BLE", True),
            ("LDI r1, 7\nLDI r2, 6", "BGT", True),
            ("LDI r1, 6\nLDI r2, 6", "BGE", True),
            ("LDI r1, 5\nLDI r2, 6", "BGE", False),
        ],
    )
    def test_conditional_branches(self, compare, branch, taken):
        cpu = run_source(
            f"""
            {compare}
            CMP r1, r2
            {branch} hit
            LDI r3, 1
            HALT
            hit:
            LDI r3, 2
            HALT
            """
        )
        assert cpu.regs[3] == (2 if taken else 1)

    def test_signed_comparison_with_negatives(self):
        cpu = run_source(
            """
            LDI r1, 1
            NEG r1, r1          ; -1
            CMPI r1, 1
            BLT hit
            LDI r3, 1
            HALT
            hit:
            LDI r3, 2
            HALT
            """
        )
        assert cpu.regs[3] == 2

    def test_bcs_on_unsigned_borrow(self):
        cpu = run_source(
            """
            LDI r1, 1
            LDI r2, 2
            CMP r1, r2
            BCS hit
            LDI r3, 1
            HALT
            hit:
            LDI r3, 2
            HALT
            """
        )
        assert cpu.regs[3] == 2

    def test_bvs_on_overflow(self):
        cpu = run_source(
            """
            LDI r1, 0xFFFF
            LDIH r1, 0x7FFF
            CMPI r1, -1         ; INT_MAX - (-1) overflows
            BVS hit
            LDI r3, 1
            HALT
            hit:
            LDI r3, 2
            HALT
            """
        )
        assert cpu.regs[3] == 2


class TestMemoryInstructions:
    def test_load_store_absolute(self):
        cpu = run_source(
            """
            LDI r1, 99
            STA r1, slot
            LDA r2, slot
            HALT
            .data
            slot: .word 0
            """
        )
        assert cpu.regs[2] == 99

    def test_load_store_indexed(self):
        cpu = run_source(
            """
            LDI r1, =buf
            LDI r2, 7
            ST r2, [r1+1]
            LD r3, [r1+1]
            HALT
            .data
            buf: .space 4
            """
        )
        assert cpu.regs[3] == 7

    def test_write_to_program_area_detected(self):
        cpu = run_source("LDI r1, 0\nSTA r1, 0\nHALT")
        assert cpu.detection is not None
        assert cpu.detection.mechanism is Mechanism.MEM_VIOLATION

    def test_jump_outside_program_area_detected(self):
        cpu = run_source("BR 0x9000")
        assert cpu.detection is not None
        assert cpu.detection.mechanism is Mechanism.MEM_VIOLATION

    def test_mar_mdr_track_last_access(self):
        cpu = run_source(
            """
            LDI r1, 123
            STA r1, slot
            HALT
            .data
            slot: .word 0
            """
        )
        assert cpu.mar == DATA_BASE
        assert cpu.mdr == 123


class TestStackAndCalls:
    def test_push_pop(self):
        cpu = run_source("LDI r1, 11\nPUSH r1\nLDI r1, 0\nPOP r2\nHALT")
        assert cpu.regs[2] == 11
        assert cpu.regs[REG_SP] == STACK_TOP

    def test_call_ret(self):
        cpu = run_source(
            """
            LDI r1, 1
            CALL sub
            LDI r3, 3
            HALT
            sub:
            LDI r2, 2
            RET
            """
        )
        assert (cpu.regs[1], cpu.regs[2], cpu.regs[3]) == (1, 2, 3)

    def test_nested_calls(self):
        cpu = run_source(
            """
            CALL a
            HALT
            a:
            CALL b
            LDI r1, 1
            RET
            b:
            LDI r2, 2
            RET
            """
        )
        assert (cpu.regs[1], cpu.regs[2]) == (1, 2)

    def test_stack_underflow_detected(self):
        cpu = ThorCPU()
        program = assemble("POP r1\nHALT")
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        cpu.regs[REG_SP] = 0x100  # point SP into the program area
        cpu.run(100)
        assert cpu.detection is not None
        assert cpu.detection.mechanism is Mechanism.STACK


class TestTrapsAndIO:
    def test_trap_is_detected_with_code(self):
        cpu = run_source("TRAP 7")
        assert cpu.detection is not None
        assert cpu.detection.mechanism is Mechanism.SOFTWARE_TRAP
        assert "7" in cpu.detection.detail

    def test_out_logs_and_latches(self):
        cpu = run_source("LDI r1, 5\nOUT r1, 2\nLDI r1, 6\nOUT r1, 2\nHALT")
        assert cpu.output_ports[2] == 6
        assert [(p, v) for _c, p, v in cpu.output_log] == [(2, 5), (2, 6)]

    def test_in_reads_port_latch(self):
        cpu = ThorCPU()
        program = assemble("IN r1, 3\nHALT")
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        cpu.input_ports[3] = 0xCAFE
        cpu.run(10)
        assert cpu.regs[1] == 0xCAFE

    def test_in_unset_port_reads_zero(self):
        cpu = run_source("IN r1, 9\nHALT")
        assert cpu.regs[1] == 0

    def test_iter_counts_and_stops(self):
        cpu = ThorCPU()
        program = assemble("ITER\nITER\nHALT")
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        assert cpu.run(100) is StopReason.ITERATION
        assert cpu.iteration == 1
        assert cpu.run(100) is StopReason.ITERATION
        assert cpu.iteration == 2
        assert cpu.run(100) is StopReason.HALTED


class TestExecutionControl:
    def test_halt_reason_and_flag(self):
        cpu = run_source("HALT")
        assert cpu.halted
        assert cpu.detection is None

    def test_cycle_limit_is_watchdog(self):
        cpu = ThorCPU()
        program = assemble("spin: BR spin")
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        assert cpu.run(50) is StopReason.CYCLE_LIMIT
        assert cpu.cycle == 50

    def test_address_breakpoint_stops_before_execution(self):
        cpu = ThorCPU()
        program = assemble("LDI r1, 1\nLDI r2, 2\nHALT")
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        cpu.breakpoints.add(1)
        assert cpu.run(100) is StopReason.BREAKPOINT
        assert cpu.pc == 1
        assert cpu.regs[2] == 0  # not yet executed

    def test_stop_at_cycle(self):
        cpu = ThorCPU()
        program = assemble("LDI r1, 1\nLDI r2, 2\nLDI r3, 3\nHALT")
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        assert cpu.run(100, stop_at_cycle=2) is StopReason.CYCLE_BREAK
        assert cpu.cycle == 2
        assert cpu.regs[3] == 0

    def test_run_after_halt_keeps_reason(self):
        cpu = run_source("HALT")
        assert cpu.run(100) is StopReason.HALTED

    def test_illegal_opcode_detected(self):
        cpu = ThorCPU()
        cpu.memory.load_image(0, [0xEE000000])
        cpu.reset()
        assert cpu.run(10) is StopReason.DETECTED
        assert cpu.detection.mechanism is Mechanism.ILLEGAL_OPCODE

    def test_reset_clears_state(self):
        cpu = run_source("LDI r1, 1\nOUT r1, 1\nHALT")
        cpu.reset()
        assert cpu.regs[1] == 0
        assert cpu.cycle == 0
        assert not cpu.halted
        assert cpu.output_log == []
        assert cpu.regs[REG_SP] == STACK_TOP


class TestPSW:
    def test_psw_packs_flags(self):
        cpu = ThorCPU()
        cpu.flag_z, cpu.flag_n, cpu.flag_c, cpu.flag_v = 1, 0, 1, 0
        assert cpu.psw == 0b1010

    def test_psw_setter_unpacks(self):
        cpu = ThorCPU()
        cpu.psw = 0b0101
        assert (cpu.flag_z, cpu.flag_n, cpu.flag_c, cpu.flag_v) == (0, 1, 0, 1)


class TestHooks:
    def test_trace_hook_sees_every_instruction(self):
        cpu = ThorCPU()
        program = assemble("LDI r1, 1\nNOP\nHALT")
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        seen = []
        cpu.trace_hook = lambda cycle, pc, inst: seen.append((cycle, pc, inst.op.name))
        cpu.run(100)
        assert seen == [(0, 0, "LDI"), (1, 1, "NOP"), (2, 2, "HALT")]

    def test_mem_hook_sees_reads_and_writes(self):
        cpu = ThorCPU()
        program = assemble(
            """
            LDI r1, 5
            STA r1, slot
            LDA r2, slot
            HALT
            .data
            slot: .word 0
            """
        )
        cpu.memory.load_image(0, program.program)
        cpu.memory.load_image(program.data_base, program.data)
        cpu.reset()
        accesses = []
        cpu.mem_hook = lambda access: accesses.append((access.kind, access.address))
        cpu.run(100)
        assert accesses == [("write", DATA_BASE), ("read", DATA_BASE)]

    def test_post_step_hook_runs_each_instruction(self):
        cpu = ThorCPU()
        program = assemble("NOP\nNOP\nHALT")
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        count = []
        cpu.post_step_hooks.append(lambda c: count.append(c.cycle))
        cpu.run(100)
        assert len(count) == 3


class TestOverflowTrapMode:
    def test_overflow_trap_enabled(self):
        cpu = ThorCPU(trap_on_overflow=True)
        program = assemble(
            """
            LDI r1, 0xFFFF
            LDIH r1, 0x7FFF
            LDI r2, 1
            ADD r3, r1, r2
            HALT
            """
        )
        cpu.memory.load_image(0, program.program)
        cpu.reset()
        assert cpu.run(100) is StopReason.DETECTED
        assert cpu.detection.mechanism is Mechanism.OVERFLOW

    def test_overflow_silent_by_default(self):
        cpu = run_source(
            """
            LDI r1, 0xFFFF
            LDIH r1, 0x7FFF
            LDI r2, 1
            ADD r3, r1, r2
            HALT
            """
        )
        assert cpu.detection is None
        assert cpu.flag_v == 1


@given(a=st.integers(0, 0xFFFFFFFF), b=st.integers(0, 0xFFFFFFFF))
def test_property_add_matches_python_semantics(a, b):
    cpu = ThorCPU()
    cpu.regs[1], cpu.regs[2] = a, b
    assert _h_add(cpu, Instruction(Op.ADD, rd=3, ra=1, rb=2)) is None
    result = cpu.regs[3]
    assert result == (a + b) & 0xFFFFFFFF
    assert cpu.flag_c == (1 if a + b > 0xFFFFFFFF else 0)
    assert cpu.flag_z == (1 if result == 0 else 0)


@given(a=st.integers(0, 0xFFFFFFFF), b=st.integers(0, 0xFFFFFFFF))
def test_property_sub_matches_python_semantics(a, b):
    cpu = ThorCPU()
    cpu.regs[1], cpu.regs[2] = a, b
    assert _h_sub(cpu, Instruction(Op.SUB, rd=3, ra=1, rb=2)) is None
    result = cpu.regs[3]
    assert result == (a - b) & 0xFFFFFFFF
    assert cpu.flag_c == (1 if a < b else 0)
    signed_diff = to_signed(a) - to_signed(b)
    assert cpu.flag_v == (1 if not -(2**31) <= signed_diff < 2**31 else 0)


@given(value=st.integers(-(2**31), 2**31 - 1))
def test_property_signed_word_roundtrip(value):
    assert to_signed(to_word(value)) == value
