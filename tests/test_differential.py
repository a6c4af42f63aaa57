"""Differential testing: the CPU against an independent golden model.

Hypothesis generates random straight-line register programs; each runs
both on the THOR-RD-sim CPU and on a deliberately naive Python
evaluator written directly from the ISA's documented semantics.  Any
divergence is a simulator bug — this is the strongest correctness net
under the fault-injection results, since every campaign outcome rests
on the simulator computing the fault-free semantics exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.targets.thor.cpu import _HANDLERS, ThorCPU, _h_cmp, to_signed, to_word
from repro.targets.thor.isa import Instruction, Op, encode

#: Ops covered by the golden evaluator: all pure register arithmetic.
ALU_OPS = [
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR,
    Op.SHL, Op.SHR, Op.SAR, Op.NOT, Op.NEG, Op.MOV,
]
#: Registers used by generated programs (r12+ stay clear of SP).
REGS = list(range(12))


def golden_execute(op: Op, rd: int, ra: int, rb: int, regs: list[int]) -> None:
    """Reference semantics, written independently of the simulator."""
    a = regs[ra]
    b = regs[rb]
    if op is Op.ADD:
        regs[rd] = to_word(a + b)
    elif op is Op.SUB:
        regs[rd] = to_word(a - b)
    elif op is Op.MUL:
        regs[rd] = to_word(to_signed(a) * to_signed(b))
    elif op is Op.AND:
        regs[rd] = a & b
    elif op is Op.OR:
        regs[rd] = a | b
    elif op is Op.XOR:
        regs[rd] = a ^ b
    elif op is Op.SHL:
        regs[rd] = to_word(a << (b % 32))
    elif op is Op.SHR:
        regs[rd] = a >> (b % 32)
    elif op is Op.SAR:
        regs[rd] = to_word(to_signed(a) >> (b % 32))
    elif op is Op.NOT:
        regs[rd] = to_word(~a)
    elif op is Op.NEG:
        regs[rd] = to_word(-a)
    elif op is Op.MOV:
        regs[rd] = a
    else:  # pragma: no cover
        raise AssertionError(op)


alu_instruction = st.tuples(
    st.sampled_from(ALU_OPS),
    st.sampled_from(REGS),
    st.sampled_from(REGS),
    st.sampled_from(REGS),
)


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 0xFFFFFFFF), min_size=12, max_size=12),
    body=st.lists(alu_instruction, min_size=1, max_size=40),
)
def test_alu_programs_match_golden_model(seeds, body):
    """Random ALU programs compute identical register files on the
    simulator and on the golden evaluator."""
    program_words = []
    # Seed the registers with LDI/LDIH pairs.
    for register, seed in zip(REGS, seeds):
        program_words.append(encode(Instruction(Op.LDI, rd=register, imm=seed & 0xFFFF)))
        program_words.append(
            encode(Instruction(Op.LDIH, rd=register, imm=(seed >> 16) & 0xFFFF))
        )
    for op, rd, ra, rb in body:
        program_words.append(encode(Instruction(op, rd=rd, ra=ra, rb=rb)))
    program_words.append(encode(Instruction(Op.HALT)))

    cpu = ThorCPU()
    cpu.memory.load_image(0, program_words)
    cpu.reset()
    cpu.run(max_cycles=len(program_words) + 10)
    assert cpu.halted and cpu.detection is None

    golden = [0] * 16
    for register, seed in zip(REGS, seeds):
        golden[register] = seed & 0xFFFFFFFF
    for op, rd, ra, rb in body:
        golden_execute(op, rd, ra, rb, golden)

    assert cpu.regs[:12] == golden[:12]


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(0, 0xFFFFFFFF),
    b=st.integers(0, 0xFFFFFFFF),
    op=st.sampled_from([Op.DIV, Op.MOD]),
)
def test_division_matches_c_semantics(a, b, op):
    """DIV/MOD truncate toward zero with sign like C (and detect /0)."""
    program = [
        encode(Instruction(Op.LDI, rd=1, imm=a & 0xFFFF)),
        encode(Instruction(Op.LDIH, rd=1, imm=(a >> 16) & 0xFFFF)),
        encode(Instruction(Op.LDI, rd=2, imm=b & 0xFFFF)),
        encode(Instruction(Op.LDIH, rd=2, imm=(b >> 16) & 0xFFFF)),
        encode(Instruction(op, rd=3, ra=1, rb=2)),
        encode(Instruction(Op.HALT)),
    ]
    cpu = ThorCPU()
    cpu.memory.load_image(0, program)
    cpu.reset()
    cpu.run(50)
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        assert cpu.detection is not None
        return
    quotient = int(sa / sb)
    expected = quotient if op is Op.DIV else sa - quotient * sb
    assert to_signed(cpu.regs[3]) == expected


@settings(max_examples=100, deadline=None)
@given(a=st.integers(0, 0xFFFFFFFF), b=st.integers(0, 0xFFFFFFFF))
def test_compare_flags_match_python_comparisons(a, b):
    """After CMP, every signed branch condition agrees with Python."""
    cpu = ThorCPU()
    cpu.regs[1], cpu.regs[2] = a, b
    _h_cmp(cpu, Instruction(Op.CMP, ra=1, rb=2))

    def taken(op: Op) -> bool:
        cpu.pc = 0
        _HANDLERS[op](cpu, Instruction(op, imm=0x100))
        return cpu.pc == 0x100

    sa, sb = to_signed(a), to_signed(b)
    assert taken(Op.BEQ) == (sa == sb)
    assert taken(Op.BNE) == (sa != sb)
    assert taken(Op.BLT) == (sa < sb)
    assert taken(Op.BLE) == (sa <= sb)
    assert taken(Op.BGT) == (sa > sb)
    assert taken(Op.BGE) == (sa >= sb)
    assert taken(Op.BCS) == (a < b)  # unsigned borrow
