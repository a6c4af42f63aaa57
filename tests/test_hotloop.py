"""Fast-loop equivalence: the fused execution engine vs the reference loop.

``ThorCPU.run`` and ``StackMachine.run`` dispatch to a fused fast path
whenever nothing observes individual steps; the slow observable step
loop (``_run_observed``) is the semantics contract.  These tests pin the
equivalence down where the two loops are easiest to drive apart:

* runs under observation (trace/memory hooks force the reference loop);
* hooks attached *mid-run*, after a fast segment already executed;
* address breakpoints landing inside a fused segment;
* stop-at-cycle boundaries, including the tie with the cycle budget;
* the inlined cache paths: repeated icache miss fills, a fetch outside
  the program area, and icache/dcache lines corrupted at a break;
* instruction words rewritten mid-run (the decode caches key on the raw
  word, so self-modified code needs no invalidation);
* one Hypothesis property per core over short programs drawn from every
  opcode, with operands, stacks or caches, and run bounds drawn in and
  out of range, so that each edge of an inline opcode is met;
* whole campaigns — SCIFI, pre-runtime SWIFI, runtime SWIFI, pin-level,
  serial/parallel/checkpointed — whose logged rows must be bit-identical
  between ``fast=True`` and ``fast=False``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_campaign
from repro import CampaignConfig, GoofiSession, ObservationSpec, Termination
from repro.targets.stack import StackMachine, s_load
from repro.targets.stack.isa import DATA_STACK_CELLS, RETURN_STACK_CELLS, SOp
from repro.targets.stack.machine import DATA_BASE, MEMORY_WORDS
from repro.targets.thor.assembler import assemble
from repro.targets.thor.cpu import StopReason, ThorCPU
from repro.targets.thor.edm import Mechanism
from repro.targets.thor.isa import BRANCH_OPS, CALL_OPS, REG_SP, Op
from repro.targets.thor.memory import DATA_BASE as THOR_DATA_BASE
from repro.targets.thor.testcard import TestCard


LOOP_SOURCE = """
    LDI r1, 0
    LDI r2, 40
loop:
    ADD r1, r1, r2
    ADDI r2, r2, -1
    CMPI r2, 0
    BGT loop
    HALT
"""


def fresh_cpu(source: str = LOOP_SOURCE, fast: bool = True) -> ThorCPU:
    cpu = ThorCPU()
    cpu.fast = fast
    program = assemble(source)
    cpu.memory.load_image(program.program_base, program.program)
    if program.data:
        cpu.memory.load_image(program.data_base, program.data)
    cpu.reset(entry_point=program.entry_point)
    return cpu


def fresh_machine(workload: str = "s_fib", fast: bool = True) -> StackMachine:
    machine = StackMachine()
    machine.fast = fast
    program = s_load(workload)
    machine.load_image(0, program.program)
    machine.load_image(program.data_base, program.data)
    machine.reset(program.entry_point)
    return machine


def stack_word(op: SOp, operand: int = 0) -> int:
    return (int(op) << 24) | operand


def stack_setup(
    words,
    *,
    fast: bool,
    data=(),
    dcells=(),
    dbad=(),
    rcells=(),
    rbad=(),
    pointers=None,
) -> StackMachine:
    """A THOR-SM with ``words`` at address 0, ``data`` at the data
    base, the stacks filled bottom-up from ``dcells``/``rcells`` with
    correct parity except at the cells in ``dbad``/``rbad``, and
    ``pointers`` = ``(dsp, rsp)`` overriding the stack depths."""
    machine = StackMachine()
    machine.fast = fast
    machine.load_image(0, words)
    machine.load_image(DATA_BASE, data)
    machine.reset(0)
    for stack, parity, cells, bad in (
        (machine.dstack, machine.dparity, dcells, dbad),
        (machine.rstack, machine.rparity, rcells, rbad),
    ):
        for index, value in enumerate(cells):
            stack[index] = value
            parity[index] = value.bit_count() & 1
        for index in bad:
            parity[index] ^= 1
    machine.dsp, machine.rsp = pointers or (len(dcells), len(rcells))
    return machine


def stack_run_both(words, runs=((10_000, None),), **setup) -> StackMachine:
    """Run the same set-up through the fused loop and the reference
    loop, one ``run(max_cycles, stop_at_cycle)`` call per entry of
    ``runs``, and assert that both give the same outcomes (or raise the
    same exception type), the same ``save_state()`` and the same
    ``detection``.  Returns the fast machine."""
    seen = []
    for fast in (True, False):
        machine = stack_setup(words, fast=fast, **setup)
        outcomes = []
        for max_cycles, stop_at_cycle in runs:
            try:
                outcomes.append(machine.run(max_cycles, stop_at_cycle))
            except Exception as exc:  # noqa: BLE001 - compared, not hidden
                outcomes.append(type(exc))
                break
        seen.append((machine, outcomes, machine.save_state(), machine.detection))
    (fast_machine, *fast_result), (ref_machine, *ref_result) = seen
    assert fast_result == ref_result
    assert fast_machine.fast_segments == len(fast_result[0])
    assert ref_machine.fast_segments == 0
    return fast_machine


#: Data-stack cells each popping opcode takes, in pop order.
DATA_POPS = {
    SOp.PUSHIH: 1, SOp.STORE: 1, SOp.LOADI: 1, SOp.STOREI: 2,
    SOp.DUP: 1, SOp.DROP: 1, SOp.SWAP: 2, SOp.OVER: 2,
    SOp.ADD: 2, SOp.SUB: 2, SOp.MUL: 2, SOp.DIV: 2, SOp.AND: 2,
    SOp.OR: 2, SOp.XOR: 2, SOp.NOT: 1, SOp.NEG: 1, SOp.LT: 2,
    SOp.EQ: 2, SOp.BZ: 1, SOp.BNZ: 1, SOp.OUT: 1,
}
HALT = stack_word(SOp.HALT)

#: The opcodes the fused loop runs inline.
INLINE_OPS = [
    SOp.LOAD, SOp.STORE, SOp.PUSHI, SOp.LOADI, SOp.ADD, SOp.SUB,
    SOp.XOR, SOp.LT, SOp.BR, SOp.BZ, SOp.CALL, SOp.RET,
]
#: Every opcode byte, the inline ones three times as likely, plus three
#: undefined ones.
OPCODE_BYTES = [int(op) for op in list(SOp) + INLINE_OPS * 2] + [0x03, 0x2F, 0xFF]
#: Where drawn operands and cell values lie: small (branch targets,
#: program area), data words, anywhere in data memory, past memory, and
#: any 32-bit word.
_VALUE_RANGES = (
    (0, 13),
    (DATA_BASE, DATA_BASE + 8),
    (DATA_BASE, MEMORY_WORDS),
    (MEMORY_WORDS - 2, 0x10000),
    (0, 0x100000000),
)
_BOUND = st.integers(0, 48)


@st.composite
def stack_cases(draw):
    """A short program over every opcode with operands in and out of
    range, the initial stacks with corrupted parity cells (each of the
    top three of a stack with odds 1 in 3), and one or two run calls
    with drawn bounds.  Now and then a stack pointer lies past its
    stack, as a scan-injected ``ctrl.DSP``/``ctrl.RSP`` can.

    Sizes and bounds are drawn; words and cell contents come from one
    drawn seed, since drawing each of them costs far more than the runs
    and the property needs many examples to meet each edge."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def value() -> int:
        low, high = rng.choice(_VALUE_RANGES)
        return rng.randrange(low, high)

    def stack(cells: int) -> tuple[list[int], set[int]]:
        values = [value() for _ in range(cells)]
        bad = {cells - 1 - down for down in range(min(3, cells)) if rng.random() < 1 / 3}
        return values, bad

    words = [
        (rng.choice(OPCODE_BYTES) << 24) | (value() & 0xFFFF)
        for _ in range(draw(st.integers(1, 12)))
    ]
    dcells, dbad = stack(draw(st.integers(0, DATA_STACK_CELLS)))
    rcells, rbad = stack(draw(st.integers(0, RETURN_STACK_CELLS)))
    pointers = None
    if draw(st.integers(0, 7)) == 0:
        pointers = (draw(st.integers(0, 31)), draw(st.integers(0, 15)))
    return dict(
        words=words,
        data=[value() for _ in range(8)],
        dcells=dcells,
        dbad=dbad,
        rcells=rcells,
        rbad=rbad,
        pointers=pointers,
        runs=draw(
            st.lists(st.tuples(_BOUND, st.none() | _BOUND), min_size=1, max_size=2)
        ),
    )


#: The thor-rd opcodes the fused loop runs inline.
THOR_INLINE_OPS = [
    Op.LDA, Op.STA, Op.LD, Op.ST, Op.LDI, Op.MOV,
    Op.ADD, Op.ADDI, Op.SUB, Op.MUL, Op.CMP, Op.CMPI, Op.AND, Op.XOR,
    Op.SHL, Op.SHR, Op.SAR,
    Op.BR, Op.BEQ, Op.BNE, Op.BLT, Op.BLE, Op.BGT, Op.BGE, Op.CALL, Op.RET,
    Op.IN, Op.OUT,
]
#: Every opcode byte, the inline ones three times as likely, plus three
#: undefined ones.
THOR_OPCODE_BYTES = (
    [int(op) for op in list(Op) + THOR_INLINE_OPS * 2] + [0x04, 0x3B, 0xFF]
)
#: Where drawn register values lie: small (program addresses, branch
#: targets, shift counts), the drawn data words, either side of the
#: sign bit and just below 2**32 (overflow), and any 32-bit word.
_THOR_VALUES = (
    (0, 16),
    (THOR_DATA_BASE, THOR_DATA_BASE + 8),
    (0x7FFFFFF0, 0x80000000),
    (0x80000000, 0x80000010),
    (0xFFFFFFF0, 0x100000000),
    (0, 0x100000000),
)
#: Where the low 16 bits of a drawn word lie (imm16, or rb and imm12):
#: the program, the data words, the program area's end, the stack top,
#: and anywhere.
_THOR_LOW16 = (
    (0, 16),
    (THOR_DATA_BASE, THOR_DATA_BASE + 8),
    (THOR_DATA_BASE - 8, THOR_DATA_BASE),
    (0xFFF0, 0x10000),
    (0, 0x10000),
)
#: Stack pointers: near zero and either side of the data area's base
#: (CALL/RET bounds), on the data words, at the stack top, at the top of
#: memory, anywhere.
_THOR_SP = (
    (0, 4),
    (THOR_DATA_BASE - 1, THOR_DATA_BASE + 1),
    (THOR_DATA_BASE, THOR_DATA_BASE + 8),
    (0xFFEE, 0xFFF2),
    (0xFFFF, 0x10001),
    (0, 0x100000000),
)

#: Opcodes whose imm16 is a jump target, and those whose imm16 is a
#: data address.
_THOR_JUMPS = {int(op) for op in BRANCH_OPS | CALL_OPS}
_THOR_DATA_OPS = {int(Op.LDA), int(Op.STA)}
#: LD and ST often address the data words through R13, which starts at
#: the data base.
_THOR_BASED_OPS = {int(Op.LD), int(Op.ST)}
_THOR_BASE = 13


@st.composite
def thor_cases(draw):
    """A short thor-rd program over every opcode, its register file,
    flags and data words, the caches preset line by line, and one or two
    run calls with drawn bounds.

    A preset cache line is either filled through ``Cache.read`` (dirty:
    parity in sync by construction) or written with its parity settled
    (clean, as after a checkpoint restore).  A clean line may then have
    its data or its parity bit flipped, or both (a masked error).  Each
    case draws ``trap_on_overflow``, the MPU's program-area protection
    and, now and then, address breakpoints.  As in :func:`stack_cases`,
    everything comes from one drawn seed: drawing each part costs more
    than the runs, and drawn integers would make sizes and bounds mostly
    small.

    Each case also draws a profile: two focus opcodes that fill half its
    words, the one or two ranges its register values come from, two for
    its low halfwords, and whether its dcache holds corrupted lines.
    An edge of one inline opcode needs several of these at once (a CALL
    with a stack pointer just above the program area and the MPU off;
    an LDA of a data word whose clean line has a flipped bit), and a
    profile makes each such case common enough to be met."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    value_ranges = rng.sample(_THOR_VALUES, rng.randint(1, 2))
    low_ranges = rng.sample(_THOR_LOW16, 2)
    focus = [int(op) for op in rng.sample(THOR_INLINE_OPS, 2)]

    def pick(ranges) -> int:
        low, high = rng.choice(ranges)
        return rng.randrange(low, high)

    size = rng.randint(1, 16)
    words = []
    for _ in range(size):
        op = rng.choice(focus if rng.random() < 0.5 else THOR_OPCODE_BYTES)
        if op in _THOR_JUMPS and rng.random() < 0.75:
            low = rng.randrange(size)  # a target inside the program
        elif op in _THOR_DATA_OPS and rng.random() < 0.5:
            low = rng.randrange(THOR_DATA_BASE, THOR_DATA_BASE + 8)
        else:
            low = pick(low_ranges)
        base = rng.randrange(16)
        if op in _THOR_BASED_OPS and rng.random() < 0.5:
            base, low = _THOR_BASE, rng.randrange(8)  # a data word
        words.append((op << 24) | (rng.randrange(16) << 20) | (base << 16) | low)
    if rng.random() < 0.5:
        words.append(int(Op.BR) << 24)  # loop back to the entry
    regs = [pick(value_ranges) for _ in range(16)]
    regs[_THOR_BASE] = THOR_DATA_BASE
    regs[REG_SP] = pick(_THOR_SP) & 0xFFFFFFFF

    def lines(addresses, corrupt: bool):
        """(address, how, flip) for most of ``addresses``: how is "fill"
        or "clean"; flip 0 none, 1 data, 2 parity, 3 both.  A corrupt
        cache has every line clean and most of them flipped."""
        preset = []
        for address in addresses:
            if corrupt:
                preset.append((address, "clean", rng.choice((0, 1, 2, 3))))
            elif rng.random() < 0.75:
                preset.append((address, rng.choice(("fill", "clean")), 0))
        return preset

    # A corrupted instruction line stops the run where it is fetched, so
    # an icache holds at most one, in a quarter of the cases.
    icache = lines(range(size), corrupt=False)
    if rng.random() < 0.25:
        icache.append((rng.randrange(size), "clean", rng.choice((1, 2, 3))))

    return dict(
        words=words,
        data=[pick(value_ranges + [(0, 16)]) for _ in range(8)],
        regs=regs,
        psw=draw(st.integers(0, 15)),
        inputs={port: pick(value_ranges) for port in range(3)},
        icache=icache,
        dcache=lines(range(THOR_DATA_BASE, THOR_DATA_BASE + 8), rng.random() < 0.5),
        trap_on_overflow=draw(st.booleans()),
        protect_program=draw(st.booleans()),
        breakpoints={rng.randrange(size + 1)} if rng.random() < 0.25 else set(),
        runs=[
            (rng.randrange(65), rng.choice((None, rng.randrange(65))))
            for _ in range(draw(st.integers(1, 2)))
        ],
    )


def thor_setup(case: dict, *, fast: bool) -> ThorCPU:
    """A ThorCPU in the state ``case`` (from :func:`thor_cases`) draws."""
    cpu = ThorCPU(trap_on_overflow=case["trap_on_overflow"])
    cpu.fast = fast
    cpu.memory.protect_program = case["protect_program"]
    cpu.memory.load_image(0, case["words"])
    cpu.memory.load_image(THOR_DATA_BASE, case["data"])
    cpu.reset(0)
    cpu.regs[:] = case["regs"]
    cpu.psw = case["psw"]
    cpu.input_ports.update(case["inputs"])
    cpu.breakpoints = set(case["breakpoints"])
    for cache, preset in ((cpu.icache, case["icache"]), (cpu.dcache, case["dcache"])):
        for address, how, flip in preset:
            if how == "fill":
                cache.read(address)
                continue
            line = cache.lines[address & cache._index_mask]
            line.valid = 1
            line.tag = address >> cache._index_bits
            line.data = cpu.memory.host_read(address)
            line.recompute_parity()
            if flip & 1:
                line.data ^= 1 << (address % 32)
            if flip & 2:
                line.parity ^= 1
    return cpu


def thor_run_both(case: dict) -> ThorCPU:
    """Run ``case`` through the fused loop and through the reference
    loop, one ``run(max_cycles, stop_at_cycle)`` call per entry of
    ``case["runs"]``, and assert that both give the same stop reasons
    (or raise the same exception type), the same ``save_state()`` and
    the same detection.  Returns the fast CPU."""
    seen = []
    for fast in (True, False):
        cpu = thor_setup(case, fast=fast)
        stops = []
        for max_cycles, stop_at_cycle in case["runs"]:
            try:
                stops.append(cpu.run(max_cycles, stop_at_cycle))
            except Exception as exc:  # noqa: BLE001 - compared, not hidden
                stops.append(type(exc))
                break
        seen.append((cpu, stops, cpu.save_state(), cpu.detection))
    (fast_cpu, *fast_result), (ref_cpu, *ref_result) = seen
    assert fast_result == ref_result
    assert fast_cpu.fast_segments == len(fast_result[0])
    assert ref_cpu.fast_segments == 0
    return fast_cpu


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


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_fast_path_engages_on_plain_run(self):
        cpu = fresh_cpu()
        assert cpu.run(10_000) is StopReason.HALTED
        assert cpu.fast_segments > 0

    def test_fast_false_forces_reference_loop(self):
        cpu = fresh_cpu(fast=False)
        assert cpu.run(10_000) is StopReason.HALTED
        assert cpu.fast_segments == 0

    def test_trace_hook_forces_reference_loop(self):
        cpu = fresh_cpu()
        steps: list[int] = []
        cpu.trace_hook = lambda cycle, pc, name: steps.append(cycle)
        assert cpu.run(10_000) is StopReason.HALTED
        assert cpu.fast_segments == 0
        assert len(steps) == cpu.cycle

    def test_mem_hook_forces_reference_loop(self):
        cpu = fresh_cpu()
        cpu.mem_hook = lambda access: None
        cpu.run(10_000)
        assert cpu.fast_segments == 0

    def test_post_step_hook_forces_reference_loop(self):
        cpu = fresh_cpu()
        cpu.post_step_hooks.append(lambda c: None)
        cpu.run(10_000)
        assert cpu.fast_segments == 0

    def test_register_parity_forces_reference_loop(self):
        cpu = ThorCPU(register_parity=True)
        program = assemble(LOOP_SOURCE)
        cpu.memory.load_image(program.program_base, program.program)
        cpu.reset(entry_point=program.entry_point)
        cpu.run(10_000)
        assert cpu.fast_segments == 0

    def test_stack_trace_hook_forces_reference_loop(self):
        machine = fresh_machine()
        machine.trace_hook = lambda cycle, pc, name: None
        machine.run(10_000)
        assert machine.fast_segments == 0


# ----------------------------------------------------------------------
# State equivalence on the Thor core
# ----------------------------------------------------------------------
class TestThorEquivalence:
    def run_both(self, source: str, max_cycles: int = 10_000, **kwargs):
        fast = fresh_cpu(source)
        ref = fresh_cpu(source, fast=False)
        fast_stop = fast.run(max_cycles, **kwargs)
        ref_stop = ref.run(max_cycles, **kwargs)
        assert fast_stop is ref_stop
        assert fast.save_state() == ref.save_state()
        return fast, ref

    def test_plain_run_to_halt(self):
        fast, _ = self.run_both(LOOP_SOURCE)
        assert fast.halted

    def test_traced_run_matches_fast_final_state(self):
        fast = fresh_cpu()
        fast.run(10_000)
        traced = fresh_cpu()
        trace: list[tuple] = []
        traced.trace_hook = lambda cycle, pc, name: trace.append((cycle, pc, name))
        traced.run(10_000)
        assert traced.save_state() == fast.save_state()
        assert trace, "trace hook never fired"
        assert trace[0][0] == 0 and trace[-1][0] == traced.cycle - 1

    def test_cycle_limit(self):
        fast, _ = self.run_both("spin: BR spin", max_cycles=77)
        assert fast.cycle == 77

    def test_stop_at_cycle_inside_fused_segment(self):
        fast, ref = self.run_both(LOOP_SOURCE, stop_at_cycle=13)
        assert fast.cycle == 13
        assert not fast.halted

    def test_stop_at_cycle_equal_to_budget_is_cycle_break(self):
        # The reference loop checks stop-at-cycle before the budget; the
        # fast path folds both into one bound and must keep that order.
        fast = fresh_cpu("spin: BR spin")
        ref = fresh_cpu("spin: BR spin", fast=False)
        assert fast.run(5, stop_at_cycle=5) is StopReason.CYCLE_BREAK
        assert ref.run(5, stop_at_cycle=5) is StopReason.CYCLE_BREAK
        assert fast.save_state() == ref.save_state()

    def test_stop_cycle_passed_at_entry_is_cycle_break(self):
        """Both bounds already passed when the run starts: the
        reference loop checks ``stop_at_cycle`` first, even when it lies
        beyond the budget."""
        fast, ref = self.run_both(LOOP_SOURCE, max_cycles=5)
        for cpu in (fast, ref):
            assert cpu.run(3, stop_at_cycle=4) is StopReason.CYCLE_BREAK
        assert fast.save_state() == ref.save_state()

    def test_stop_at_cycle_beyond_budget_is_cycle_limit(self):
        fast = fresh_cpu("spin: BR spin")
        assert fast.run(5, stop_at_cycle=9) is StopReason.CYCLE_LIMIT
        assert fast.cycle == 5

    def test_breakpoint_inside_fused_segment(self):
        # Address 4 is the CMPI inside the loop body: the fast path must
        # stop there mid-segment, before executing it, like the
        # reference loop does.
        fast = fresh_cpu()
        ref = fresh_cpu(fast=False)
        for cpu in (fast, ref):
            cpu.breakpoints.add(4)
            assert cpu.run(10_000) is StopReason.BREAKPOINT
            assert cpu.pc == 4
        assert fast.save_state() == ref.save_state()
        # Re-running without moving PC reports the breakpoint again.
        assert fast.run(10_000) is StopReason.BREAKPOINT
        assert fast.save_state() == ref.save_state()
        # Clearing it resumes both to the same final state.
        for cpu in (fast, ref):
            cpu.breakpoints.clear()
            assert cpu.run(10_000) is StopReason.HALTED
        assert fast.save_state() == ref.save_state()

    def test_hooks_attached_mid_run(self):
        # First segment runs fused; the hook attached at the break must
        # then see every remaining step, and the final state must match
        # an unobserved run.
        plain = fresh_cpu()
        plain.run(10_000)

        cpu = fresh_cpu()
        assert cpu.run(10_000, stop_at_cycle=10) is StopReason.CYCLE_BREAK
        assert cpu.fast_segments == 1
        seen: list[int] = []
        cpu.post_step_hooks.append(lambda c: seen.append(c.cycle))
        cpu.mem_hook = lambda access: None
        assert cpu.run(10_000) is StopReason.HALTED
        assert cpu.fast_segments == 1  # second segment took the reference loop
        assert seen == list(range(11, cpu.cycle + 1))
        assert cpu.save_state() == plain.save_state()

    def test_detection_equivalence_illegal_opcode(self):
        fast = ThorCPU()
        ref = ThorCPU()
        ref.fast = False
        for cpu in (fast, ref):
            cpu.memory.load_image(0, [0xEE000000])
            cpu.reset()
            assert cpu.run(100) is StopReason.DETECTED
        assert fast.save_state() == ref.save_state()

    def test_store_to_program_region_detected_identically(self):
        # A "self-modifying" store through the CPU hits the MPU: both
        # engines must detect it on the same cycle with the same state.
        source = """
            LDI r1, 0x1234
            LDI r2, 1
            ST r1, [r2]      ; address 1 is inside the program region
            HALT
        """
        fast, ref = self.run_both(source)
        assert fast.detection is not None

    def run_both_after_break(self, source: str, stop_at_cycle: int, mutate):
        """Run both engines to ``stop_at_cycle``, apply ``mutate`` to
        each CPU there, resume both, and require identical outcomes."""
        cpus, stops = [], []
        for fast in (True, False):
            cpu = fresh_cpu(source, fast=fast)
            assert cpu.run(10_000, stop_at_cycle=stop_at_cycle) is StopReason.CYCLE_BREAK
            mutate(cpu)
            stops.append(cpu.run(10_000))
            cpus.append(cpu)
        assert stops[0] is stops[1]
        assert cpus[0].save_state() == cpus[1].save_state()
        return cpus[0]

    def test_fetch_outside_program_area_is_violation(self):
        # The miss on 0x9000 must not take the inlined fill: Cache.read
        # counts the miss, then Memory.fetch refuses the data area.
        fast, _ = self.run_both("BR 0x9000")
        assert fast.detection.mechanism is Mechanism.MEM_VIOLATION
        assert fast.pc == 0x9000 and fast.cycle == 1
        assert (fast.icache.hits, fast.icache.misses) == (0, 2)

    def test_loop_longer_than_icache_repeats_misses(self):
        # A 43-word loop body on the 32-line direct-mapped icache: each
        # pass evicts its own head, so the miss fill runs every pass.
        body = "    ADDI r1, r1, 1\n" * 40
        source = (
            "    LDI r2, 6\nloop:\n" + body
            + "    ADDI r2, r2, -1\n    CMPI r2, 0\n    BGT loop\n    HALT\n"
        )
        fast, _ = self.run_both(source)
        assert fast.halted and fast.detection is None
        assert fast.regs[1] == 240
        assert fast.icache.misses > 6 * 20
        assert fast.icache.hits > 0

    @pytest.mark.parametrize("masked", [False, True])
    def test_icache_data_flip_at_break(self, masked):
        # At cycle 10 the loop head (address 2, ADD r1, r1, r2) sits in a
        # dirty icache line.  Flipping its data through the CacheLine.data
        # setter materialises parity, so the next fetch must take the
        # parity check; flipping the parity bit too masks the error and
        # the corrupted ADD r0, r1, r2 runs instead.
        def flip(cpu):
            line = cpu.icache.lines[cpu.pc & cpu.icache._index_mask]
            assert line.valid and line.tag == 0
            line.data ^= 1 << 20
            if masked:
                line.parity ^= 1

        cpu = self.run_both_after_break(LOOP_SOURCE, 10, flip)
        if masked:
            assert cpu.halted and cpu.detection is None
            assert cpu.regs[0] != 0
        else:
            assert cpu.detection.mechanism is Mechanism.ICACHE_PARITY
            assert cpu.detection.cycle == 10 and cpu.cycle == 10

    def test_dcache_data_flip_under_lda(self):
        # The first pass caches ``value``; at cycle 5 the LDA is about to
        # read it again from a line whose data was flipped from outside.
        source = """
            LDI r2, 5
        loop:
            LDA r1, value
            ADDI r2, r2, -1
            CMPI r2, 0
            BGT loop
            HALT
        .data
        value: .word 7
        """
        address = assemble(source).symbol("value")

        def flip(cpu):
            assert cpu.pc == 1
            line = cpu.dcache.lines[address & cpu.dcache._index_mask]
            assert line.valid and line.data == 7
            line.data ^= 1

        cpu = self.run_both_after_break(source, 5, flip)
        assert cpu.detection.mechanism is Mechanism.DCACHE_PARITY
        assert cpu.detection.cycle == 5 and cpu.cycle == 5

    @settings(max_examples=1000, deadline=None)
    @given(case=thor_cases())
    def test_any_program_matches_reference(self, case):
        thor_run_both(case)

    def test_host_rewritten_instruction_mid_run(self):
        # Host DMA rewrites an instruction word between run segments
        # (the runtime-SWIFI path).  The decode caches key on the raw
        # word, so both engines must pick up the new instruction.
        source = """
        loop:
            ADDI r1, r1, 1
            CMPI r1, 100
            BLT loop
            HALT
        """
        patch = assemble(source.replace("CMPI r1, 100", "CMPI r1, 20")).program[1]
        states = []
        for fast in (True, False):
            card = TestCard()
            card.init_target()
            cpu = card.cpu
            cpu.fast = fast
            program = assemble(source)
            card.load_workload(program)
            assert cpu.run(10_000, stop_at_cycle=30) is StopReason.CYCLE_BREAK
            card.write_memory(1, patch)
            assert cpu.run(10_000) is StopReason.HALTED
            states.append(cpu.save_state())
            assert cpu.regs[1] < 100  # the patched bound took effect
        assert states[0] == states[1]


# ----------------------------------------------------------------------
# State equivalence on the stack machine
# ----------------------------------------------------------------------
class TestStackEquivalence:
    @pytest.mark.parametrize("workload", ["s_fib", "s_checksum", "s_sumvec"])
    def test_plain_run_to_halt(self, workload):
        fast = fresh_machine(workload)
        ref = fresh_machine(workload, fast=False)
        assert fast.run(10_000) == ref.run(10_000)
        assert fast.save_state() == ref.save_state()
        assert fast.fast_segments > 0 and ref.fast_segments == 0

    def test_stop_at_cycle_and_resume(self):
        fast = fresh_machine()
        ref = fresh_machine(fast=False)
        assert fast.run(10_000, stop_at_cycle=17) == ref.run(10_000, stop_at_cycle=17)
        assert fast.save_state() == ref.save_state()
        assert fast.run(10_000) == ref.run(10_000)
        assert fast.save_state() == ref.save_state()

    def test_stop_at_cycle_equal_to_budget(self):
        fast = fresh_machine()
        ref = fresh_machine(fast=False)
        assert fast.run(9, stop_at_cycle=9) == ref.run(9, stop_at_cycle=9)
        assert fast.save_state() == ref.save_state()

    def test_hooks_attached_mid_run(self):
        plain = fresh_machine()
        plain.run(10_000)

        machine = fresh_machine()
        machine.run(10_000, stop_at_cycle=10)
        assert machine.fast_segments == 1
        seen: list[int] = []
        machine.post_step_hooks.append(lambda m: seen.append(m.cycle))
        machine.run(10_000)
        assert machine.fast_segments == 1
        assert seen == list(range(11, machine.cycle + 1))
        assert machine.save_state() == plain.save_state()

    @settings(max_examples=300, deadline=None)
    @given(case=stack_cases())
    def test_any_program_matches_reference(self, case):
        stack_run_both(**case)

    @pytest.mark.parametrize(
        "word", [stack_word(SOp.PUSHI, 7), stack_word(SOp.LOAD, DATA_BASE),
                 stack_word(SOp.IN, 0), stack_word(SOp.DUP),
                 stack_word(SOp.OVER)],
    )
    def test_data_stack_overflow_at_16_cells(self, word):
        machine = stack_run_both([word, HALT], dcells=[3] * DATA_STACK_CELLS)
        assert machine.detection["detail"] == "data stack overflow"

    def test_return_stack_overflow(self):
        machine = stack_run_both(
            [stack_word(SOp.CALL, 0)], rcells=[1] * RETURN_STACK_CELLS
        )
        assert machine.detection["detail"] == "return stack overflow"

    @pytest.mark.parametrize("op", sorted(DATA_POPS))
    def test_underflow_under_every_popping_opcode(self, op):
        for depth in range(DATA_POPS[op]):
            machine = stack_run_both(
                [stack_word(op, DATA_BASE), HALT], dcells=[DATA_BASE] * depth
            )
            assert machine.detection["detail"] == "data stack underflow"
            assert machine.dsp == 0

    def test_return_stack_underflow(self):
        machine = stack_run_both([stack_word(SOp.RET), HALT])
        assert machine.detection["detail"] == "return stack underflow"

    @pytest.mark.parametrize("op", sorted(DATA_POPS))
    def test_parity_mismatch_under_every_popping_opcode(self, op):
        pops = DATA_POPS[op]
        for bad in range(pops):
            machine = stack_run_both(
                [stack_word(op, DATA_BASE), HALT],
                dcells=[DATA_BASE] * (pops + 1),
                dbad={bad + 1},
            )
            assert machine.detection["mechanism"] == "dstack_parity"
            assert machine.dsp == bad + 1

    def test_parity_mismatch_on_return_stack(self):
        machine = stack_run_both(
            [stack_word(SOp.RET), HALT], rcells=[5, 1], rbad={1}
        )
        assert machine.detection["mechanism"] == "rstack_parity"
        assert machine.rsp == 1

    @pytest.mark.parametrize(
        "words, dcells",
        [
            ([stack_word(SOp.LOAD, MEMORY_WORDS)], []),
            ([stack_word(SOp.LOAD, 0xFFFF)], []),
            ([stack_word(SOp.LOADI)], [MEMORY_WORDS]),
            ([stack_word(SOp.LOADI)], [0x1234FFFF]),
        ],
    )
    def test_load_past_memory(self, words, dcells):
        machine = stack_run_both(words + [HALT], dcells=dcells)
        assert machine.detection["detail"].startswith("read at 0x")

    @pytest.mark.parametrize("address", [0, 5, DATA_BASE - 1, MEMORY_WORDS, 0xFFFF])
    def test_store_into_program_area_or_past_memory(self, address):
        for words, dcells in (
            ([stack_word(SOp.STORE, address)], [9]),
            ([stack_word(SOp.STOREI)], [9, address]),
        ):
            machine = stack_run_both(words + [HALT], dcells=dcells)
            assert machine.detection["mechanism"] == "mem_violation"
            assert machine.dsp == 0
            assert machine.memory[address % MEMORY_WORDS] != 9

    @pytest.mark.parametrize("target", [DATA_BASE, MEMORY_WORDS, 0xFFFF])
    def test_fetch_outside_program_area(self, target):
        for words, rcells in (
            ([stack_word(SOp.BR, target)], []),
            ([stack_word(SOp.PUSHI, 0), stack_word(SOp.BZ, target)], []),
            ([stack_word(SOp.CALL, target)], []),
            ([stack_word(SOp.RET)], [target]),
        ):
            machine = stack_run_both(words, rcells=rcells)
            assert machine.detection["detail"] == f"fetch at 0x{target:04X}"
            assert machine.pc == target

    def test_stack_pointer_past_its_stack(self):
        """A scan-injected pointer past the stack takes the handlers,
        whose pop or push detects it: a stack-bounds detection, not a
        crash, in both loops."""
        for word, pointers, detail in (
            (stack_word(SOp.ADD), (20, 0), "data stack pointer out of range"),
            (stack_word(SOp.DROP), (31, 0), "data stack pointer out of range"),
            (stack_word(SOp.RET), (0, 12), "return stack pointer out of range"),
            (stack_word(SOp.PUSHI, 1), (17, 0), "data stack overflow"),
            (stack_word(SOp.CALL, 0), (0, 9), "return stack overflow"),
        ):
            machine = stack_run_both([word, HALT], pointers=pointers)
            assert machine.detection["mechanism"] == "stack_bounds"
            assert machine.detection["detail"] == detail
            assert (machine.dsp, machine.rsp) == pointers


# ----------------------------------------------------------------------
# Campaign-level equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
class TestCampaignEquivalence:
    def fast_vs_reference(self, build, **run_kwargs):
        """Run the same campaign with the fast path and with the
        reference loop forced; the logged rows must be bit-identical."""
        with GoofiSession() as session:
            build(session, "fast")
            result = session.run_campaign("fast", **run_kwargs)
            assert not result.aborted
            fast_rows = rows_by_name(session.db, "fast")
            assert fast_rows

            build(session, "ref")
            result = session.run_campaign("ref", fast=False, **run_kwargs)
            assert not result.aborted
            assert rows_by_name(session.db, "ref") == fast_rows
        return fast_rows

    def test_scifi_serial(self):
        self.fast_vs_reference(
            lambda session, name: make_campaign(session, name, num_experiments=12)
        )

    def test_scifi_parallel(self):
        self.fast_vs_reference(
            lambda session, name: make_campaign(session, name, num_experiments=12),
            workers=2,
        )

    def test_scifi_checkpointed(self):
        self.fast_vs_reference(
            lambda session, name: make_campaign(session, name, num_experiments=12),
            checkpoints=True,
        )

    def test_swifi_preruntime(self):
        self.fast_vs_reference(
            lambda session, name: make_campaign(
                session,
                name,
                technique="swifi_preruntime",
                locations=("memory:program", "memory:data"),
                num_experiments=10,
            )
        )

    def test_swifi_runtime(self):
        self.fast_vs_reference(
            lambda session, name: make_campaign(
                session,
                name,
                technique="swifi_runtime",
                locations=("memory:data", "internal:regs.*"),
                num_experiments=10,
            )
        )

    def test_pinlevel(self):
        self.fast_vs_reference(
            lambda session, name: make_campaign(
                session,
                name,
                workload="adc_filter",
                technique="pinlevel",
                locations=("boundary:pins.IN0",),
                num_experiments=10,
            )
        )

    def test_stack_target_scifi(self):
        with GoofiSession(target_name="thor-sm") as session:
            session.target.init_test_card()
            session.target.load_workload("s_checksum")
            data = session.target.location_space().region("data")
            rows = {}
            for name, fast in (("fast", True), ("ref", False)):
                config = CampaignConfig(
                    name=name,
                    target="thor-sm",
                    technique="scifi",
                    workload="s_checksum",
                    location_patterns=("internal:ctrl.DSP", "internal:ctrl.PC"),
                    num_experiments=12,
                    termination=Termination(max_cycles=5_000),
                    observation=ObservationSpec(
                        scan_elements=("internal:ctrl.DSP",),
                        memory_ranges=((data.base, data.words),),
                    ),
                    seed=9,
                )
                session.setup_campaign(config)
                session.run_campaign(name, fast=fast)
                rows[name] = rows_by_name(session.db, name)
            assert rows["fast"] == rows["ref"]

    def test_fast_segments_reported_through_interface(self):
        with GoofiSession() as session:
            make_campaign(session, "stats", num_experiments=4)
            session.run_campaign("stats")
            assert session.target.execution_stats()["fast_segments"] > 0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_scifi_rows_identical_any_seed(self, seed):
        self.fast_vs_reference(
            lambda session, name: make_campaign(
                session, name, num_experiments=6, seed=seed
            )
        )
