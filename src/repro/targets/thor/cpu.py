"""Execution core of the THOR-RD-sim target processor.

A deterministic fetch/decode/execute interpreter with:

* sixteen 32-bit general registers, PC, and a four-flag PSW (Z N C V);
* instruction and data accesses routed through the parity-protected
  caches of :mod:`repro.targets.thor.cache`;
* every hardware fault symptom mapped onto an error-detection mechanism
  (:mod:`repro.targets.thor.edm`) instead of a Python crash — a fault
  injected into any state element must produce a *target-visible*
  outcome;
* address breakpoints and cycle-precise stops, which is what the SCIFI
  algorithm's ``waitForBreakpoint`` building block drives;
* optional observer hooks (instruction trace, memory-access trace,
  post-step fault overlays) used by detail-mode logging, pre-injection
  analysis, triggers, and the permanent/intermittent fault models.

One instruction costs one cycle; the cycle counter is the target's
notion of time (the paper's "points in time the faults should be
injected").

Execution engine
----------------

Instruction semantics live in per-opcode handler functions
(``_HANDLERS``); the handler is bound onto the decoded
:class:`~repro.targets.thor.isa.Instruction` on first dispatch, so
executing an instruction is a single callable invocation.  There are two
run loops over those handlers:

* ``_run_observed`` — the reference loop: one :meth:`step` per
  iteration, with every hook dispatch point and stop check in program
  order.  This is the semantics contract.
* ``_run_fast`` — a fused loop used when no observers are attached
  (no trace/memory hooks, no post-step overlays, register parity off).
  It hoists hot attributes into locals, folds ``stop_at_cycle`` and
  ``max_cycles`` into one precomputed bound, and inlines the
  instruction-cache hit and miss-fill paths.  Its observable behaviour
  (architectural state, counters, stop reasons, detections) is
  bit-identical to the reference loop — enforced by
  ``tests/test_hotloop.py``.

``cpu.fast = False`` forces the reference loop for every run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .cache import Cache, CacheParityError, parity_bit
from .edm import DetectionEvent, Mechanism
from .isa import (
    BRANCH_OPS,
    DECODER,
    NUM_REGISTERS,
    REG_SP,
    WORD_MASK,
    IllegalOpcodeError,
    Instruction,
    Op,
    cached_register_events,
)
from .memory import MEMORY_WORDS, Memory, MemoryMap, MemoryViolation

_SIGN_BIT = 0x80000000


def to_signed(value: int) -> int:
    """Two's-complement interpretation of a 32-bit word."""
    value &= WORD_MASK
    return value - 0x100000000 if value & _SIGN_BIT else value


def to_word(value: int) -> int:
    return value & WORD_MASK


class StopReason(enum.Enum):
    """Why :meth:`ThorCPU.run` returned control to the host."""

    BREAKPOINT = "breakpoint"  # PC reached an address breakpoint
    CYCLE_BREAK = "cycle_break"  # requested stop-at-cycle reached
    HALTED = "halted"  # workload executed HALT (normal end)
    DETECTED = "detected"  # an EDM fired
    CYCLE_LIMIT = "cycle_limit"  # host-imposed cycle budget exhausted
    ITERATION = "iteration"  # workload executed ITER (loop boundary)


@dataclass(frozen=True, slots=True)
class MemAccess:
    """One data-memory access, reported to the memory-trace hook."""

    cycle: int
    kind: str  # "read" | "write"
    address: int
    value: int


class ThorCPU:
    """The simulated processor.

    The object owns its memory and caches; the test card
    (:mod:`repro.targets.thor.testcard`) owns the CPU and is the only
    component the GOOFI host layers talk to.
    """

    def __init__(
        self,
        memory: Memory | None = None,
        icache_lines: int = 32,
        dcache_lines: int = 32,
        trap_on_overflow: bool = False,
        register_parity: bool = False,
    ) -> None:
        self.memory = memory or Memory(MemoryMap())
        self.icache = Cache("icache", icache_lines, self.memory.fetch)
        self.dcache = Cache("dcache", dcache_lines, self.memory.read)
        self.trap_on_overflow = trap_on_overflow
        #: Optional register-file parity EDM: CPU register writes keep a
        #: parity bit per register; reads check it.  External changes
        #: (scan injection, fault overlays) desynchronise the parity and
        #: are detected on the register's next use.
        self.register_parity = register_parity
        self.reg_parity = [0] * NUM_REGISTERS

        self.regs = [0] * NUM_REGISTERS
        self.pc = 0
        # PSW flags, kept as separate ints for speed; the scan chain
        # packs/unpacks them as a 4-bit word.
        self.flag_z = 0
        self.flag_n = 0
        self.flag_c = 0
        self.flag_v = 0
        self.ir = 0  # last fetched instruction word
        self.mar = 0  # memory address register (last data access)
        self.mdr = 0  # memory data register (last data value)

        self.cycle = 0
        self.iteration = 0  # count of executed ITER instructions
        self.halted = False
        self.detection: DetectionEvent | None = None

        self.breakpoints: set[int] = set()
        #: Values presented on the input ports (written by the host /
        #: environment simulator; read by IN).
        self.input_ports: dict[int, int] = {}
        #: Last value driven on each output port (pins; boundary-scan
        #: visible) plus the full output log for result comparison.
        self.output_ports: dict[int, int] = {}
        self.output_log: list[tuple[int, int, int]] = []  # (cycle, port, value)

        #: Observer hooks.  ``None`` keeps the hot loop cheap; any
        #: registered hook routes :meth:`run` through the reference loop.
        self.trace_hook: Callable[[int, int, Instruction], None] | None = None
        self.mem_hook: Callable[[MemAccess], None] | None = None
        #: Called after every executed instruction; used to implement
        #: permanent (stuck-at) and intermittent fault overlays.
        self.post_step_hooks: list[Callable[["ThorCPU"], None]] = []

        #: Fast-path control: when True and no observers are attached,
        #: :meth:`run` uses the fused loop.  Set False to force the
        #: reference step loop (the ``fast=False`` escape hatch).
        self.fast = True
        #: Diagnostic counts of run-loop segments entered (fused fast
        #: loop vs. observable reference loop).  Not architectural
        #: state: deliberately excluded from ``save_state`` so
        #: checkpointed and plain runs snapshot identically.
        self.fast_segments = 0
        self.ref_segments = 0

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self, entry_point: int = 0) -> None:
        """Re-initialise the processor (not memory) for a new run."""
        self.regs = [0] * NUM_REGISTERS
        self.regs[REG_SP] = self.memory.map.stack_top
        self.reg_parity = [parity_bit(value) for value in self.regs]
        self.pc = entry_point
        self.flag_z = self.flag_n = self.flag_c = self.flag_v = 0
        self.ir = 0
        self.mar = 0
        self.mdr = 0
        self.cycle = 0
        self.iteration = 0
        self.halted = False
        self.detection = None
        self.icache.invalidate()
        self.dcache.invalidate()
        self.input_ports.clear()
        self.output_ports.clear()
        self.output_log.clear()
        self.post_step_hooks.clear()

    def save_state(self) -> dict:
        """Snapshot the full architectural + microarchitectural state
        (registers, flags, pipeline latches, counters, ports, memory and
        caches).  Hooks are deliberately not captured: checkpoints are
        taken on fault-free prefixes, before any overlay is installed,
        and trace hooks belong to the host-side caller."""
        return {
            "regs": self.regs.copy(),
            "reg_parity": self.reg_parity.copy(),
            "pc": self.pc,
            "psw": self.psw,
            "ir": self.ir,
            "mar": self.mar,
            "mdr": self.mdr,
            "cycle": self.cycle,
            "iteration": self.iteration,
            "halted": self.halted,
            "detection": self.detection,
            "breakpoints": set(self.breakpoints),
            "input_ports": dict(self.input_ports),
            "output_ports": dict(self.output_ports),
            "output_log": list(self.output_log),
            "memory": self.memory.save_state(),
            "icache": self.icache.save_state(),
            "dcache": self.dcache.save_state(),
        }

    def restore_state(self, state: dict) -> None:
        # Containers are copied on both save and restore so the cached
        # snapshot never aliases live state; the scan chains reach all
        # of these through the cpu object, so fresh dicts are safe.
        self.regs[:] = state["regs"]
        self.reg_parity[:] = state["reg_parity"]
        self.pc = state["pc"]
        self.psw = state["psw"]
        self.ir = state["ir"]
        self.mar = state["mar"]
        self.mdr = state["mdr"]
        self.cycle = state["cycle"]
        self.iteration = state["iteration"]
        self.halted = state["halted"]
        self.detection = state["detection"]
        self.breakpoints = set(state["breakpoints"])
        self.input_ports = dict(state["input_ports"])
        self.output_ports = dict(state["output_ports"])
        self.output_log = list(state["output_log"])
        self.post_step_hooks = []
        self.memory.restore_state(state["memory"])
        self.icache.restore_state(state["icache"])
        self.dcache.restore_state(state["dcache"])

    @property
    def psw(self) -> int:
        """The four condition flags packed as Z N C V (bit 3 .. bit 0)."""
        return (self.flag_z << 3) | (self.flag_n << 2) | (self.flag_c << 1) | self.flag_v

    @psw.setter
    def psw(self, value: int) -> None:
        self.flag_z = (value >> 3) & 1
        self.flag_n = (value >> 2) & 1
        self.flag_c = (value >> 1) & 1
        self.flag_v = value & 1

    def _detect(self, mechanism: Mechanism, detail: str = "") -> None:
        """Record an EDM firing and stop the processor."""
        self.detection = DetectionEvent(
            mechanism=mechanism, cycle=self.cycle, pc=self.pc, detail=detail
        )
        self.halted = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> StopReason | None:
        """Execute one instruction.

        Returns a :class:`StopReason` when the instruction ended the run
        (HALT, EDM detection, ITER boundary); ``None`` otherwise.
        """
        if self.halted:
            return StopReason.DETECTED if self.detection else StopReason.HALTED

        pc = self.pc
        try:
            word = self.icache.read(pc)
        except CacheParityError as exc:
            self._detect(Mechanism.ICACHE_PARITY, str(exc))
            return StopReason.DETECTED
        except MemoryViolation as exc:
            self._detect(Mechanism.MEM_VIOLATION, str(exc))
            return StopReason.DETECTED
        self.ir = word

        try:
            inst = DECODER.decode(word)
        except IllegalOpcodeError as exc:
            self._detect(Mechanism.ILLEGAL_OPCODE, str(exc))
            return StopReason.DETECTED

        if self.trace_hook is not None:
            self.trace_hook(self.cycle, pc, inst)

        if self.register_parity:
            reads, writes = cached_register_events(inst)
            for register in reads:
                if parity_bit(self.regs[register]) != self.reg_parity[register]:
                    self._detect(
                        Mechanism.REG_PARITY,
                        f"register R{register} parity mismatch",
                    )
                    return StopReason.DETECTED
        else:
            writes = ()

        try:
            stop = self._execute(inst)
        except CacheParityError as exc:
            self._detect(Mechanism.DCACHE_PARITY, str(exc))
            return StopReason.DETECTED
        except MemoryViolation as exc:
            self._detect(Mechanism.MEM_VIOLATION, str(exc))
            return StopReason.DETECTED

        for register in writes:
            self.reg_parity[register] = parity_bit(self.regs[register])

        self.cycle += 1
        if self.post_step_hooks:
            for hook in self.post_step_hooks:
                hook(self)
        return stop

    def run(
        self,
        max_cycles: int,
        stop_at_cycle: int | None = None,
    ) -> StopReason:
        """Run until a breakpoint, stop-cycle, HALT, detection, ITER
        boundary, or the ``max_cycles`` budget (the watchdog timeout the
        paper lists as a termination condition).

        Address breakpoints are checked *before* executing the
        instruction at the breakpoint address, and ``stop_at_cycle``
        stops before executing the instruction belonging to that cycle —
        both give the SCIFI algorithm a state "at the point in time when
        the fault should be injected".

        Dispatches to the fused fast loop when nothing observes
        individual steps; any registered hook (or ``fast = False``)
        selects the reference loop.  Both loops produce bit-identical
        observable state.
        """
        if (
            self.fast
            and self.trace_hook is None
            and self.mem_hook is None
            and not self.post_step_hooks
            and not self.register_parity
        ):
            return self._run_fast(max_cycles, stop_at_cycle)
        return self._run_observed(max_cycles, stop_at_cycle)

    def _run_observed(
        self,
        max_cycles: int,
        stop_at_cycle: int | None = None,
    ) -> StopReason:
        """Reference run loop: one observable :meth:`step` at a time.

        This loop is the semantics contract the fast path is tested
        against; it is also the only loop that dispatches trace/memory
        hooks, post-step fault overlays, and the register-parity EDM.
        """
        self.ref_segments += 1
        breakpoints = self.breakpoints
        while True:
            if self.halted:
                return StopReason.DETECTED if self.detection else StopReason.HALTED
            if stop_at_cycle is not None and self.cycle >= stop_at_cycle:
                return StopReason.CYCLE_BREAK
            if self.cycle >= max_cycles:
                return StopReason.CYCLE_LIMIT
            if breakpoints and self.pc in breakpoints:
                return StopReason.BREAKPOINT
            stop = self.step()
            if stop is not None:
                return stop

    def _run_fast(
        self,
        max_cycles: int,
        stop_at_cycle: int | None = None,
    ) -> StopReason:
        """Fused run loop: :meth:`step` inlined with hot state in locals.

        Equivalence notes (mirroring ``_run_observed`` + ``step``):

        * the two cycle bounds fold into one precomputed ``next_stop``;
          a tie resolves to CYCLE_BREAK because the reference loop
          checks ``stop_at_cycle`` first, and so does a stop cycle the
          run has already passed when it starts;
        * the inlined fetch handles the two cases that cannot raise: a
          *dirty* cache hit (parity in sync by construction) counts a
          hit, and a tag miss whose PC lies in the program area counts a
          miss and fills the line from memory, exactly as ``Cache.read``
          does with ``Memory.fetch`` behind it.  The other two cases
          take ``Cache.read`` for exact counter and detection
          behaviour: a hit on a line whose parity was materialised (the
          parity check) and a fetch outside the program area (counted
          as a miss, then ``MemoryViolation``);
        * ``cycle`` is incremented exactly where ``step`` does: after
          the handler returns, never on a fetch/decode/execute fault.
        """
        self.fast_segments += 1
        # A stop cycle already passed at entry also wins over the budget.
        if stop_at_cycle is not None and (
            stop_at_cycle <= max_cycles or self.cycle >= stop_at_cycle
        ):
            next_stop = stop_at_cycle
            stop_reason = StopReason.CYCLE_BREAK
        else:
            next_stop = max_cycles
            stop_reason = StopReason.CYCLE_LIMIT

        icache = self.icache
        ilines = icache.lines
        imask = icache._index_mask
        ibits = icache._index_bits
        icache_read = icache.read
        memory = self.memory
        words = memory._words
        # The fetch window Memory.fetch allows: in range and in the
        # program area.
        fetch_lo = max(memory.map.program_base, 0)
        fetch_hi = min(memory.map.program_limit, MEMORY_WORDS)
        decode_cache = DECODER._cache
        decode_slow = DECODER.decode
        handlers = _HANDLERS
        breakpoints = self.breakpoints
        bind = object.__setattr__

        while True:
            if self.halted:
                return StopReason.DETECTED if self.detection else StopReason.HALTED
            cycle = self.cycle
            if cycle >= next_stop:
                return stop_reason
            pc = self.pc
            if breakpoints and pc in breakpoints:
                return StopReason.BREAKPOINT

            # -- fetch ------------------------------------------------
            line = ilines[pc & imask]
            itag = (pc >> ibits) & 0xFFFF
            if line._valid and line._tag == itag:
                if line._dirty:
                    icache.hits += 1
                    word = line._data
                else:
                    word = -1  # parity to check: Cache.read below
            elif fetch_lo <= pc < fetch_hi:
                icache.misses += 1
                word = line._data = words[pc]
                line._valid = 1
                line._tag = itag
                line._dirty = True
            else:
                word = -1  # fetch fault: Cache.read counts the miss, raises
            if word < 0:
                try:
                    word = icache_read(pc)
                except CacheParityError as exc:
                    self._detect(Mechanism.ICACHE_PARITY, str(exc))
                    return StopReason.DETECTED
                except MemoryViolation as exc:
                    self._detect(Mechanism.MEM_VIOLATION, str(exc))
                    return StopReason.DETECTED
            self.ir = word

            # -- decode -----------------------------------------------
            inst = decode_cache.get(word)
            if inst is None:
                try:
                    inst = decode_slow(word)
                except IllegalOpcodeError as exc:
                    self._detect(Mechanism.ILLEGAL_OPCODE, str(exc))
                    return StopReason.DETECTED

            # -- execute ----------------------------------------------
            handler = inst.handler
            if handler is None:
                handler = handlers[inst.op]
                bind(inst, "handler", handler)
            try:
                stop = handler(self, inst)
            except CacheParityError as exc:
                self._detect(Mechanism.DCACHE_PARITY, str(exc))
                return StopReason.DETECTED
            except MemoryViolation as exc:
                self._detect(Mechanism.MEM_VIOLATION, str(exc))
                return StopReason.DETECTED

            self.cycle = cycle + 1
            if stop is not None:
                return stop

    # ------------------------------------------------------------------
    # Instruction semantics
    # ------------------------------------------------------------------
    def _data_read(self, address: int) -> int:
        address &= 0xFFFF
        dcache = self.dcache
        line = dcache.lines[address & dcache._index_mask]
        if line._valid and line._dirty and line._tag == address >> dcache._index_bits:
            # Dirty hit: parity in sync by construction, as in _run_fast.
            dcache.hits += 1
            value = line._data
        else:
            value = dcache.read(address)
        self.mar = address
        self.mdr = value
        if self.mem_hook is not None:
            self.mem_hook(MemAccess(self.cycle, "read", address, value))
        return value

    def _data_write(self, address: int, value: int) -> None:
        address &= 0xFFFF
        value &= WORD_MASK
        self.memory.write(address, value)  # write-through
        self.dcache.write(address, value)
        self.mar = address
        self.mdr = value
        if self.mem_hook is not None:
            self.mem_hook(MemAccess(self.cycle, "write", address, value))

    def _set_zn(self, result: int) -> None:
        self.flag_z = 1 if result == 0 else 0
        self.flag_n = (result >> 31) & 1

    def _add(self, a: int, b: int) -> int:
        full = a + b
        result = full & WORD_MASK
        self.flag_c = 1 if full > WORD_MASK else 0
        self.flag_v = 1 if ((a ^ result) & (b ^ result)) >> 31 & 1 else 0
        self._set_zn(result)
        return result

    def _sub(self, a: int, b: int) -> int:
        result = (a - b) & WORD_MASK
        self.flag_c = 1 if a < b else 0  # borrow
        self.flag_v = 1 if ((a ^ b) & (a ^ result)) >> 31 & 1 else 0
        self._set_zn(result)
        return result

    def _check_stack(self, sp: int) -> None:
        if not self.memory.map.in_data(sp):
            raise MemoryViolation("stack", sp)

    def _execute(self, inst: Instruction) -> StopReason | None:
        """Dispatch one decoded instruction through its bound handler."""
        handler = inst.handler
        if handler is None:
            handler = _HANDLERS[inst.op]
            object.__setattr__(inst, "handler", handler)
        return handler(self, inst)

    def _branch_taken(self, op: Op) -> bool:
        if op is Op.BR:
            return True
        if op is Op.BEQ:
            return bool(self.flag_z)
        if op is Op.BNE:
            return not self.flag_z
        if op is Op.BLT:
            return self.flag_n != self.flag_v
        if op is Op.BLE:
            return bool(self.flag_z) or self.flag_n != self.flag_v
        if op is Op.BGT:
            return not self.flag_z and self.flag_n == self.flag_v
        if op is Op.BGE:
            return self.flag_n == self.flag_v
        if op is Op.BCS:
            return bool(self.flag_c)
        if op is Op.BVS:
            return bool(self.flag_v)
        raise AssertionError(f"not a branch: {op!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# Per-opcode handlers.
#
# Each handler implements the full semantics of one opcode, including
# the PC update, and returns a StopReason (run-ending instruction) or
# None.  The PC is written *last* so a data-memory fault raised mid-way
# leaves it on the faulting instruction, exactly as the monolithic
# dispatch did.  Faults (CacheParityError, MemoryViolation from memory
# accesses) propagate to the caller; only the stack-limit checks of
# PUSH/POP/CALL/RET map their violation locally onto the STACK EDM.
# ----------------------------------------------------------------------


def _h_nop(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_halt(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.halted = True
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return StopReason.HALTED


def _h_ldi(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.regs[inst.rd] = inst.imm
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_ldih(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    regs[inst.rd] = (regs[inst.rd] & 0xFFFF) | ((inst.imm & 0xFFFF) << 16)
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_lda(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.regs[inst.rd] = cpu._data_read(inst.imm)
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_sta(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu._data_write(inst.imm, cpu.regs[inst.rd])
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_ld(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    regs[inst.rd] = cpu._data_read(regs[inst.ra] + inst.imm)
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_st(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    cpu._data_write(regs[inst.ra] + inst.imm, regs[inst.rd])
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_mov(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    regs[inst.rd] = regs[inst.ra]
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_push(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    sp = (regs[REG_SP] - 1) & WORD_MASK
    if not cpu.memory.map.in_data(sp & 0xFFFF):
        cpu._detect(Mechanism.STACK, f"stack overflow, sp=0x{sp:08X}")
        return StopReason.DETECTED
    regs[REG_SP] = sp
    cpu._data_write(sp, regs[inst.rd])
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_pop(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    sp = regs[REG_SP]
    if not cpu.memory.map.in_data(sp & 0xFFFF):
        cpu._detect(Mechanism.STACK, f"stack underflow, sp=0x{sp:08X}")
        return StopReason.DETECTED
    regs[inst.rd] = cpu._data_read(sp)
    regs[REG_SP] = (sp + 1) & WORD_MASK
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_add(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    a = regs[inst.ra]
    b = regs[inst.rb]
    full = a + b
    result = full & WORD_MASK
    cpu.flag_c = 1 if full > WORD_MASK else 0
    cpu.flag_v = flag_v = 1 if ((a ^ result) & (b ^ result)) >> 31 & 1 else 0
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    if flag_v and cpu.trap_on_overflow:
        cpu._detect(Mechanism.OVERFLOW, "ADD overflow")
        return StopReason.DETECTED
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_sub(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    a = regs[inst.ra]
    b = regs[inst.rb]
    result = (a - b) & WORD_MASK
    cpu.flag_c = 1 if a < b else 0  # borrow
    cpu.flag_v = flag_v = 1 if ((a ^ b) & (a ^ result)) >> 31 & 1 else 0
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    if flag_v and cpu.trap_on_overflow:
        cpu._detect(Mechanism.OVERFLOW, "SUB overflow")
        return StopReason.DETECTED
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_mul(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    full = to_signed(regs[inst.ra]) * to_signed(regs[inst.rb])
    result = full & WORD_MASK
    cpu.flag_v = flag_v = 1 if full != to_signed(result) else 0
    if flag_v and cpu.trap_on_overflow:
        cpu._detect(Mechanism.OVERFLOW, "MUL overflow")
        return StopReason.DETECTED
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_divmod(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    op = inst.op
    divisor = to_signed(regs[inst.rb])
    if divisor == 0:
        cpu._detect(Mechanism.ARITHMETIC, f"{op.name} by zero")
        return StopReason.DETECTED
    dividend = to_signed(regs[inst.ra])
    quotient = int(dividend / divisor)  # C-style truncation
    remainder = dividend - quotient * divisor
    result = (quotient if op is Op.DIV else remainder) & WORD_MASK
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_and(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    result = regs[inst.ra] & regs[inst.rb]
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_or(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    result = regs[inst.ra] | regs[inst.rb]
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_xor(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    result = regs[inst.ra] ^ regs[inst.rb]
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_shl(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    shift = regs[inst.rb] & 31
    result = (regs[inst.ra] << shift) & WORD_MASK
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_shr(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    shift = regs[inst.rb] & 31
    result = regs[inst.ra] >> shift
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_sar(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    shift = regs[inst.rb] & 31
    result = (to_signed(regs[inst.ra]) >> shift) & WORD_MASK
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_not(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    result = (~regs[inst.ra]) & WORD_MASK
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_neg(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    result = (-regs[inst.ra]) & WORD_MASK
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_addi(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    a = regs[inst.ra]
    b = inst.imm & WORD_MASK
    full = a + b
    result = full & WORD_MASK
    cpu.flag_c = 1 if full > WORD_MASK else 0
    cpu.flag_v = 1 if ((a ^ result) & (b ^ result)) >> 31 & 1 else 0
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    regs[inst.rd] = result
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_cmp(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    a = regs[inst.ra]
    b = regs[inst.rb]
    result = (a - b) & WORD_MASK
    cpu.flag_c = 1 if a < b else 0  # borrow
    cpu.flag_v = 1 if ((a ^ b) & (a ^ result)) >> 31 & 1 else 0
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_cmpi(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    a = cpu.regs[inst.ra]
    b = inst.imm & WORD_MASK
    result = (a - b) & WORD_MASK
    cpu.flag_c = 1 if a < b else 0  # borrow
    cpu.flag_v = 1 if ((a ^ b) & (a ^ result)) >> 31 & 1 else 0
    cpu.flag_z = 1 if result == 0 else 0
    cpu.flag_n = (result >> 31) & 1
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_br(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.pc = inst.imm & 0xFFFF
    return None


def _h_beq(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.pc = inst.imm & 0xFFFF if cpu.flag_z else (cpu.pc + 1) & 0xFFFF
    return None


def _h_bne(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.pc = (cpu.pc + 1) & 0xFFFF if cpu.flag_z else inst.imm & 0xFFFF
    return None


def _h_blt(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.pc = inst.imm & 0xFFFF if cpu.flag_n != cpu.flag_v else (cpu.pc + 1) & 0xFFFF
    return None


def _h_ble(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    if cpu.flag_z or cpu.flag_n != cpu.flag_v:
        cpu.pc = inst.imm & 0xFFFF
    else:
        cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_bgt(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    if not cpu.flag_z and cpu.flag_n == cpu.flag_v:
        cpu.pc = inst.imm & 0xFFFF
    else:
        cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_bge(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.pc = inst.imm & 0xFFFF if cpu.flag_n == cpu.flag_v else (cpu.pc + 1) & 0xFFFF
    return None


def _h_bcs(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.pc = inst.imm & 0xFFFF if cpu.flag_c else (cpu.pc + 1) & 0xFFFF
    return None


def _h_bvs(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.pc = inst.imm & 0xFFFF if cpu.flag_v else (cpu.pc + 1) & 0xFFFF
    return None


def _h_call(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    next_pc = (cpu.pc + 1) & 0xFFFF
    sp = (regs[REG_SP] - 1) & WORD_MASK
    if not cpu.memory.map.in_data(sp & 0xFFFF):
        cpu._detect(Mechanism.STACK, f"call stack overflow, sp=0x{sp:08X}")
        return StopReason.DETECTED
    regs[REG_SP] = sp
    cpu._data_write(sp, next_pc)
    cpu.pc = inst.imm & 0xFFFF
    return None


def _h_ret(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    regs = cpu.regs
    sp = regs[REG_SP]
    if not cpu.memory.map.in_data(sp & 0xFFFF):
        cpu._detect(Mechanism.STACK, f"return stack underflow, sp=0x{sp:08X}")
        return StopReason.DETECTED
    cpu.pc = cpu._data_read(sp) & 0xFFFF
    regs[REG_SP] = (sp + 1) & WORD_MASK
    return None


def _h_trap(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu._detect(Mechanism.SOFTWARE_TRAP, f"trap {inst.imm}")
    return StopReason.DETECTED


def _h_iter(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.iteration += 1
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return StopReason.ITERATION


def _h_in(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    cpu.regs[inst.rd] = cpu.input_ports.get(inst.imm, 0) & WORD_MASK
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


def _h_out(cpu: ThorCPU, inst: Instruction) -> StopReason | None:
    value = cpu.regs[inst.rd]
    cpu.output_ports[inst.imm] = value
    cpu.output_log.append((cpu.cycle, inst.imm, value))
    cpu.pc = (cpu.pc + 1) & 0xFFFF
    return None


_HANDLERS: dict[Op, Callable[[ThorCPU, Instruction], StopReason | None]] = {
    Op.NOP: _h_nop,
    Op.HALT: _h_halt,
    Op.RET: _h_ret,
    Op.ITER: _h_iter,
    Op.LDI: _h_ldi,
    Op.LDIH: _h_ldih,
    Op.LDA: _h_lda,
    Op.STA: _h_sta,
    Op.LD: _h_ld,
    Op.ST: _h_st,
    Op.MOV: _h_mov,
    Op.PUSH: _h_push,
    Op.POP: _h_pop,
    Op.ADD: _h_add,
    Op.SUB: _h_sub,
    Op.MUL: _h_mul,
    Op.DIV: _h_divmod,
    Op.MOD: _h_divmod,
    Op.AND: _h_and,
    Op.OR: _h_or,
    Op.XOR: _h_xor,
    Op.SHL: _h_shl,
    Op.SHR: _h_shr,
    Op.SAR: _h_sar,
    Op.NOT: _h_not,
    Op.NEG: _h_neg,
    Op.ADDI: _h_addi,
    Op.CMP: _h_cmp,
    Op.CMPI: _h_cmpi,
    Op.BR: _h_br,
    Op.BEQ: _h_beq,
    Op.BNE: _h_bne,
    Op.BLT: _h_blt,
    Op.BLE: _h_ble,
    Op.BGT: _h_bgt,
    Op.BGE: _h_bge,
    Op.BCS: _h_bcs,
    Op.BVS: _h_bvs,
    Op.CALL: _h_call,
    Op.TRAP: _h_trap,
    Op.IN: _h_in,
    Op.OUT: _h_out,
}

assert set(_HANDLERS) == set(Op), "every opcode needs a handler"
