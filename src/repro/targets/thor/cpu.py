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
  It keeps the PC, cycle, flags and latches in locals, folds
  ``stop_at_cycle`` and ``max_cycles`` into one precomputed bound, and
  runs the common opcodes and their cache accesses inline, keyed on the
  opcode byte; anything else runs through the handlers.  Its
  observable behaviour (architectural state, counters, stop reasons,
  detections) is bit-identical to the reference loop — enforced by
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

#: Why ``ThorCPU._run_fast`` left its inline loop, besides a stop reason.
_FETCH_FAULT = object()  # the fetch must go through Cache.read, which raises
_HANDLER = object()  # the instruction runs through its _HANDLERS entry


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
        * ``pc``, ``cycle``, the four flags, ``ir``/``mar``/``mdr`` and
          the two caches' hit counters live in locals.  They are written
          back only where the inner loop breaks: at a stop, at a fetch
          fault, and before an instruction runs through its handler;
        * the fetch serves a dirty icache hit, a clean hit whose parity
          check passes (which marks the line dirty, as ``Cache.read``
          does) and a miss inside the program area (filled from memory).
          A parity mismatch and a fetch outside the program area go to
          ``Cache.read``, which counts and raises;
        * the opcodes that make up at least 95% of the dynamic mix of
          every thor-rd workload run inline, keyed on the opcode byte
          ``word >> 24`` with the operands taken from the word's bit
          fields.  Their data reads serve every dcache case but a
          parity mismatch, the same three ways as the fetch.  Each
          inline path checks everything its handler checks (the MPU
          program-area write check, the ``trap_on_overflow`` EDM of
          ADD/SUB/MUL, the stack bounds of CALL/RET, the parity of a
          clean dcache hit) before it changes any state;
        * on any such edge, and for every other opcode, the locals are
          written back and the instruction runs through its
          ``_HANDLERS`` handler, exactly as in :meth:`step`, so every
          detection is raised by the reference code.  Handlers that end
          a run (HALT, ITER, TRAP, an EDM) return a stop reason, so
          ``halted`` is only read at entry;
        * register values are 32-bit words and the PC a 16-bit address:
          every writer (handlers, scan cells, restore) keeps them so,
          which the inline paths rely on instead of re-masking.
        """
        self.fast_segments += 1
        if self.halted:
            return StopReason.DETECTED if self.detection else StopReason.HALTED
        # A stop cycle already passed at entry also wins over the budget.
        if stop_at_cycle is not None and (
            stop_at_cycle <= max_cycles or self.cycle >= stop_at_cycle
        ):
            next_stop = stop_at_cycle
            stop_reason = StopReason.CYCLE_BREAK
        else:
            next_stop = max_cycles
            stop_reason = StopReason.CYCLE_LIMIT

        regs = self.regs
        icache = self.icache
        ilines = icache.lines
        imask = icache._index_mask
        ibits = icache._index_bits
        dcache = self.dcache
        dlines = dcache.lines
        dmask = dcache._index_mask
        dbits = dcache._index_bits
        memory = self.memory
        words = memory._words
        memory_map = memory.map
        # The fetch window Memory.fetch allows: in range and in the
        # program area.
        fetch_lo = max(memory_map.program_base, 0)
        fetch_hi = min(memory_map.program_limit, MEMORY_WORDS)
        # The addresses Memory.write refuses (all in range: every data
        # address is masked to 16 bits), and the stack's lower bound.
        if memory.protect_program:
            guard_lo = memory_map.program_base
            guard_hi = memory_map.program_limit
        else:
            guard_lo = guard_hi = 0
        stack_lo = memory_map.data_base
        trap = self.trap_on_overflow
        input_ports = self.input_ports
        output_ports = self.output_ports
        output_log = self.output_log
        breakpoints = self.breakpoints

        while True:
            pc = self.pc
            cycle = self.cycle
            z = self.flag_z
            n = self.flag_n
            c = self.flag_c
            v = self.flag_v
            word = self.ir
            mar = self.mar
            mdr = self.mdr
            ihits = icache.hits
            dhits = dcache.hits

            while True:
                if cycle >= next_stop:
                    stop = stop_reason
                    break
                if breakpoints and pc in breakpoints:
                    stop = StopReason.BREAKPOINT
                    break

                # -- fetch --------------------------------------------
                line = ilines[pc & imask]
                if line._valid and line._tag == pc >> ibits:
                    if not line._dirty:
                        if (
                            (line._valid << 63) | (line._tag << 32) | line._data
                        ).bit_count() & 1 != line._parity:
                            stop = _FETCH_FAULT
                            break
                        line._dirty = True
                    ihits += 1
                    word = line._data
                elif fetch_lo <= pc < fetch_hi:
                    icache.misses += 1
                    word = line._data = words[pc]
                    line._valid = 1
                    line._tag = pc >> ibits
                    line._dirty = True
                else:
                    stop = _FETCH_FAULT
                    break

                # -- execute the inline opcodes -----------------------
                op = word >> 24
                if op < 0x20:
                    if op == 0x12 or op == 0x14 or op == 0x02:  # LDA, LD, RET
                        if op == 0x12:
                            address = word & 0xFFFF
                        elif op == 0x14:
                            address = (
                                regs[(word >> 16) & 15] + ((word & 0xFFF) ^ 0x800) - 0x800
                            ) & 0xFFFF
                        else:
                            sp = regs[REG_SP]
                            address = sp & 0xFFFF
                            if address < stack_lo:
                                stop = _HANDLER
                                break
                        line = dlines[address & dmask]
                        if line._valid and line._tag == address >> dbits:
                            if not line._dirty:
                                if (
                                    (line._valid << 63) | (line._tag << 32) | line._data
                                ).bit_count() & 1 != line._parity:
                                    stop = _HANDLER
                                    break
                                line._dirty = True
                            dhits += 1
                            value = line._data
                        else:
                            dcache.misses += 1
                            value = line._data = words[address]
                            line._valid = 1
                            line._tag = address >> dbits
                            line._dirty = True
                        mar = address
                        mdr = value
                        if op == 0x02:
                            pc = value & 0xFFFF
                            regs[REG_SP] = (sp + 1) & WORD_MASK
                        else:
                            regs[(word >> 20) & 15] = value
                            pc = (pc + 1) & 0xFFFF
                        cycle += 1
                        continue
                    elif op == 0x13 or op == 0x15:  # STA, ST
                        if op == 0x13:
                            address = word & 0xFFFF
                        else:
                            address = (
                                regs[(word >> 16) & 15] + ((word & 0xFFF) ^ 0x800) - 0x800
                            ) & 0xFFFF
                        if not guard_lo <= address < guard_hi:
                            value = regs[(word >> 20) & 15]
                            words[address] = value
                            line = dlines[address & dmask]
                            line._valid = 1
                            line._tag = address >> dbits
                            line._data = value
                            line._dirty = True
                            mar = address
                            mdr = value
                            pc = (pc + 1) & 0xFFFF
                            cycle += 1
                            continue
                    elif op == 0x10:  # LDI
                        regs[(word >> 20) & 15] = word & 0xFFFF
                        pc = (pc + 1) & 0xFFFF
                        cycle += 1
                        continue
                    elif op == 0x16:  # MOV
                        regs[(word >> 20) & 15] = regs[(word >> 16) & 15]
                        pc = (pc + 1) & 0xFFFF
                        cycle += 1
                        continue

                elif op < 0x30:
                    a = regs[(word >> 16) & 15]
                    if op == 0x2E:  # CMP
                        b = regs[(word >> 12) & 15]
                        result = (a - b) & WORD_MASK
                        c = 1 if a < b else 0
                        v = ((a ^ b) & (a ^ result)) >> 31 & 1
                        z = 0 if result else 1
                        n = result >> 31
                        pc = (pc + 1) & 0xFFFF
                        cycle += 1
                        continue
                    if op == 0x22:  # MUL
                        b = regs[(word >> 12) & 15]
                        full = ((a ^ _SIGN_BIT) - _SIGN_BIT) * ((b ^ _SIGN_BIT) - _SIGN_BIT)
                        result = full & WORD_MASK
                        if full != (result ^ _SIGN_BIT) - _SIGN_BIT:
                            if trap:
                                stop = _HANDLER
                                break
                            v = 1
                        else:
                            v = 0
                        z = 0 if result else 1
                        n = result >> 31
                    elif op == 0x20 or op == 0x2D:  # ADD, ADDI
                        if op == 0x20:
                            b = regs[(word >> 12) & 15]
                        else:
                            b = (((word & 0xFFF) ^ 0x800) - 0x800) & WORD_MASK
                        full = a + b
                        result = full & WORD_MASK
                        flag = ((a ^ result) & (b ^ result)) >> 31 & 1
                        if flag and trap and op == 0x20:
                            stop = _HANDLER
                            break
                        v = flag
                        c = full >> 32
                        z = 0 if result else 1
                        n = result >> 31
                    elif op == 0x21:  # SUB
                        b = regs[(word >> 12) & 15]
                        result = (a - b) & WORD_MASK
                        flag = ((a ^ b) & (a ^ result)) >> 31 & 1
                        if flag and trap:
                            stop = _HANDLER
                            break
                        v = flag
                        c = 1 if a < b else 0
                        z = 0 if result else 1
                        n = result >> 31
                    elif op == 0x2F:  # CMPI
                        b = (((word & 0xFFF) ^ 0x800) - 0x800) & WORD_MASK
                        result = (a - b) & WORD_MASK
                        c = 1 if a < b else 0
                        v = ((a ^ b) & (a ^ result)) >> 31 & 1
                        z = 0 if result else 1
                        n = result >> 31
                        pc = (pc + 1) & 0xFFFF
                        cycle += 1
                        continue
                    elif 0x28 <= op <= 0x2A:  # SHL, SHR, SAR
                        shift = regs[(word >> 12) & 15] & 31
                        if op == 0x2A:
                            result = (((a ^ _SIGN_BIT) - _SIGN_BIT) >> shift) & WORD_MASK
                        elif op == 0x28:
                            result = (a << shift) & WORD_MASK
                        else:
                            result = a >> shift
                        z = 0 if result else 1
                        n = result >> 31
                    elif op == 0x25:  # AND
                        result = a & regs[(word >> 12) & 15]
                        z = 0 if result else 1
                        n = result >> 31
                    elif op == 0x27:  # XOR
                        result = a ^ regs[(word >> 12) & 15]
                        z = 0 if result else 1
                        n = result >> 31
                    else:
                        stop = _HANDLER
                        break
                    regs[(word >> 20) & 15] = result
                    pc = (pc + 1) & 0xFFFF
                    cycle += 1
                    continue

                elif op < 0x40:
                    if op <= 0x36:  # BR, BEQ, BNE, BLT, BLE, BGT, BGE
                        if op == 0x36:
                            taken = n == v
                        elif op == 0x34:
                            taken = z or n != v
                        elif op == 0x30:
                            taken = True
                        elif op == 0x33:
                            taken = n != v
                        elif op == 0x35:
                            taken = not z and n == v
                        elif op == 0x31:
                            taken = z
                        else:
                            taken = not z
                        pc = word & 0xFFFF if taken else (pc + 1) & 0xFFFF
                        cycle += 1
                        continue
                    if op == 0x39:  # CALL
                        sp = (regs[REG_SP] - 1) & WORD_MASK
                        address = sp & 0xFFFF
                        if address >= stack_lo and not guard_lo <= address < guard_hi:
                            regs[REG_SP] = sp
                            value = (pc + 1) & 0xFFFF
                            words[address] = value
                            line = dlines[address & dmask]
                            line._valid = 1
                            line._tag = address >> dbits
                            line._data = value
                            line._dirty = True
                            mar = address
                            mdr = value
                            pc = word & 0xFFFF
                            cycle += 1
                            continue

                elif op == 0x41:  # OUT
                    port = word & 0xFFFF
                    value = regs[(word >> 20) & 15]
                    output_ports[port] = value
                    output_log.append((cycle, port, value))
                    pc = (pc + 1) & 0xFFFF
                    cycle += 1
                    continue
                elif op == 0x40:  # IN
                    regs[(word >> 20) & 15] = input_ports.get(word & 0xFFFF, 0) & WORD_MASK
                    pc = (pc + 1) & 0xFFFF
                    cycle += 1
                    continue

                stop = _HANDLER
                break

            # -- leave the inline loop: write the locals back ---------
            self.pc = pc
            self.cycle = cycle
            self.flag_z = z
            self.flag_n = n
            self.flag_c = c
            self.flag_v = v
            self.ir = word
            self.mar = mar
            self.mdr = mdr
            icache.hits = ihits
            dcache.hits = dhits
            if stop is _FETCH_FAULT:
                # Cache.read counts the access and raises.
                try:
                    icache.read(pc)
                except CacheParityError as exc:
                    self._detect(Mechanism.ICACHE_PARITY, str(exc))
                except MemoryViolation as exc:
                    self._detect(Mechanism.MEM_VIOLATION, str(exc))
                return StopReason.DETECTED
            if stop is not _HANDLER:
                return stop

            # -- edge or other opcode: the reference execute ----------
            inst = DECODER._cache.get(word)
            if inst is None:
                try:
                    inst = DECODER.decode(word)
                except IllegalOpcodeError as exc:
                    self._detect(Mechanism.ILLEGAL_OPCODE, str(exc))
                    return StopReason.DETECTED
            handler = inst.handler
            if handler is None:
                handler = _HANDLERS[inst.op]
                object.__setattr__(inst, "handler", handler)
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

    def _execute(self, inst: Instruction) -> StopReason | None:
        """Dispatch one decoded instruction through its bound handler."""
        handler = inst.handler
        if handler is None:
            handler = _HANDLERS[inst.op]
            object.__setattr__(inst, "handler", handler)
        return handler(self, inst)



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
# ThorCPU._run_fast keys its inline opcodes on these byte values.
assert (
    Op.RET, Op.LDI, Op.LDA, Op.STA, Op.LD, Op.ST, Op.MOV,
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.XOR, Op.SHL, Op.SHR, Op.SAR,
    Op.ADDI, Op.CMP, Op.CMPI,
    Op.BR, Op.BEQ, Op.BNE, Op.BLT, Op.BLE, Op.BGT, Op.BGE, Op.CALL,
    Op.IN, Op.OUT,
) == (
    0x02, 0x10, 0x12, 0x13, 0x14, 0x15, 0x16,
    0x20, 0x21, 0x22, 0x25, 0x27, 0x28, 0x29, 0x2A,
    0x2D, 0x2E, 0x2F,
    0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x39,
    0x40, 0x41,
)
