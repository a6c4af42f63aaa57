"""GOOFI target-system interface for the THOR-SM stack machine.

The second concrete ``TargetSystemInterface`` in the repository — the
proof of the paper's porting claim on a processor with a *different
architecture class* (stack machine vs register machine): the generic
algorithms, campaign management, database, and analysis phases run
unchanged against it.  Like THOR-RD-sim it derives from
:class:`repro.targets.simulated.SimulatedTarget` and supplies the
machine, its scan chains, the run primitive and memory access.
"""

from __future__ import annotations

from ...core.errors import TargetError
from ...core.framework import TerminationInfo
from ...core.locations import MemoryRegionInfo
from ..scan import ScanChain, ScanElement
from ..simulated import SimulatedTarget, StopNames
from .isa import DATA_STACK_CELLS, RETURN_STACK_CELLS
from .machine import DATA_BASE, MEMORY_WORDS, StackMachine
from .workloads import STACK_SOURCES, s_load

TARGET_NAME = "thor-sm"


def _list_element(name: str, store: list, index: int, width: int) -> ScanElement:
    return ScanElement(
        name,
        width,
        getter=lambda: store[index],
        setter=lambda value: store.__setitem__(index, value),
    )


def _attr_element(machine: StackMachine, name: str, attr: str, width: int,
                  writable: bool = True) -> ScanElement:
    setter = (lambda value: setattr(machine, attr, value)) if writable else None
    return ScanElement(name, width, getter=lambda: getattr(machine, attr), setter=setter)


def build_stack_chains(machine: StackMachine) -> dict[str, ScanChain]:
    """Scan chains of THOR-SM: every stack cell and its parity bit, the
    stack pointers, PC, cycle counter (read-only), and the port pins."""
    internal: list[ScanElement] = []
    for i in range(DATA_STACK_CELLS):
        internal.append(_list_element(f"dstack.C{i}", machine.dstack, i, 32))
        internal.append(_list_element(f"dstack.P{i}", machine.dparity, i, 1))
    for i in range(RETURN_STACK_CELLS):
        internal.append(_list_element(f"rstack.C{i}", machine.rstack, i, 32))
        internal.append(_list_element(f"rstack.P{i}", machine.rparity, i, 1))
    internal.append(_attr_element(machine, "ctrl.DSP", "dsp", 5))
    internal.append(_attr_element(machine, "ctrl.RSP", "rsp", 4))
    internal.append(_attr_element(machine, "ctrl.PC", "pc", 16))
    internal.append(_attr_element(machine, "ctrl.CYCLE", "cycle", 32, writable=False))

    boundary: list[ScanElement] = []
    for port in (0, 1):
        boundary.append(
            ScanElement(
                f"pins.IN{port}",
                32,
                getter=lambda p=port: machine.input_ports.get(p, 0),
                setter=lambda value, p=port: machine.input_ports.__setitem__(p, value),
            )
        )
        boundary.append(
            ScanElement(
                f"pins.OUT{port}",
                32,
                getter=lambda p=port: machine.output_ports.get(p, 0),
                setter=lambda value, p=port: machine.output_ports.__setitem__(p, value),
            )
        )
    return {
        "internal": ScanChain("internal", internal),
        "boundary": ScanChain("boundary", boundary),
    }


class StackTargetInterface(SimulatedTarget):
    """The THOR-SM implementation of the GOOFI framework template."""

    target_name = TARGET_NAME
    test_card_name = "sim-stack-debug-port"
    stops = StopNames(
        halted="halted",
        detected="detected",
        cycle_limit="cycle_limit",
        cycle_break="cycle_break",
        iteration="iteration",
    )

    def __init__(self) -> None:
        machine = StackMachine()
        super().__init__(machine, build_stack_chains(machine))
        self._loaded = None

    # ------------------------------------------------------------------
    # Figure 2 building blocks
    # ------------------------------------------------------------------
    def init_test_card(self) -> None:
        self.machine.clear_memory()
        self.machine.reset()
        self._scan_buffers.clear()
        self._loaded = None
        self._running = False

    def load_workload(self, workload_id: str) -> None:
        try:
            program = s_load(workload_id)
        except KeyError as exc:
            raise TargetError(str(exc)) from exc
        machine = self.machine
        machine.load_image(0, program.program)
        machine.load_image(program.data_base, program.data)
        machine.reset(entry_point=program.entry_point)
        self._loaded = program

    def write_memory(self, address: int, words: list[int]) -> None:
        for offset, word in enumerate(words):
            target_address = address + offset
            if not 0 <= target_address < MEMORY_WORDS:
                raise TargetError(f"host write outside memory: 0x{target_address:04X}")
            self.machine.memory[target_address] = word & 0xFFFFFFFF

    def read_memory(self, address: int, count: int) -> list[int]:
        if not 0 <= address <= MEMORY_WORDS - count:
            raise TargetError(f"host read outside memory: 0x{address:04X}")
        return self.machine.memory[address : address + count].tolist()

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def available_workloads(self) -> list[str]:
        return sorted(STACK_SOURCES)

    def describe(self) -> dict:
        return {
            "location_space": self.location_space().to_config(),
            "scan_chains": {n: c.describe() for n, c in self.chains.items()},
            "memory_map": {"program_base": 0, "data_base": DATA_BASE,
                           "words": MEMORY_WORDS},
            "workloads": self.available_workloads(),
            "fault_models": ["transient_bitflip", "stuck_at", "intermittent_bitflip"],
            "techniques": ["scifi", "swifi_preruntime", "swifi_runtime", "pinlevel"],
            "architecture": "stack machine (parity-protected stacks)",
        }

    def _memory_regions(self) -> list[MemoryRegionInfo]:
        if self._loaded is not None:
            program_limit = max(1, len(self._loaded.program))
            data_limit = DATA_BASE + max(1, len(self._loaded.data))
        else:
            program_limit = DATA_BASE
            data_limit = MEMORY_WORDS
        return [
            MemoryRegionInfo(name="program", base=0, limit=program_limit),
            MemoryRegionInfo(name="data", base=DATA_BASE, limit=data_limit),
        ]

    # ------------------------------------------------------------------
    # Simulated-target primitives
    # ------------------------------------------------------------------
    def _run_to_stop(
        self, max_cycles: int, max_iterations: int | None,
        stop_at_cycle: int | None = None,
    ) -> TerminationInfo | None:
        machine = self.machine
        while True:
            reason = machine.run(max_cycles, stop_at_cycle=stop_at_cycle)
            if reason != "iteration":
                return self._stop_info(reason)
            if self._end_iteration(max_iterations):
                return self._stop_info("halted")

    def _memory_word(self, address: int):
        memory = self.machine.memory

        def set_word(value: int) -> None:
            memory[address] = value & 0xFFFFFFFF

        return (lambda: memory[address]), set_word

    def _trace_hooks(self, instructions: list, mem_accesses: list, reg_accesses: list):
        # Stack cells have no static access model: reg_accesses stays empty.
        def trace_hook(cycle: int, pc: int, opname: str) -> None:
            instructions.append((cycle, pc, opname))

        def mem_hook(cycle: int, kind: str, address: int) -> None:
            mem_accesses.append((cycle, kind, address))

        return trace_hook, mem_hook

    def _save_machine(self) -> tuple:
        return self.machine.save_state(), self._loaded

    def _restore_machine(self, state: tuple) -> None:
        machine_state, self._loaded = state
        self.machine.restore_state(machine_state)


def create_stack_target() -> StackTargetInterface:
    """Factory registered with :mod:`repro.core.plugins`."""
    return StackTargetInterface()
