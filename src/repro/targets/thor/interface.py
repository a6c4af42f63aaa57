"""GOOFI target-system interface for the THOR-RD-sim target.

This is the class a GOOFI user writes when adapting the tool to a new
target (paper Figure 3), here on top of the shared half of the
simulated targets (:class:`repro.targets.simulated.SimulatedTarget`):
it supplies the machine (the CPU behind the simulated test card of
:mod:`repro.targets.thor.testcard`), the run primitive, memory access
and the workload images.

The register read/write model used for trace recording (which feeds
trigger resolution and the pre-injection liveness analysis) is derived
statically per instruction from the ISA formats, the same way the real
tool "analyses the workload code".
"""

from __future__ import annotations

from ...core.errors import TargetError
from ...core.framework import TerminationInfo
from ...core.locations import MemoryRegionInfo
from ...workloads import library
from ..simulated import SimulatedTarget, StopNames
from .cpu import StopReason
from .isa import Instruction, cached_register_events
from .testcard import TerminationCondition, TestCard

#: Registered name of this target (the ``TargetSystemData`` key).
TARGET_NAME = "thor-rd-sim"


class ThorTargetInterface(SimulatedTarget):
    """The THOR-RD-sim implementation of the GOOFI framework."""

    target_name = TARGET_NAME
    test_card_name = "sim-scan-test-card"
    stops = StopNames(
        halted=StopReason.HALTED,
        detected=StopReason.DETECTED,
        cycle_limit=StopReason.CYCLE_LIMIT,
        cycle_break=StopReason.CYCLE_BREAK,
        iteration=StopReason.ITERATION,
    )

    def __init__(
        self,
        icache_lines: int = 32,
        dcache_lines: int = 32,
        trap_on_overflow: bool = False,
        register_parity: bool = False,
        extra_workloads: dict | None = None,
    ) -> None:
        self.card = TestCard(
            icache_lines=icache_lines,
            dcache_lines=dcache_lines,
            trap_on_overflow=trap_on_overflow,
            register_parity=register_parity,
        )
        super().__init__(self.card.cpu, self.card.chains)
        #: Extra workload images (name -> assembled Program), on top of
        #: the shared library — tests and examples register theirs here.
        self.extra_workloads = dict(extra_workloads or {})

    # ------------------------------------------------------------------
    # Figure 2 building blocks
    # ------------------------------------------------------------------
    def init_test_card(self) -> None:
        self.card.init_target()
        self._scan_buffers.clear()
        self._running = False

    def load_workload(self, workload_id: str) -> None:
        program = self.extra_workloads.get(workload_id)
        if program is None:
            try:
                program = library.load(workload_id)
            except KeyError as exc:
                raise TargetError(str(exc)) from exc
        self.card.load_workload(program)

    @property
    def _loaded(self):
        return self.card.loaded_workload

    def write_memory(self, address: int, words: list[int]) -> None:
        self.card.write_memory(address, words)

    def read_memory(self, address: int, count: int) -> list[int]:
        return self.card.read_memory(address, count)

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def available_workloads(self) -> list[str]:
        return sorted(set(library.workload_names()) | set(self.extra_workloads))

    def describe(self) -> dict:
        memory_map = self.machine.memory.map
        return {
            "location_space": self.location_space().to_config(),
            "scan_chains": self.card.describe_chains(),
            "memory_map": {
                "program_base": memory_map.program_base,
                "program_limit": memory_map.program_limit,
                "data_base": memory_map.data_base,
                "stack_top": memory_map.stack_top,
            },
            "workloads": self.available_workloads(),
            "fault_models": ["transient_bitflip", "stuck_at", "intermittent_bitflip"],
            "techniques": ["scifi", "swifi_preruntime", "swifi_runtime", "pinlevel"],
            "edm_config": {
                "register_parity": self.machine.register_parity,
                "trap_on_overflow": self.machine.trap_on_overflow,
            },
        }

    def _memory_regions(self) -> list[MemoryRegionInfo]:
        program = self._loaded
        if program is None:
            memory_map = self.machine.memory.map
            return [
                MemoryRegionInfo(
                    name="program", base=memory_map.program_base, limit=memory_map.program_limit
                ),
                MemoryRegionInfo(
                    name="data", base=memory_map.data_base, limit=memory_map.stack_top
                ),
            ]
        regions: list[MemoryRegionInfo] = []
        if program.program:
            regions.append(
                MemoryRegionInfo(
                    name="program",
                    base=program.program_base,
                    limit=program.program_base + len(program.program),
                )
            )
        if program.data:
            regions.append(
                MemoryRegionInfo(
                    name="data",
                    base=program.data_base,
                    limit=program.data_base + len(program.data),
                )
            )
        return regions

    # ------------------------------------------------------------------
    # Simulated-target primitives
    # ------------------------------------------------------------------
    def _run_to_stop(
        self, max_cycles: int, max_iterations: int | None,
        stop_at_cycle: int | None = None,
    ) -> TerminationInfo | None:
        card = self.card
        # TestCard.run makes the environment exchange at each ITER boundary.
        card.env_exchange = None if self._environment is None else (
            lambda _card, iteration: self._exchange(iteration)
        )
        result = card.run(
            TerminationCondition(max_cycles=max_cycles, max_iterations=max_iterations),
            stop_at_cycle=stop_at_cycle,
        )
        return self._stop_info(result.reason)

    def _detection(self) -> dict | None:
        detection = self.machine.detection
        return None if detection is None else detection.to_dict()

    def _memory_word(self, address: int):
        """The word as the CPU sees it: a read takes the data cache's
        copy when the word is cached, and a write lands in memory and in
        each cached copy.  Invalidating a cached copy instead would drop
        data only the cache holds."""
        cpu = self.machine
        memory, dcache, icache = cpu.memory, cpu.dcache, cpu.icache

        def get_word() -> int:
            line = dcache.holding(address)
            return memory.host_read(address) if line is None else line.data

        def set_word(value: int) -> None:
            memory.host_write(address, value)
            dcache.update(address, value)
            icache.update(address, value)

        return get_word, set_word

    def _trace_hooks(self, instructions: list, mem_accesses: list, reg_accesses: list):
        def trace_hook(cycle: int, pc: int, inst: Instruction) -> None:
            instructions.append((cycle, pc, inst.op.name))
            reads, writes = cached_register_events(inst)
            for register in reads:
                reg_accesses.append((cycle, "read", register))
            for register in writes:
                reg_accesses.append((cycle, "write", register))

        def mem_hook(access) -> None:
            mem_accesses.append((access.cycle, access.kind, access.address))

        return trace_hook, mem_hook

    def _save_machine(self) -> dict:
        """The test card: CPU, memory, caches and loaded workload."""
        return self.card.save_state()

    def _restore_machine(self, state: dict) -> None:
        self.card.restore_state(state)


def create_thor_target() -> ThorTargetInterface:
    """Factory registered with :mod:`repro.core.plugins`."""
    return ThorTargetInterface()
