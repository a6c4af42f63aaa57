"""The test card: host link to the THOR-RD-sim target.

In the paper the host talks to the Thor RD through a test card that
drives the scan chains and the board: download the workload, run, stop
on breakpoints/debug events, and access memory and scan chains.  This
module is that link for the simulated target.  It is the *only* surface
the GOOFI target-system interface uses, so the fault-injection layers
above never touch simulator internals directly.

Termination conditions follow §3.2: "a fault injection experiment can be
terminated by a debug event generated via the scan chains i.e., when a
time-out value has been reached, an error has been detected or the
execution of the workload ends, whichever comes first", plus a maximum
iteration count for infinite-loop workloads, with an optional
environment-simulator exchange at every loop boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .assembler import Program
from .cpu import StopReason, ThorCPU
from .edm import DetectionEvent
from .memory import Memory, MemoryMap
from .scanchain import ScanChain, build_scan_chains


@dataclass(frozen=True, slots=True)
class TerminationCondition:
    """When a fault-injection experiment run must stop.

    ``max_cycles`` is the watchdog time-out value.  ``max_iterations``
    applies to workloads "executed as an infinite loop", counting ITER
    boundaries; ``None`` means the workload terminates by itself.
    """

    max_cycles: int
    max_iterations: int | None = None


@dataclass(frozen=True, slots=True)
class RunResult:
    """Outcome of one (possibly resumed) run on the target."""

    reason: StopReason
    cycle: int
    iteration: int
    detection: DetectionEvent | None = None

    @property
    def timed_out(self) -> bool:
        return self.reason is StopReason.CYCLE_LIMIT

    @property
    def workload_ended(self) -> bool:
        return self.reason is StopReason.HALTED

    @property
    def error_detected(self) -> bool:
        return self.reason is StopReason.DETECTED


#: Signature of an environment-simulator exchange callback: it receives
#: the test card (for memory access) and the finished iteration number.
EnvExchange = Callable[["TestCard", int], None]


class TestCard:
    """Host-side controller of one simulated target system."""

    # Not a pytest test class, despite the Test* name.
    __test__ = False

    def __init__(
        self,
        icache_lines: int = 32,
        dcache_lines: int = 32,
        trap_on_overflow: bool = False,
        register_parity: bool = False,
        memory_map: MemoryMap | None = None,
    ) -> None:
        self.cpu = ThorCPU(
            memory=Memory(memory_map or MemoryMap()),
            icache_lines=icache_lines,
            dcache_lines=dcache_lines,
            trap_on_overflow=trap_on_overflow,
            register_parity=register_parity,
        )
        self.chains: dict[str, ScanChain] = build_scan_chains(self.cpu)
        #: Called after each completed workload loop iteration.
        self.env_exchange: EnvExchange | None = None
        self._loaded: Program | None = None

    # ------------------------------------------------------------------
    # Target initialisation and workload download
    # ------------------------------------------------------------------
    def init_target(self) -> None:
        """Power-cycle equivalent: clear memory, reset the processor."""
        self.cpu.memory.clear()
        self.cpu.reset()
        self._loaded = None

    def load_workload(self, program: Program) -> None:
        """Download an assembled workload image and point PC at entry."""
        self.cpu.memory.load_image(program.program_base, program.program)
        if program.data:
            self.cpu.memory.load_image(program.data_base, program.data)
        self.cpu.reset(entry_point=program.entry_point)
        self._loaded = program

    @property
    def loaded_workload(self) -> Program | None:
        return self._loaded

    # ------------------------------------------------------------------
    # Memory access (host DMA — bypasses the MPU, used for pre-runtime
    # SWIFI and for input/output data exchange)
    # ------------------------------------------------------------------
    def read_memory(self, address: int, count: int = 1) -> list[int]:
        return self.cpu.memory.host_read_block(address, count)

    def write_memory(self, address: int, words: list[int] | int) -> None:
        # Coherent DMA: drop any cached copies of the rewritten words so
        # the CPU observes them (environment-simulator input data,
        # runtime-SWIFI corruptions).
        if isinstance(words, int):
            words = [words]
        cpu = self.cpu
        for offset, value in enumerate(words):
            cpu.memory.host_write(address + offset, value)
            cpu.dcache.snoop_invalidate(address + offset)
            cpu.icache.snoop_invalidate(address + offset)

    # ------------------------------------------------------------------
    # Scan-chain access
    # ------------------------------------------------------------------
    def scan_chain(self, name: str) -> ScanChain:
        try:
            return self.chains[name]
        except KeyError:
            raise KeyError(f"target has no scan chain {name!r}") from None

    def read_scan_chain(self, name: str) -> int:
        return self.scan_chain(name).read()

    def write_scan_chain(self, name: str, value: int) -> None:
        self.scan_chain(name).write(value)

    # ------------------------------------------------------------------
    # Breakpoints and execution
    # ------------------------------------------------------------------
    def set_breakpoint(self, address: int) -> None:
        self.cpu.breakpoints.add(address & 0xFFFF)

    def clear_breakpoints(self) -> None:
        self.cpu.breakpoints.clear()

    def run(
        self,
        termination: TerminationCondition,
        stop_at_cycle: int | None = None,
        step_over_breakpoint: bool = False,
    ) -> RunResult:
        """Run (or resume) the workload until a debug event.

        ``stop_at_cycle`` arms a time breakpoint: the run stops *before*
        the instruction whose cycle number equals it — the state the
        SCIFI algorithm injects into.  ``step_over_breakpoint`` resumes
        past an address breakpoint the previous run stopped at.

        The environment-simulator exchange (if configured) happens at
        every ITER boundary; the run then continues transparently unless
        ``max_iterations`` has been reached.
        """
        cpu = self.cpu
        if step_over_breakpoint and not cpu.halted:
            stop = cpu.step()
            if stop is not None:
                result = self._handle_stop(stop, termination)
                if result is not None:
                    return result
        while True:
            reason = cpu.run(termination.max_cycles, stop_at_cycle=stop_at_cycle)
            result = self._handle_stop(reason, termination)
            if result is not None:
                return result

    def _handle_stop(
        self, reason: StopReason, termination: TerminationCondition
    ) -> RunResult | None:
        """Translate a CPU stop into a run result, or ``None`` to resume
        (an ITER boundary below the iteration limit)."""
        cpu = self.cpu
        if reason is StopReason.ITERATION:
            if self.env_exchange is not None:
                self.env_exchange(self, cpu.iteration)
            limit = termination.max_iterations
            if limit is not None and cpu.iteration >= limit:
                return RunResult(StopReason.HALTED, cpu.cycle, cpu.iteration, None)
            return None
        return RunResult(reason, cpu.cycle, cpu.iteration, cpu.detection)

    def step(self) -> StopReason | None:
        """Single-step one instruction (detail-mode logging driver)."""
        return self.cpu.step()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """Snapshot everything behind the host link: CPU (with memory
        and caches) and the loaded-workload handle.  ``Program`` objects
        are immutable, so the handle is shared, not copied."""
        return {"cpu": self.cpu.save_state(), "loaded": self._loaded}

    def restore_state(self, state: dict) -> None:
        self.cpu.restore_state(state["cpu"])
        self._loaded = state["loaded"]

    # ------------------------------------------------------------------
    # Observation helpers
    # ------------------------------------------------------------------
    def output_log(self) -> list[tuple[int, int, int]]:
        """The (cycle, port, value) sequence the workload emitted — the
        workload's externally visible result."""
        return list(self.cpu.output_log)

    def describe_chains(self) -> dict[str, list[dict]]:
        """Serialisable layout of every scan chain (TargetSystemData)."""
        return {name: chain.describe() for name, chain in self.chains.items()}
