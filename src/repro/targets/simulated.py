"""The shared half of the simulated targets.

:class:`~repro.core.framework.TargetSystemInterface` is the porting
contract: a hardware target implements it method by method.  The
simulated targets (THOR-RD-sim and THOR-SM) answer most of it the same
way, because each owns a simulated processor with a cycle counter, a
run loop that stops at a cycle, post-step hooks and scan chains built
from :mod:`repro.targets.scan`.  :class:`SimulatedTarget` implements
those methods once — run control, scan access, fault overlays, state
capture, trace recording, the engine switches and checkpointing — on
top of what each target supplies:

* ``machine`` — the processor.  Read here: ``cycle``, ``iteration``,
  ``pc``, ``halted``, ``detection``, ``output_log``, ``trace_hook``,
  ``mem_hook``, ``post_step_hooks``, ``fast``, ``fast_segments``,
  ``ref_segments`` and ``step()``;
* ``chains`` — its scan chains by name;
* ``stops`` — the machine's names for the ways its run loop returns;
* ``_loaded`` — the loaded workload image, or ``None``;
* the primitives declared abstract below: one run primitive, word
  access for memory overlays, the memory regions, the trace hooks, and
  the machine half of a checkpoint;
* and the rest of the template: ``init_test_card``, ``load_workload``,
  ``read_memory``/``write_memory``, ``available_workloads`` and
  ``describe``.
"""

from __future__ import annotations

import abc
import copy
from typing import Callable, NamedTuple

from ..core.errors import TargetError
from ..core.faultmodels import (
    FaultModel,
    IntermittentBitFlip,
    StuckAt,
    TransientBitFlip,
)
from ..core.framework import (
    OUTCOME_DETECTED,
    OUTCOME_TIMEOUT,
    OUTCOME_WORKLOAD_END,
    ObservationSpec,
    TargetSystemInterface,
    Termination,
    TerminationInfo,
)
from ..core.locations import (
    KIND_MEMORY,
    KIND_SCAN,
    Location,
    LocationSpace,
    MemoryRegionInfo,
    ScanElementInfo,
)
from ..core.triggers import ReferenceTrace
from ..pcg64 import PCG64
from .scan import ScanChain


class StopNames(NamedTuple):
    """How a machine names the ways its run loop returns."""

    halted: object
    detected: object
    cycle_limit: object
    cycle_break: object
    iteration: object


class _StuckBit:
    """A stuck-at overlay: a post-step hook that forces one bit."""

    __slots__ = ("get_value", "set_value", "mask", "value")

    def __init__(self, get_value, set_value, mask: int, value: int) -> None:
        self.get_value = get_value
        self.set_value = set_value
        self.mask = mask
        self.value = value

    def __call__(self, _machine=None) -> None:
        value = self.get_value()
        forced = value | self.mask if self.value else value & ~self.mask
        if forced != value:
            self.set_value(forced)


class SimulatedTarget(TargetSystemInterface):
    """The :class:`TargetSystemInterface` methods every simulated target
    implements the same way (see the module docstring for what a
    subclass supplies)."""

    supports_checkpoints = True
    supports_probes = True
    stops: StopNames

    def __init__(self, machine, chains: dict[str, ScanChain]) -> None:
        super().__init__()
        self.machine = machine
        self.chains = chains
        self._environment = None
        self._running = False

    # ------------------------------------------------------------------
    # What each simulated target supplies
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _run_to_stop(
        self, max_cycles: int, max_iterations: int | None,
        stop_at_cycle: int | None = None,
    ) -> TerminationInfo | None:
        """Run (or resume) until the machine stops: ``None`` at
        ``stop_at_cycle``, else the :meth:`_stop_info` of the stop.
        ITER boundaries exchange data with the environment and end the
        run once ``max_iterations`` is reached."""

    @abc.abstractmethod
    def _memory_word(self, address: int) -> tuple[Callable[[], int], Callable[[int], None]]:
        """Getter and setter of one memory word, for fault overlays."""

    @abc.abstractmethod
    def _memory_regions(self) -> list[MemoryRegionInfo]:
        """The injectable memory regions (of the loaded workload when
        there is one, else of the whole memory map)."""

    @abc.abstractmethod
    def _trace_hooks(self, instructions: list, mem_accesses: list, reg_accesses: list):
        """The machine's ``(trace_hook, mem_hook)`` pair that appends
        ``(cycle, pc, mnemonic)``, ``(cycle, kind, address)`` and
        ``(cycle, kind, register)`` records to the three lists."""

    @abc.abstractmethod
    def _save_machine(self) -> object:
        """Snapshot of the machine and the loaded workload."""

    @abc.abstractmethod
    def _restore_machine(self, state: object) -> None:
        """Restore a :meth:`_save_machine` snapshot."""

    def _detection(self) -> dict | None:
        """The firing EDM's record, as :class:`TerminationInfo` carries
        it, or ``None``."""
        return self.machine.detection

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def run_workload(self) -> None:
        if self._loaded is None:
            raise TargetError("no workload loaded; call load_workload first")
        self._running = True

    def wait_for_breakpoint(self, cycle: int) -> TerminationInfo | None:
        return self._run_to_cycle(cycle, cycle + 1, None, "time breakpoint")

    def run_until_cycle(
        self, cycle: int, termination: Termination
    ) -> TerminationInfo | None:
        # The stop cycle folds into the fused run loop exactly like a
        # time breakpoint, but the *full* termination conditions stay
        # armed: max_iterations keeps counting across probe stops, so a
        # sliced run ends exactly where an unsliced one would.
        return self._run_to_cycle(
            cycle, termination.max_cycles, termination.max_iterations, "probe stop"
        )

    def wait_for_termination(self, termination: Termination) -> TerminationInfo:
        stopped = self._stopped()
        if stopped is not None:
            return stopped
        return self._run_to_stop(termination.max_cycles, termination.max_iterations)

    def single_step(self, termination: Termination) -> TerminationInfo | None:
        stopped = self._stopped()
        if stopped is not None:
            return stopped
        machine = self.machine
        stop = machine.step()
        if stop == self.stops.iteration:
            if self._end_iteration(termination.max_iterations):
                return self._stop_info(self.stops.halted)
            stop = None
        if stop is not None:
            return self._stop_info(stop)
        if machine.cycle >= termination.max_cycles:
            return self._stop_info(self.stops.cycle_limit)
        return None

    def current_cycle(self) -> int:
        return self.machine.cycle

    def _run_to_cycle(
        self, cycle: int, max_cycles: int, max_iterations: int | None, what: str
    ) -> TerminationInfo | None:
        stopped = self._stopped()
        if stopped is not None:
            return stopped
        now = self.machine.cycle
        if cycle < now:
            raise TargetError(
                f"{what} at cycle {cycle} is in the past (target is at cycle {now})"
            )
        return self._run_to_stop(max_cycles, max_iterations, cycle)

    def _stopped(self) -> TerminationInfo | None:
        """Require a started workload; how it ended when the machine
        has already stopped, else ``None``."""
        if not self._running:
            raise TargetError("workload not started; call run_workload first")
        machine = self.machine
        if not machine.halted:
            return None
        detection = self._detection()
        outcome = OUTCOME_WORKLOAD_END if detection is None else OUTCOME_DETECTED
        return TerminationInfo(outcome, machine.cycle, machine.iteration, detection)

    def _stop_info(self, reason) -> TerminationInfo | None:
        """How a run that stopped for ``reason`` ended; ``None`` at a
        cycle break."""
        stops = self.stops
        machine = self.machine
        if reason == stops.cycle_break:
            return None
        if reason == stops.halted:
            return TerminationInfo(OUTCOME_WORKLOAD_END, machine.cycle, machine.iteration)
        if reason == stops.detected:
            return TerminationInfo(
                OUTCOME_DETECTED, machine.cycle, machine.iteration, self._detection()
            )
        if reason == stops.cycle_limit:
            return TerminationInfo(OUTCOME_TIMEOUT, machine.cycle, machine.iteration)
        raise TargetError(f"unexpected stop reason {reason!r}")

    def _end_iteration(self, max_iterations: int | None) -> bool:
        """An ITER boundary: exchange data with the environment, then
        whether the iteration limit is reached."""
        iteration = self.machine.iteration
        if self._environment is not None:
            self._exchange(iteration)
        return max_iterations is not None and iteration >= max_iterations

    def _exchange(self, iteration: int) -> None:
        """The environment's data exchange.  Its writes do not lift a
        stuck-at fault: each stuck bit is forced again after them."""
        self._environment.exchange(self, iteration)
        for hook in self.machine.post_step_hooks:
            if isinstance(hook, _StuckBit):
                hook()

    # ------------------------------------------------------------------
    # Scan access
    # ------------------------------------------------------------------
    def _chain(self, name: str) -> ScanChain:
        try:
            return self.chains[name]
        except KeyError:
            raise TargetError(f"{self.target_name} has no scan chain {name!r}") from None

    def _scan_read_raw(self, chain: str) -> int:
        return self._chain(chain).read()

    def _scan_write_raw(self, chain: str, value: int) -> None:
        self._chain(chain).write(value)

    def probe_scan_chain(self, chain: str) -> tuple[int, ...]:
        return self._chain(chain).snapshot()

    def probe_scan_chain_packed(self, chain: str):
        return self._chain(chain).snapshot_packed()

    def probe_element_names(self, chain: str) -> list[str]:
        return self._chain(chain).element_names()

    def scan_bit_position(self, chain: str, element: str, bit: int) -> int:
        try:
            return self._chain(chain).bit_position(element, bit)
        except (KeyError, ValueError) as exc:
            raise TargetError(str(exc)) from exc

    def location_space(self) -> LocationSpace:
        elements = [
            ScanElementInfo(chain=name, name=e.name, width=e.width, writable=e.writable)
            for name, chain in self.chains.items()
            for e in chain.elements
        ]
        return LocationSpace(scan_elements=elements, memory_regions=self._memory_regions())

    def workload_symbol(self, name: str) -> int:
        if self._loaded is None:
            raise TargetError("no workload loaded")
        try:
            return self._loaded.symbol(name)
        except KeyError as exc:
            raise TargetError(exc.args[0]) from None

    # ------------------------------------------------------------------
    # Faults and observation
    # ------------------------------------------------------------------
    def install_fault_overlay(self, location: Location, model: FaultModel, seed: int) -> None:
        if isinstance(model, TransientBitFlip):
            raise TargetError("transient faults go through the scan chains, not overlays")
        get_value, set_value = self._overlay_accessors(location)
        mask = 1 << location.bit
        machine = self.machine
        if isinstance(model, StuckAt):
            stuck = _StuckBit(get_value, set_value, mask, model.value)
            stuck()  # the fault is present from the moment of injection
            machine.post_step_hooks.append(stuck)
        elif isinstance(model, IntermittentBitFlip):
            rng = PCG64(seed)
            start_cycle = machine.cycle

            def intermittent_hook(inner) -> None:
                if inner.cycle - start_cycle >= model.duration:
                    return
                if rng.random() < model.activity:
                    set_value(get_value() ^ mask)

            machine.post_step_hooks.append(intermittent_hook)
        else:  # pragma: no cover - exhaustive over FaultModel
            raise TargetError(f"unsupported fault model {model!r}")

    def _overlay_accessors(self, location: Location):
        if location.kind == KIND_SCAN:
            element = self._chain(location.chain).element(location.element)
            if not element.writable:
                raise TargetError(f"cannot overlay read-only element {location.label()}")
            return element.getter, element.setter
        if location.kind == KIND_MEMORY:
            return self._memory_word(location.address)
        raise TargetError(f"cannot overlay location {location.label()}")

    def capture_state(self, observation: ObservationSpec) -> dict:
        machine = self.machine
        chains = self.chains
        scan: dict[str, int] = {}
        for key in observation.scan_elements:
            chain_name, _, element = key.partition(":")
            scan[key] = chains[chain_name].read_element(element)
        memory: dict[str, int] = {}
        for base, count in observation.memory_ranges:
            for offset, word in enumerate(self.read_memory(base, count)):
                memory[str(base + offset)] = word
        state: dict = {
            "scan": scan,
            "memory": memory,
            "cycle": machine.cycle,
            "iteration": machine.iteration,
            "pc": machine.pc,
        }
        if observation.include_outputs:
            state["outputs"] = [list(entry) for entry in machine.output_log]
        return state

    def record_trace(self, termination: Termination) -> tuple[TerminationInfo, ReferenceTrace]:
        # record_trace may be called directly after load_workload.
        if self._loaded is None:
            raise TargetError("no workload loaded")
        self._running = True
        machine = self.machine
        instructions: list[tuple[int, int, str]] = []
        mem_accesses: list[tuple[int, str, int]] = []
        reg_accesses: list[tuple[int, str, int]] = []
        machine.trace_hook, machine.mem_hook = self._trace_hooks(
            instructions, mem_accesses, reg_accesses
        )
        try:
            info = self._run_to_stop(termination.max_cycles, termination.max_iterations)
        finally:
            machine.trace_hook = None
            machine.mem_hook = None
        trace = ReferenceTrace(
            instructions=instructions,
            mem_accesses=mem_accesses,
            reg_accesses=reg_accesses,
            duration=machine.cycle,
        )
        return info, trace

    # ------------------------------------------------------------------
    # Execution engine and environment
    # ------------------------------------------------------------------
    def set_environment(self, env) -> None:
        self._environment = env

    @property
    def environment(self):
        """The attached environment simulator, if any (analysis and
        benches read its plant history)."""
        return self._environment

    def set_fast_path(self, enabled: bool) -> None:
        self.machine.fast = bool(enabled)

    def execution_stats(self) -> dict:
        machine = self.machine
        return {
            "fast_segments": machine.fast_segments,
            "ref_segments": machine.ref_segments,
            "cycles": machine.cycle,
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """Full-fidelity snapshot: the machine with its loaded workload,
        the run flag, and a deep copy of the attached environment
        simulator — its plant state advances with the workload's ITER
        boundaries and is part of the prefix."""
        return {
            "machine": self._save_machine(),
            "running": self._running,
            "environment": copy.deepcopy(self._environment),
        }

    def restore_state(self, state: dict) -> None:
        self._restore_machine(state["machine"])
        self._running = state["running"]
        # Any scan capture from a previous experiment is stale now.
        self._scan_buffers.clear()
        # A copy, so the cached snapshot stays pristine for the next
        # restore.
        self._environment = copy.deepcopy(state["environment"])
