"""The GOOFI framework: the target-system interface template.

Paper Figure 3: "The Framework class is used as a template by the
programmer when creating a new TargetSystemInterface class.  The
TargetSystemInterface class inherits the FaultInjectionAlgorithms class
and can therefore use the defined fault injection algorithms directly.
Only the abstract methods used by the algorithm need to be implemented."

In this Python reproduction the roles map as follows:

* :class:`TargetSystemInterface` (this module) — the abstract template:
  the building-block methods each target must provide (the paper's
  ``initTestCard``, ``loadWorkload``, ``runWorkload``,
  ``waitForBreakpoint``, ``writeMemory``, ``readMemory``,
  ``readScanChain``, ``injectFault``, ``writeScanChain``,
  ``waitForTermination``, in snake_case), plus those added by the
  extension techniques (detail-mode stepping, trace recording, fault
  overlays for permanent/intermittent models).
* :class:`repro.core.algorithms.FaultInjectionAlgorithms` — the generic
  fault-injection algorithms, written purely against these methods.

The scan-chain read/modify/write protocol is *stateful*, exactly like
the paper's void methods: ``read_scan_chain`` captures the chain into a
buffer held by the interface, ``inject_fault`` inverts bits in the
buffer, ``write_scan_chain`` shifts the buffer back into the target.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass

from .errors import TargetError
from .faultmodels import FaultModel
from .locations import KIND_SCAN, Location, LocationSpace
from .triggers import ReferenceTrace

#: Technique-independent termination outcomes (the target maps its
#: native debug events onto these).
OUTCOME_WORKLOAD_END = "workload_end"
OUTCOME_DETECTED = "error_detected"
OUTCOME_TIMEOUT = "timeout"


@dataclass(frozen=True, slots=True)
class TerminationInfo:
    """How a fault-injection experiment run ended.

    ``detection`` carries the firing EDM's serialised
    :class:`~repro.targets.thor.edm.DetectionEvent` when
    ``outcome == OUTCOME_DETECTED``.
    """

    outcome: str
    cycle: int
    iteration: int = 0
    detection: dict | None = None

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "cycle": self.cycle,
            "iteration": self.iteration,
            "detection": self.detection,
        }


@dataclass(frozen=True, slots=True)
class Termination:
    """Experiment termination conditions (paper §3.2): time-out value,
    and for infinite-loop workloads a maximum number of iterations."""

    max_cycles: int
    max_iterations: int | None = None

    def to_dict(self) -> dict:
        return {"max_cycles": self.max_cycles, "max_iterations": self.max_iterations}

    @classmethod
    def from_dict(cls, data: dict) -> "Termination":
        return cls(
            max_cycles=int(data["max_cycles"]),
            max_iterations=(
                int(data["max_iterations"]) if data.get("max_iterations") is not None else None
            ),
        )


@dataclass(frozen=True, slots=True)
class ObservationSpec:
    """What to log into the state vector ("the locations to observe can
    be selected by the user in the set-up phase").

    ``scan_elements`` are explicit ``"chain:element"`` keys;
    ``memory_ranges`` are ``(base, count)`` word ranges;
    ``include_outputs`` adds the workload's output-port log.
    """

    scan_elements: tuple[str, ...] = ()
    memory_ranges: tuple[tuple[int, int], ...] = ()
    include_outputs: bool = True

    def to_dict(self) -> dict:
        return {
            "scan_elements": list(self.scan_elements),
            "memory_ranges": [list(r) for r in self.memory_ranges],
            "include_outputs": self.include_outputs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ObservationSpec":
        return cls(
            scan_elements=tuple(data.get("scan_elements", [])),
            memory_ranges=tuple((int(b), int(c)) for b, c in data.get("memory_ranges", [])),
            include_outputs=bool(data.get("include_outputs", True)),
        )


class TargetSystemInterface(abc.ABC):
    """Abstract target interface — the paper's Framework template.

    Subclass per target system; implement the abstract methods; register
    the class in :mod:`repro.core.plugins`.  The fault-injection
    algorithms never touch anything below this interface.
    """

    #: Name under which the target registers itself (``TargetSystemData``
    #: primary key).
    target_name: str = "unnamed-target"
    #: Identifier of the host link hardware (``testCardName`` column).
    test_card_name: str = "simulated-test-card"
    #: Whether :meth:`save_state`/:meth:`restore_state` are implemented.
    #: The campaign engines only use checkpointing on targets that
    #: declare support; a real hardware board typically cannot.
    supports_checkpoints: bool = False
    #: Whether :meth:`run_until_cycle` is implemented (and therefore the
    #: campaign-scale propagation probes of :mod:`repro.core.probes` can
    #: stop the run at probe cycles without losing the termination
    #: conditions).  Requires the target to fold the probe stop into its
    #: normal run loop the same way time breakpoints fold in, so probed
    #: and un-probed runs stay bit-identical.
    supports_probes: bool = False

    def __init__(self) -> None:
        self._scan_buffers: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Paper Figure 2 building blocks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def init_test_card(self) -> None:
        """Initialise the host link and reset the target system."""

    @abc.abstractmethod
    def load_workload(self, workload_id: str) -> None:
        """Download the named workload (and its initial input data)."""

    @abc.abstractmethod
    def write_memory(self, address: int, words: list[int]) -> None:
        """Host DMA write (input data download; pre-runtime SWIFI)."""

    @abc.abstractmethod
    def read_memory(self, address: int, count: int) -> list[int]:
        """Host DMA read (result read-back; state-vector logging)."""

    @abc.abstractmethod
    def run_workload(self) -> None:
        """Start (arm) execution of the downloaded workload."""

    @abc.abstractmethod
    def wait_for_breakpoint(self, cycle: int) -> TerminationInfo | None:
        """Run until the time breakpoint at ``cycle``.

        Returns ``None`` when the breakpoint was reached (the target is
        stopped at the injection point), or a :class:`TerminationInfo`
        when the run ended *before* the breakpoint (earlier fault
        crashed it, workload finished, watchdog fired)."""

    @abc.abstractmethod
    def wait_for_termination(self, termination: Termination) -> TerminationInfo:
        """Resume and run until a termination condition (§3.2)."""

    def run_until_cycle(
        self, cycle: int, termination: Termination
    ) -> TerminationInfo | None:
        """Run until ``cycle`` *or* until a termination condition fires,
        whichever comes first — the probe-stop primitive.

        Unlike :meth:`wait_for_breakpoint` (which only bounds the run by
        the breakpoint cycle), the full termination conditions — the
        watchdog ``max_cycles`` *and* the ``max_iterations`` loop limit —
        stay armed while running to the stop cycle, so slicing a
        run-to-termination segment at probe cycles observes exactly the
        outcome an unsliced :meth:`wait_for_termination` would.  Returns
        ``None`` when the stop cycle was reached, or the
        :class:`TerminationInfo` when the run ended first.

        Only targets declaring ``supports_probes`` implement this;
        simulated targets fold the stop cycle into their fused fast loop
        exactly like a time breakpoint."""
        raise TargetError(
            f"target {self.target_name!r} does not support probe stops"
        )

    def probe_scan_chain(self, chain: str) -> tuple[int, ...]:
        """Read-only snapshot for propagation probes: every element's
        value in chain order, *without* touching the stateful injection
        buffer of :meth:`read_scan_chain`, so probing mid-experiment can
        never disturb a pending read/inject/write sequence.  Returns the
        per-element tuple rather than the packed bit vector — probes
        diff snapshots element-wise, and skipping the bit-vector
        assembly roughly halves the per-probe cost.

        Only targets declaring ``supports_probes`` implement this."""
        raise TargetError(
            f"target {self.target_name!r} does not support propagation probes"
        )

    def probe_scan_chain_packed(self, chain: str):
        """:meth:`probe_scan_chain` packed into an ``array('Q')``
        buffer, or ``None`` when packing is unavailable (an element
        value beyond 64 bits).  Probe readout compares two packed
        buffers in one C-level operation and only walks elements of
        chains that differ; ``None`` keeps the per-element tuple path
        authoritative.  Targets with a packed snapshot primitive
        override this; the default packs the tuple snapshot."""
        try:
            return array("Q", self.probe_scan_chain(chain))
        except OverflowError:
            return None

    def probe_element_names(self, chain: str) -> list[str]:
        """Element names of ``chain`` in :meth:`probe_scan_chain`
        snapshot order.  Only probe-capable targets implement this."""
        raise TargetError(
            f"target {self.target_name!r} does not support propagation probes"
        )

    @abc.abstractmethod
    def _scan_read_raw(self, chain: str) -> int:
        """Shift out one scan chain (target-specific)."""

    @abc.abstractmethod
    def _scan_write_raw(self, chain: str, value: int) -> None:
        """Shift one scan chain back in (target-specific)."""

    # The stateful read/inject/write protocol of Figure 2, implemented
    # once here on top of the raw chain access.
    def read_scan_chain(self, chain: str) -> int:
        """Capture ``chain`` into the injection buffer and return it."""
        value = self._scan_read_raw(chain)
        self._scan_buffers[chain] = value
        return value

    def inject_fault(self, location: Location) -> None:
        """Invert one bit of a captured scan chain in the buffer.

        Must be preceded by :meth:`read_scan_chain` on that chain and
        followed by :meth:`write_scan_chain` to take effect — the same
        three-step dance as the paper's SCIFI algorithm.
        """
        if location.kind != KIND_SCAN:
            raise TargetError(
                f"inject_fault flips scan bits; got {location.label()} "
                f"(memory faults go through write_memory)"
            )
        if location.chain not in self._scan_buffers:
            raise TargetError(
                f"scan chain {location.chain!r} not captured; call read_scan_chain first"
            )
        position = self.scan_bit_position(location.chain, location.element, location.bit)
        self._scan_buffers[location.chain] ^= 1 << position

    def write_scan_chain(self, chain: str) -> None:
        """Shift the (possibly fault-injected) buffer back in."""
        if chain not in self._scan_buffers:
            raise TargetError(f"scan chain {chain!r} not captured; nothing to write")
        self._scan_write_raw(chain, self._scan_buffers[chain])

    # ------------------------------------------------------------------
    # Target metadata
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def scan_bit_position(self, chain: str, element: str, bit: int) -> int:
        """Absolute bit position of an element bit within a chain."""

    @abc.abstractmethod
    def location_space(self) -> LocationSpace:
        """Everything injectable/observable on this target."""

    @abc.abstractmethod
    def available_workloads(self) -> list[str]:
        """Workload identifiers :meth:`load_workload` accepts."""

    @abc.abstractmethod
    def describe(self) -> dict:
        """The ``TargetSystemData.configJson`` payload: location space,
        chain layouts, memory map, workloads, supported fault models."""

    def workload_symbol(self, name: str) -> int:
        """The address of symbol ``name`` in the loaded workload (an
        environment's sensor or actuator cell, a task-switch
        dispatcher).  A target whose workloads carry no symbol table
        keeps this default, which refuses."""
        raise TargetError(f"{self.target_name} workloads have no symbol table")

    # ------------------------------------------------------------------
    # Extension building blocks (added to the Framework by the
    # techniques that need them, as §2.1 prescribes)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def single_step(self, termination: Termination) -> TerminationInfo | None:
        """Execute one machine instruction (detail-mode logging),
        honouring the termination conditions (watchdog, iteration limit,
        environment exchange at ITER boundaries).  Returns termination
        info when that instruction ended the run, else ``None``."""

    @abc.abstractmethod
    def current_cycle(self) -> int:
        """The target's current point in time."""

    @abc.abstractmethod
    def capture_state(self, observation: ObservationSpec) -> dict:
        """Log the observable system state (scan elements, memory
        ranges, workload outputs) as a JSON-able dict."""

    @abc.abstractmethod
    def record_trace(self, termination: Termination) -> tuple[TerminationInfo, ReferenceTrace]:
        """Run the loaded workload to termination while recording the
        instruction/memory-access trace (reference-run support for
        trigger resolution and pre-injection analysis)."""

    @abc.abstractmethod
    def install_fault_overlay(self, location: Location, model: FaultModel, seed: int) -> None:
        """Arm a non-transient fault (stuck-at / intermittent) so it
        stays applied while the workload runs."""

    @abc.abstractmethod
    def set_environment(self, env) -> None:
        """Attach an environment simulator (or ``None``) exchanging data
        with the workload at loop-iteration boundaries."""

    # ------------------------------------------------------------------
    # Execution engine (optional)
    # ------------------------------------------------------------------
    def set_fast_path(self, enabled: bool) -> None:
        """Select the target's execution engine, when it has more than
        one.  Simulated targets route plain runs through a fused hot
        loop whose observable behaviour is bit-identical to their
        reference step loop; ``enabled=False`` forces the reference
        loop (the campaign-level ``fast=False`` escape hatch).  Targets
        with a single engine — e.g. real hardware — ignore this."""

    def execution_stats(self) -> dict:
        """Diagnostic counters of the execution engine, surfaced into
        the telemetry registry by the campaign engines.  Simulated
        targets report ``fast_segments`` / ``ref_segments`` (run-loop
        segments executed by each engine) and ``cycles`` (the current
        cycle counter); empty for targets without instrumentation.
        Never part of checkpointed state."""
        return {}

    # ------------------------------------------------------------------
    # Checkpointing (optional; targets that can snapshot their full
    # state set ``supports_checkpoints = True`` and override these)
    # ------------------------------------------------------------------
    def save_state(self) -> object:
        """A full-fidelity snapshot of the target state: everything that
        influences future execution and observation — restoring it must
        be indistinguishable from having simulated to this point.  The
        returned object is opaque to the callers and must not alias live
        target state (later execution must not mutate it)."""
        raise TargetError(
            f"target {self.target_name!r} does not support checkpointing"
        )

    def restore_state(self, state: object) -> None:
        """Restore a snapshot produced by :meth:`save_state` on this
        target, leaving the cached snapshot reusable."""
        raise TargetError(
            f"target {self.target_name!r} does not support checkpointing"
        )

