"""Campaign-scale fault-effect observation: periodic propagation probes.

The paper's error-propagation analysis (§2.3) needs detail mode — a
period-1 single-step re-run, ~100x slower than the hot-loop engine — so
it is only ever applied to a handful of hand-picked experiments.  This
module observes *every* experiment in a campaign instead, at a coarse
but uniform resolution (the ZOFI/MRFI trade: cheap observation of all
runs beats precise observation of a few):

* During each experiment the run is sliced at fixed **probe cycles**
  (multiples of the probe period after the first injection).  The slice
  boundary folds into the target's fused fast loop exactly like a time
  breakpoint (:meth:`TargetSystemInterface.run_until_cycle`), so the
  fast path stays engaged between probes and — crucially — the full
  termination conditions stay armed across slices: probed runs are
  **bit-identical** to un-probed ones in every mode (serial, parallel,
  checkpointed, fast/reference).
* At each probe cycle the scan chains are dumped read-only
  (:meth:`TargetSystemInterface.probe_scan_chain`, reusing the
  precomputed shift plans — well under 100us per chain) and diffed
  element-wise against a **golden snapshot**: the fault-free chain
  image at that same cycle, captured *once per campaign* in a single
  extra fault-free pass and shared across experiments and workers.
* The diffs reduce to a compact per-experiment propagation summary —
  first-divergence cycle, dormancy, infection-count curve, infected
  location classes, and which EDM ultimately fired — persisted in the
  ``PropagationProbe`` table and aggregated by ``goofi analyze
  --propagation`` into an EDM coverage matrix and infection-curve
  percentiles.

Probe cycles start strictly *after* the experiment's first injection
cycle: before it the target state equals the golden run by construction
(zero information), and skipping the prefix keeps summaries invariant
under checkpoint restore (which jumps over exactly that prefix).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .errors import ConfigurationError, TargetError
from .framework import TargetSystemInterface, Termination, TerminationInfo
from .locations import KIND_SCAN

#: Default probe period in cycles.  Chosen so that the median paired
#: overhead of a probed campaign stays well under 10% on the stock
#: workloads (~6-8% measured on ``bubble_sort``; asserted by
#: ``benchmarks/bench_probes.py``); a probe is a read-only chain dump,
#: so halving the period roughly doubles the cost.
DEFAULT_PROBE_PERIOD = 500

#: Chains probed by default: the internal state (registers, control,
#: caches / stacks).  The boundary chain only changes at port activity
#: and is cheap to add via ``ProbeConfig(chains=("internal", "boundary"))``.
DEFAULT_PROBE_CHAINS = ("internal",)


@dataclass(frozen=True, slots=True)
class ProbeConfig:
    """How a campaign is probed: snapshot period (cycles) and which
    scan chains are dumped at each probe."""

    period: int = DEFAULT_PROBE_PERIOD
    chains: tuple[str, ...] = DEFAULT_PROBE_CHAINS

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError(
                f"probe period must be >= 1 cycle, got {self.period}"
            )
        if not self.chains:
            raise ConfigurationError("probe config needs at least one scan chain")

    def to_dict(self) -> dict:
        return {"period": self.period, "chains": list(self.chains)}

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeConfig":
        return cls(
            period=int(data.get("period", DEFAULT_PROBE_PERIOD)),
            chains=tuple(data.get("chains", DEFAULT_PROBE_CHAINS)),
        )


def resolve_probes(value) -> ProbeConfig | None:
    """Normalise the ``run_campaign(probes=...)`` knob.

    ``None``/``False`` → off; ``True`` → default config; an ``int`` →
    that probe period; a dict → :meth:`ProbeConfig.from_dict`; a ready
    :class:`ProbeConfig` passes through."""
    if value is None or value is False:
        return None
    if value is True:
        return ProbeConfig()
    if isinstance(value, ProbeConfig):
        return value
    if isinstance(value, int):
        return ProbeConfig(period=value)
    if isinstance(value, dict):
        return ProbeConfig.from_dict(value)
    raise ConfigurationError(
        f"probes must be a bool, period int, dict, or ProbeConfig; got {value!r}"
    )


def _pack_chain(values) -> array | None:
    """Pack chain-element values into an ``array('Q')`` for one-shot
    buffer comparison, or ``None`` when a value exceeds 64 bits (the
    element-tuple slow path stays authoritative)."""
    try:
        return array("Q", values)
    except OverflowError:
        return None


@dataclass(slots=True)
class GoldenSnapshots:
    """Fault-free chain images at every probe cycle, captured once per
    campaign and shared (as plain picklable ints) across experiments and
    parallel workers.

    ``snapshots[cycle]`` holds one per-element value tuple per
    configured chain, in ``chains`` order; ``duration`` is the cycle at
    which the fault-free run ended (no probes beyond it)."""

    period: int
    chains: tuple[str, ...]
    snapshots: dict[int, tuple[tuple[int, ...], ...]]
    duration: int
    #: Lazy per-(cycle, chain) ``array('Q')`` packings of ``snapshots``,
    #: built on first probe use (``None`` entries mark unpackable chains).
    _packed: dict = field(default_factory=dict, repr=False)

    def cycles(self) -> list[int]:
        return sorted(self.snapshots)

    # -- per-chain access (packed fast path + tuple slow path) ---------
    def packed_chain(self, cycle: int, index: int):
        """The golden ``array('Q')`` buffer of chain ``index`` at
        ``cycle``, or ``None`` when that chain does not pack.  Probe
        readout compares a freshly packed target snapshot against this
        in one C-level buffer comparison."""
        key = (cycle, index)
        try:
            return self._packed[key]
        except KeyError:
            packed = self._packed[key] = _pack_chain(self.snapshots[cycle][index])
            return packed

    def chain_values(self, cycle: int, index: int) -> tuple[int, ...]:
        """The golden per-element value tuple of chain ``index`` at
        ``cycle`` — the walk path for chains whose packed buffers
        differ, and the whole path for unpackable chains."""
        return self.snapshots[cycle][index]


def capture_golden_snapshots(
    target: TargetSystemInterface,
    prepare,
    termination: Termination,
    config: ProbeConfig,
) -> GoldenSnapshots:
    """One extra fault-free pass: run the workload, stopping at every
    probe cycle to dump the configured chains.

    ``prepare`` is a callable arming the target for a fresh fault-free
    run (the campaign loop passes its usual experiment preamble).  The
    capture ends when the fault-free run terminates — experiments never
    probe past the golden run's duration, because a diff against nothing
    means nothing."""
    if not target.supports_probes:
        raise TargetError(
            f"target {target.target_name!r} does not support propagation probes"
        )
    prepare()
    target.run_workload()
    snapshots: dict[int, tuple[int, ...]] = {}
    cycle = config.period
    while cycle < termination.max_cycles:
        info = target.run_until_cycle(cycle, termination)
        if info is not None:
            return GoldenSnapshots(
                period=config.period,
                chains=config.chains,
                snapshots=snapshots,
                duration=info.cycle,
            )
        snapshots[cycle] = tuple(
            target.probe_scan_chain(chain) for chain in config.chains
        )
        cycle += config.period
    info = target.wait_for_termination(termination)
    return GoldenSnapshots(
        period=config.period,
        chains=config.chains,
        snapshots=snapshots,
        duration=info.cycle,
    )


def location_class(element: str) -> str:
    """Coarse location class of a scan element: the name prefix before
    the first dot — ``regs``, ``ctrl``, ``icache``, ``dcache``,
    ``dstack``, ``rstack``, ``pins``, ..."""
    return element.split(".", 1)[0]


def element_layout(
    target: TargetSystemInterface, chains: tuple[str, ...]
) -> dict[str, tuple[str, ...]]:
    """Per chain: element names in snapshot order, so a probe snapshot
    diffs against the golden one positionally — the index of a
    mismatching value IS the infected element."""
    return {
        chain: tuple(target.probe_element_names(chain)) for chain in chains
    }


class ExperimentProbe:
    """Per-experiment probe driver: slices the experiment's execution
    segments at the pending probe cycles, diffs each snapshot against
    the golden image, and reduces everything to one summary payload.

    The campaign experiment bodies call :meth:`run_to_breakpoint` /
    :meth:`run_to_termination` instead of the bare target methods when a
    probe session is active; both preserve the exact stop semantics of
    the bare calls (same ``TerminationInfo``, same final cycle), so
    logged rows are unchanged."""

    __slots__ = ("session", "name", "index", "first_injection",
                 "_cycles", "_position", "samples")

    def __init__(
        self,
        session: "ProbeSession",
        name: str,
        index: int,
        first_injection: int,
    ) -> None:
        self.session = session
        self.name = name
        self.index = index
        self.first_injection = first_injection
        # Probe cycles strictly after the first injection: the prefix
        # equals the golden run by construction (and a checkpoint
        # restore may jump straight past it).
        self._cycles = [
            cycle for cycle in session.golden.cycles() if cycle > first_injection
        ]
        self._position = 0
        #: ``[(cycle, [infected element names])]`` per taken probe.
        self.samples: list[tuple[int, list[str]]] = []

    # -- segment drivers ----------------------------------------------
    def _next_cycle(self) -> int | None:
        if self._position < len(self._cycles):
            return self._cycles[self._position]
        return None

    def run_to_breakpoint(
        self, target: TargetSystemInterface, cycle: int
    ) -> TerminationInfo | None:
        """``wait_for_breakpoint`` with probe stops folded in.  Probes
        strictly before the breakpoint sample on the way; the final leg
        is the bare breakpoint wait (identical semantics — both bound
        the run by a stop cycle only)."""
        pending = self._next_cycle()
        while pending is not None and pending < cycle:
            info = target.wait_for_breakpoint(pending)
            if info is not None:
                return info
            self._sample(target, pending)
            pending = self._next_cycle()
        return target.wait_for_breakpoint(cycle)

    def run_to_termination(
        self, target: TargetSystemInterface, termination: Termination
    ) -> TerminationInfo:
        """``wait_for_termination`` with probe stops folded in, via
        :meth:`TargetSystemInterface.run_until_cycle` so the iteration
        limit keeps counting across probe stops."""
        pending = self._next_cycle()
        while pending is not None and pending < termination.max_cycles:
            info = target.run_until_cycle(pending, termination)
            if info is not None:
                return info
            self._sample(target, pending)
            pending = self._next_cycle()
        return target.wait_for_termination(termination)

    # -- sampling ------------------------------------------------------
    def _sample(self, target: TargetSystemInterface, cycle: int) -> None:
        self._position += 1
        session = self.session
        golden = session.golden
        infected: list[str] = []
        for index, chain in enumerate(session.config.chains):
            # Batched diff: compare packed 64-bit-per-element buffers in
            # one C-level operation and only walk the elements of chains
            # that differ.  Almost every probe of almost every chain is
            # clean, so the walk (and the golden tuple itself, in shared
            # mode) is never touched on the common path.
            packed_golden = golden.packed_chain(cycle, index)
            snapshot = None
            if packed_golden is not None:
                snapshot = target.probe_scan_chain_packed(chain)
                if snapshot is not None and snapshot == packed_golden:
                    continue
            golden_values = golden.chain_values(cycle, index)
            if snapshot is None:
                snapshot = target.probe_scan_chain(chain)
                if snapshot == golden_values:  # C-level tuple compare
                    continue
            names = session.layout[chain]
            infected.extend(
                name
                for name, value, golden_value in zip(
                    names, snapshot, golden_values
                )
                if value != golden_value
            )
        self.samples.append((cycle, infected))

    # -- reduction -----------------------------------------------------
    def finish(self, info: TerminationInfo, injected: list[dict]) -> dict:
        """Reduce the samples to the persisted summary payload and hand
        it to the session's pending queue."""
        first_divergence: int | None = None
        peak = 0
        infected_elements: set[str] = set()
        curve: list[list[int]] = []
        for cycle, elements in self.samples:
            count = len(elements)
            curve.append([cycle, count])
            if count:
                if first_divergence is None:
                    first_divergence = cycle
                peak = max(peak, count)
                infected_elements.update(elements)
        detection = info.detection if info.outcome == "error_detected" else None
        payload = {
            "experiment": self.name,
            "index": self.index,
            "probe_period": self.session.config.period,
            "first_injection_cycle": self.first_injection,
            "injected_classes": sorted(_injected_classes(injected)),
            "probes": len(self.samples),
            "first_divergence": first_divergence,
            "dormancy": (
                first_divergence - self.first_injection
                if first_divergence is not None
                else None
            ),
            "infection_curve": curve,
            "peak_infection": peak,
            "final_infection": curve[-1][1] if curve else 0,
            "infected_classes": sorted(
                {location_class(name) for name in infected_elements}
            ),
            "infected_elements": sorted(infected_elements),
            "outcome": info.outcome,
            "detection": detection,
            "detection_cycle": info.cycle if detection is not None else None,
            "end_cycle": info.cycle,
        }
        self.session.collect(payload)
        return payload


def _injected_classes(injected: list[dict]) -> set[str]:
    """Location classes of the faults an experiment planned — scan
    faults classify by element prefix, memory faults as ``memory``."""
    classes: set[str] = set()
    for entry in injected:
        location = entry.get("location", {})
        if location.get("kind") == KIND_SCAN:
            classes.add(location_class(location.get("element", "?")))
        else:
            classes.add("memory")
    return classes


class ProbeSession:
    """Campaign-scoped probe state: the config, the shared golden
    snapshots, the chain element layouts, and the pending summaries not
    yet flushed to the database."""

    __slots__ = ("config", "golden", "layout", "_pending")

    def __init__(
        self,
        config: ProbeConfig,
        golden: GoldenSnapshots,
        layout: dict[str, tuple[str, ...]],
    ) -> None:
        self.config = config
        self.golden = golden
        self.layout = layout
        self._pending: list[dict] = []

    @classmethod
    def create(
        cls,
        target: TargetSystemInterface,
        prepare,
        termination: Termination,
        config: ProbeConfig,
        golden: GoldenSnapshots | None = None,
    ) -> "ProbeSession":
        """Build a session, capturing the golden snapshots unless a
        precomputed set is supplied (parallel workers receive the
        coordinator's capture instead of redoing the pass)."""
        if golden is None:
            golden = capture_golden_snapshots(target, prepare, termination, config)
        return cls(config, golden, element_layout(target, config.chains))

    def observe(self, name: str, index: int, first_injection: int) -> ExperimentProbe:
        return ExperimentProbe(self, name, index, first_injection)

    # -- pending summaries --------------------------------------------
    def collect(self, payload: dict) -> None:
        self._pending.append(payload)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def drain(self) -> list[dict]:
        """Hand over (and forget) the summaries finished since the last
        drain — the campaign loop persists them alongside experiment
        batches; parallel workers ship them with each result."""
        pending, self._pending = self._pending, []
        return pending
