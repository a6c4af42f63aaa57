"""Campaign configuration, set-up phase, and experiment-plan generation.

A *campaign* (paper §3.2) bundles: the target system, the technique, the
workload, the fault-injection locations ("chosen from a hierarchical
list"), the fault model, "the points in time the faults should be
injected", the number of experiments, the termination conditions, the
observation selection, and — for infinite-loop workloads — the
environment-simulator configuration.

The set-up phase stores the configuration in the ``CampaignData`` table;
the fault-injection phase reads it back, makes the reference run, and
expands the configuration into a concrete *experiment plan* — a
deterministic (seeded) list of planned faults.  The paper's set-up phase
also supports modifying stored campaigns and *merging* several campaigns
into a new one; see :func:`merge_campaigns`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .errors import ConfigurationError
from .faultmodels import FaultModel, TransientBitFlip, model_from_dict
from .framework import ObservationSpec, Termination
from .locations import KIND_MEMORY, KIND_SCAN, Location, LocationSelection, LocationSpace
from .rng import PCG64, campaign_rng, experiment_seeds
from .triggers import (
    END,
    BranchTrigger,
    BreakpointTrigger,
    CallTrigger,
    ClockTrigger,
    DataAccessTrigger,
    ReferenceTrace,
    TimeTrigger,
    Trigger,
    cycles_in_window,
    trigger_from_dict,
)

#: Technique identifiers (must match :mod:`repro.core.plugins`
#: registrations).
TECHNIQUE_SCIFI = "scifi"
TECHNIQUE_SWIFI_PRERUNTIME = "swifi_preruntime"
TECHNIQUE_SWIFI_RUNTIME = "swifi_runtime"
#: Pin-level fault injection (paper §2.1: "fault injection techniques
#: such as SCIFI, SWIFI or pin level fault injection") — injects on the
#: boundary scan chain's pin cells only.
TECHNIQUE_PINLEVEL = "pinlevel"

#: How injection points in time are drawn.
TIME_UNIFORM = "uniform"  # uniform over the injection window
TIME_BRANCH = "branch"  # at randomly chosen executed branches
TIME_CALL = "call"  # at randomly chosen subprogram calls
TIME_DATA_ACCESS = "data_access"  # at randomly chosen accesses of the location
TIME_CLOCK = "clock"  # at random real-time-clock ticks
TIME_TASK_SWITCH = "task_switch"  # at randomly chosen task dispatches

_TIME_STRATEGIES = (
    TIME_UNIFORM,
    TIME_BRANCH,
    TIME_CALL,
    TIME_DATA_ACCESS,
    TIME_CLOCK,
    TIME_TASK_SWITCH,
)

LOGGING_NORMAL = "normal"
LOGGING_DETAIL = "detail"

#: How multi-flip experiments place their flips.
MULTIPLICITY_INDEPENDENT = "independent"  # each flip drawn independently
MULTIPLICITY_ADJACENT = "adjacent"  # one MBU: adjacent bits, same instant


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Everything the set-up phase stores in ``CampaignData``."""

    name: str
    target: str
    technique: str
    workload: str
    location_patterns: tuple[str, ...]
    num_experiments: int
    termination: Termination
    observation: ObservationSpec
    fault_model: FaultModel = TransientBitFlip()
    #: Bits flipped per experiment ("single or multiple transient
    #: bit-flip faults").
    flips_per_experiment: int = 1
    #: Spatial model for multi-flip experiments: independent flips, or a
    #: multiple-bit upset (adjacent bits of one element, one instant).
    multiplicity_model: str = MULTIPLICITY_INDEPENDENT
    #: Injection-time strategy and window (cycles; ``None`` = whole run).
    time_strategy: str = TIME_UNIFORM
    injection_window: tuple[int, int] | None = None
    clock_period: int = 100  # used by the TIME_CLOCK strategy
    #: Program address of the dispatcher instruction, for the
    #: TIME_TASK_SWITCH strategy ("when task switches occur", §4).
    task_switch_address: int | None = None
    logging_mode: str = LOGGING_NORMAL
    #: Detail mode: log the system state every Nth *executed
    #: instruction* (not every Nth cycle).  The logged ``cycle`` field
    #: is the target's cycle counter at the sample, so on targets where
    #: an instruction advances the counter by more than one cycle the
    #: stride between logged cycles can exceed ``detail_period``.
    detail_period: int = 1
    seed: int = 1
    use_preinjection_analysis: bool = False
    #: Environment-simulator configuration, e.g.
    #: ``{"name": "dc_motor", "params": {...}}``; ``None`` = none.
    environment: dict | None = None

    def __post_init__(self) -> None:
        if self.num_experiments <= 0:
            raise ConfigurationError("a campaign needs at least one experiment")
        if self.flips_per_experiment <= 0:
            raise ConfigurationError("flips_per_experiment must be positive")
        if self.time_strategy not in _TIME_STRATEGIES:
            raise ConfigurationError(f"unknown time strategy {self.time_strategy!r}")
        if self.logging_mode not in (LOGGING_NORMAL, LOGGING_DETAIL):
            raise ConfigurationError(f"unknown logging mode {self.logging_mode!r}")
        if self.detail_period <= 0:
            raise ConfigurationError("detail_period must be positive")
        if self.time_strategy == TIME_TASK_SWITCH and self.task_switch_address is None:
            raise ConfigurationError(
                "the task_switch strategy needs task_switch_address "
                "(the dispatcher instruction's program address)"
            )
        if self.multiplicity_model not in (
            MULTIPLICITY_INDEPENDENT,
            MULTIPLICITY_ADJACENT,
        ):
            raise ConfigurationError(
                f"unknown multiplicity model {self.multiplicity_model!r}"
            )
        if not self.location_patterns:
            raise ConfigurationError("a campaign needs at least one location pattern")
        if not isinstance(self.fault_model, FaultModel):
            raise ConfigurationError(
                f"fault_model must be a FaultModel, not {type(self.fault_model).__name__} "
                f"{self.fault_model!r}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "technique": self.technique,
            "workload": self.workload,
            "location_patterns": list(self.location_patterns),
            "num_experiments": self.num_experiments,
            "termination": self.termination.to_dict(),
            "observation": self.observation.to_dict(),
            "fault_model": self.fault_model.to_dict(),
            "flips_per_experiment": self.flips_per_experiment,
            "multiplicity_model": self.multiplicity_model,
            "time_strategy": self.time_strategy,
            "injection_window": list(self.injection_window) if self.injection_window else None,
            "clock_period": self.clock_period,
            "task_switch_address": self.task_switch_address,
            "logging_mode": self.logging_mode,
            "detail_period": self.detail_period,
            "seed": self.seed,
            "use_preinjection_analysis": self.use_preinjection_analysis,
            "environment": self.environment,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        window = data.get("injection_window")
        return cls(
            name=data["name"],
            target=data["target"],
            technique=data["technique"],
            workload=data["workload"],
            location_patterns=tuple(data["location_patterns"]),
            num_experiments=int(data["num_experiments"]),
            termination=Termination.from_dict(data["termination"]),
            observation=ObservationSpec.from_dict(data["observation"]),
            fault_model=model_from_dict(data["fault_model"]),
            flips_per_experiment=int(data.get("flips_per_experiment", 1)),
            multiplicity_model=data.get("multiplicity_model", MULTIPLICITY_INDEPENDENT),
            time_strategy=data.get("time_strategy", TIME_UNIFORM),
            injection_window=tuple(window) if window else None,
            clock_period=int(data.get("clock_period", 100)),
            task_switch_address=(
                int(data["task_switch_address"])
                if data.get("task_switch_address") is not None
                else None
            ),
            logging_mode=data.get("logging_mode", LOGGING_NORMAL),
            detail_period=int(data.get("detail_period", 1)),
            seed=int(data.get("seed", 1)),
            use_preinjection_analysis=bool(data.get("use_preinjection_analysis", False)),
            environment=data.get("environment"),
        )


@dataclass(frozen=True, slots=True)
class PlannedFault:
    """One fault of one experiment: where, when, and what model."""

    location: Location
    trigger: Trigger
    model: FaultModel

    def to_dict(self) -> dict:
        return {
            "location": self.location.to_dict(),
            "trigger": self.trigger.to_dict(),
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlannedFault":
        return cls(
            location=Location.from_dict(data["location"]),
            trigger=trigger_from_dict(data["trigger"]),
            model=model_from_dict(data["model"]),
        )


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One planned experiment of a campaign."""

    name: str
    index: int
    faults: tuple[PlannedFault, ...]
    seed: int


def experiment_name(campaign: str, index: int) -> str:
    """Unique ``experimentName`` key of experiment ``index``."""
    return f"{campaign}/exp{index:05d}"


#: Rejection-sampling draws of the pre-injection filter before it falls
#: back to sampling the live windows directly.
MAX_ATTEMPTS_PER_SAMPLE = 200

_CYCLE = itemgetter(0)


class PlanGenerator:
    """Expands a campaign configuration into concrete experiments.

    Needs the reference trace (for trigger resolution, the injection
    window, and — when enabled — the pre-injection liveness analysis)
    and the target's location space.
    """

    def __init__(
        self,
        config: CampaignConfig,
        space: LocationSpace,
        trace: ReferenceTrace,
    ) -> None:
        self.config = config
        self.space = space
        self.trace = trace
        self.selection: LocationSelection = space.select(list(config.location_patterns))
        self._validate_selection_for_technique()
        window = config.injection_window or (0, trace.duration)
        self.window = cycles_in_window(trace, *window)

    def _validate_selection_for_technique(self) -> None:
        technique = self.config.technique
        has_scan = bool(self.selection.elements)
        has_memory = bool(self.selection.regions)
        if technique == TECHNIQUE_SWIFI_PRERUNTIME and has_scan:
            raise ConfigurationError(
                "pre-runtime SWIFI injects into the program and data areas "
                "of memory; scan-chain locations need the SCIFI technique"
            )
        if technique == TECHNIQUE_SCIFI and has_memory:
            raise ConfigurationError(
                "SCIFI injects via scan chains; memory locations need a "
                "SWIFI technique"
            )
        if technique == TECHNIQUE_PINLEVEL:
            if has_memory:
                raise ConfigurationError(
                    "pin-level injection reaches pins only, not memory"
                )
            off_chip = [
                e.key for e in self.selection.elements if e.chain != "boundary"
            ]
            if off_chip:
                raise ConfigurationError(
                    "pin-level injection is restricted to the boundary scan "
                    f"chain; not available: {', '.join(off_chip)}"
                )

    # ------------------------------------------------------------------
    def generate(self) -> list[ExperimentSpec]:
        rng = campaign_rng(self.config.seed)
        seeds = experiment_seeds(self.config.seed, self.config.num_experiments)
        experiments = []
        for index, seed in enumerate(seeds):
            if (
                self.config.multiplicity_model == MULTIPLICITY_ADJACENT
                and self.config.flips_per_experiment > 1
            ):
                faults = self._plan_adjacent_burst(rng)
            else:
                faults = tuple(
                    self._plan_fault(rng)
                    for _ in range(self.config.flips_per_experiment)
                )
            experiments.append(
                ExperimentSpec(
                    name=experiment_name(self.config.name, index),
                    index=index,
                    faults=faults,
                    seed=seed,
                )
            )
        return experiments

    def _plan_adjacent_burst(self, rng: PCG64) -> tuple[PlannedFault, ...]:
        """One multiple-bit upset: ``flips_per_experiment`` adjacent
        bits of a single element, all at the same trigger instant
        (wrapping within the element's width for narrow fields)."""
        anchor = self._plan_fault(rng)
        location = anchor.location
        if location.kind == KIND_SCAN:
            width = self.space.element(location.chain, location.element).width
        else:
            region = next(
                r for r in self.selection.regions
                if r.base <= location.address < r.limit
            )
            width = region.word_bits
        faults = []
        for offset in range(self.config.flips_per_experiment):
            bit = (location.bit + offset) % width
            faults.append(
                PlannedFault(
                    location=replace(location, bit=bit),
                    trigger=anchor.trigger,
                    model=anchor.model,
                )
            )
        return tuple(faults)

    def _plan_fault(self, rng: PCG64) -> PlannedFault:
        config = self.config
        if config.technique == TECHNIQUE_SWIFI_PRERUNTIME:
            # Pre-runtime injection happens before the run: the "trigger"
            # is fixed at cycle 0 by definition.
            location = self.selection.sample(rng)
            return PlannedFault(location, TimeTrigger(0), config.fault_model)
        location, trigger = self._sample_location_and_trigger(rng)
        return PlannedFault(location, trigger, config.fault_model)

    def _sample_location_and_trigger(
        self, rng: PCG64
    ) -> tuple[Location, Trigger]:
        config = self.config
        lo, hi = self.window
        strategy = config.time_strategy
        if strategy == TIME_UNIFORM:
            if config.use_preinjection_analysis:
                location, cycle = self._sample_live(rng)
                return location, TimeTrigger(cycle)
            return self.selection.sample(rng), TimeTrigger(int(rng.integers(lo, hi)))
        if strategy == TIME_CLOCK:
            period = config.clock_period
            first_tick = max(1, -(-lo // period))  # ceil(lo / period)
            last_tick = hi // period
            if last_tick < first_tick:
                raise ConfigurationError(
                    f"no clock tick of period {period} inside window [{lo}, {hi})"
                )
            tick = int(rng.integers(first_tick, last_tick + 1))
            return self.selection.sample(rng), ClockTrigger(period=period, tick=tick)
        if strategy == TIME_BRANCH:
            cycles = [c for c in self.trace.branch_cycles() if lo <= c < hi]
            if not cycles:
                raise ConfigurationError("no branch executions inside the injection window")
            occurrence = self.trace.branch_cycles().index(
                cycles[int(rng.integers(len(cycles)))]
            ) + 1
            return self.selection.sample(rng), BranchTrigger(occurrence=occurrence)
        if strategy == TIME_CALL:
            cycles = [c for c in self.trace.call_cycles() if lo <= c < hi]
            if not cycles:
                raise ConfigurationError("no subprogram calls inside the injection window")
            occurrence = self.trace.call_cycles().index(
                cycles[int(rng.integers(len(cycles)))]
            ) + 1
            return self.selection.sample(rng), CallTrigger(occurrence=occurrence)
        if strategy == TIME_TASK_SWITCH:
            address = config.task_switch_address
            all_cycles = self.trace.pc_cycles(address)
            cycles = [c for c in all_cycles if lo <= c < hi]
            if not cycles:
                raise ConfigurationError(
                    f"no task switches (pc=0x{address:04X}) inside the "
                    f"injection window"
                )
            occurrence = all_cycles.index(cycles[int(rng.integers(len(cycles)))]) + 1
            return self.selection.sample(rng), BreakpointTrigger(
                address=address, occurrence=occurrence
            )
        if strategy == TIME_DATA_ACCESS:
            return self._sample_data_access_trigger(rng, lo, hi)
        raise ConfigurationError(f"unknown time strategy {strategy!r}")  # pragma: no cover

    def _sample_data_access_trigger(
        self, rng: PCG64, lo: int, hi: int
    ) -> tuple[Location, Trigger]:
        """Pick an accessed address and trigger on one of its accesses.

        The injected location is the accessed memory word itself when
        the selection covers memory, otherwise a scan location with the
        access as its (independent) trigger.
        """
        accesses = self.trace.mem_accesses
        first = bisect_left(accesses, lo, key=_CYCLE)
        count = bisect_left(accesses, hi, lo=first, key=_CYCLE) - first
        if not count:
            raise ConfigurationError("no data accesses inside the injection window")
        cycle, kind, addr = accesses[first + int(rng.integers(count))]
        if self.selection.regions:
            region = self._region_containing(addr)
            if region is None:
                # The sampled access falls outside every selected region
                # (e.g. a program-area fetch when only the data area is
                # selected): re-draw among the accesses the selection
                # covers, falling back to a scan location when none is.
                in_selection = [
                    access
                    for access in accesses[first : first + count]
                    if self._region_containing(access[2]) is not None
                ]
                if not in_selection:
                    if self.selection.elements:
                        scan_only = LocationSelection(
                            elements=self.selection.elements, regions=[]
                        )
                        trigger = self._access_trigger(cycle, kind, addr)
                        return scan_only.sample(rng), trigger
                    raise ConfigurationError(
                        "no data access inside the injection window touches "
                        "a selected memory region"
                    )
                cycle, kind, addr = in_selection[int(rng.integers(len(in_selection)))]
                region = self._region_containing(addr)
            trigger = self._access_trigger(cycle, kind, addr)
            location = Location(
                kind=KIND_MEMORY, address=addr, bit=int(rng.integers(region.word_bits))
            )
            return location, trigger
        return self.selection.sample(rng), self._access_trigger(cycle, kind, addr)

    def _region_containing(self, address: int):
        """The selected memory region containing ``address``, if any."""
        for region in self.selection.regions:
            if region.base <= address < region.limit:
                return region
        return None

    def _access_trigger(self, cycle: int, kind: str, addr: int) -> DataAccessTrigger:
        events = self.trace.events(Location(kind=KIND_MEMORY, address=addr, bit=0))
        earlier = events[: bisect_right(events, cycle, key=_CYCLE)]
        occurrence = sum(1 for _, access in earlier if access == kind)
        return DataAccessTrigger(address=addr, access=kind, occurrence=occurrence)

    # -- pre-injection liveness filter (paper §4) -----------------------
    def _sample_live(self, rng: PCG64) -> tuple[Location, int]:
        """A (location, cycle) pair that passes the liveness test, by
        rejection sampling.  When a selection is almost entirely dead in
        the window, every element of the selection is enumerated
        deterministically and a cycle is drawn within the live windows
        of those that have any (weighted by window length).  Always-live
        elements join that draw with the whole window as their live
        span, so memory regions keep their probability mass."""
        lo, hi = self.window
        for _ in range(MAX_ATTEMPTS_PER_SAMPLE):
            location = self.selection.sample(rng)
            cycle = int(rng.integers(lo, hi))
            if is_live(self.trace, location, cycle):
                return location, cycle
        candidates: list[tuple[Location, list[tuple[int, int]]]] = []
        for info in self.selection.elements:
            location = Location(
                kind=KIND_SCAN,
                chain=info.chain,
                element=info.name,
                bit=int(rng.integers(info.width)),
            )
            windows = live_windows(self.trace, location, lo, hi)
            candidates.append((location, [(lo, hi)] if windows is None else windows))
        # Only addresses the reference run accessed can be live.
        accessed = sorted({address for _, _, address in self.trace.mem_accesses})
        for region in self.selection.regions:
            for address in accessed:
                if region.base <= address < region.limit:
                    location = Location(
                        kind=KIND_MEMORY,
                        address=address,
                        bit=int(rng.integers(region.word_bits)),
                    )
                    candidates.append(
                        (location, live_windows(self.trace, location, lo, hi))
                    )
        total = sum(end - start for _, windows in candidates for start, end in windows)
        if not total:
            raise ConfigurationError(
                "pre-injection analysis found no live (location, time) pair; "
                "widen the injection window or the location selection"
            )
        offset = int(rng.integers(total))
        for location, windows in candidates:
            for start, end in windows:
                if offset < end - start:
                    return location, start + offset
                offset -= end - start
        raise AssertionError("weighted window sampling fell through")  # pragma: no cover


def is_live(trace: ReferenceTrace, location: Location, cycle: int) -> bool:
    """Would a fault injected at ``cycle`` in ``location`` be consumed —
    is the next access a read?  Locations the trace cannot reason about
    report live: the filter only skips provably wasted injections."""
    access = trace.next_access(location, cycle)
    return access is None or access[1] == "read"


def live_windows(
    trace: ReferenceTrace, location: Location, lo: int, hi: int
) -> list[tuple[int, int]] | None:
    """Ascending half-open windows covering exactly the cycles of
    ``[lo, hi)`` at which ``location`` is live (:func:`is_live`);
    ``None`` when the trace cannot reason about the location."""
    windows: list[tuple[int, int]] = []
    start = lo
    while start < hi:
        access = trace.next_access(location, start)
        if access is None:
            return None
        cycle, kind = access
        if kind == END:
            break
        if kind == "read":
            windows.append((start, min(cycle + 1, hi)))
        start = cycle + 1
    return windows


def merge_campaigns(
    configs: list[CampaignConfig], new_name: str, seed: int | None = None
) -> CampaignConfig:
    """Merge campaign data from several campaigns into a new one
    (paper §3.2).

    The campaigns must agree on target, technique and workload; the
    merge unions their location patterns and sums their experiment
    counts.  Remaining parameters come from the first campaign.
    """
    if not configs:
        raise ConfigurationError("merge_campaigns needs at least one campaign")
    first = configs[0]
    for other in configs[1:]:
        for attribute in ("target", "technique", "workload"):
            if getattr(other, attribute) != getattr(first, attribute):
                raise ConfigurationError(
                    f"cannot merge campaigns differing in {attribute}: "
                    f"{getattr(first, attribute)!r} vs {getattr(other, attribute)!r}"
                )
    patterns: list[str] = []
    for config in configs:
        for pattern in config.location_patterns:
            if pattern not in patterns:
                patterns.append(pattern)
    return replace(
        first,
        name=new_name,
        location_patterns=tuple(patterns),
        num_experiments=sum(c.num_experiments for c in configs),
        seed=first.seed if seed is None else seed,
    )
