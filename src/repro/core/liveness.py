"""Liveness-based experiment pruning: skip runs whose rows are known.

The reference (golden) pass already records every architectural register
and memory access of the fault-free run.  From that trace this module
pre-classifies planned experiments whose result row is **known by
construction**, in two ways:

* the fault lands in a *dead window* — the stretch between the last
  access of an element and the next **whole-element write** — so the
  corrupted value is overwritten before anything reads it, and the row
  equals the reference's (the analysis classifies it *overwritten*);
* a register flip lands in the *latent tail* — after the register's
  last access — so nothing reads it and it survives unchanged into the
  final scan capture: the row is the reference's with that one bit
  flipped in the captured register (the analysis classifies it
  *latent*; *overwritten* when the register is not observed).

Such experiments are not simulated; their result rows are *synthesised*
from the reference run and persisted with a ``pruned`` provenance flag,
so coverage/latency analysis, ``goofi gate`` and sample-size accounting
see exactly the rows a full simulation would have produced (ZOFI's
pre-classification idea; gqfi's "skip faults in memory the golden run
never uses").

Soundness is deliberately narrow.  A fault is prunable only when every
one of these holds:

* **Transient bit-flips only.**  Permanent/intermittent models keep
  acting after the next write; they are never pruned.
* **Registers** (``internal:regs.Rn``, SCIFI or runtime-SWIFI), injected
  before the end of the run: the first traced access at or after the
  injection cycle is a *write*, or there is no access at or after it.
  Whole-register writes close any bit; the register-parity EDM checks
  parity only on reads and re-syncs it on every write, so a flip that is
  overwritten or never read again can neither be consumed nor detected.
  Reads are traced before writes at the same cycle, so a
  read-modify-write at the boundary conservatively blocks pruning.  A
  latent-tail flip is XOR-ed into the register's captured value when
  the observation captures it; two flips of the same bit cancel.
* **Memory** (pre-runtime SWIFI only): the address lies in a *data*
  region (the MPU fetches code from the program area only, so a data
  word is never fetched) and its first traced access is a write.
  Runtime-SWIFI memory faults are never pruned: a mid-run host write
  snoop-invalidates the caches, perturbing micro-state the trace cannot
  see.  Campaigns with an environment simulator attached are never
  memory-pruned either — the per-iteration exchange does host memory
  I/O the trace does not record.
* **Whole-campaign guards**: normal logging mode only (detail mode logs
  per-instruction states that cannot be synthesised), and no declared
  environment-boundary faults (those make even an unaffected experiment
  differ from the clean reference).

The same plan carries the **fault memo**: experiments whose faults are
the same as executed are simulated once.  An experiment's key is its
injection schedule — ``(cycle, element, bit, model)`` per fault, in
injection order, a pre-runtime fault at cycle 0 (:func:`fault_key`).  A
target run is a function of that key alone, so the first experiment of
each key in plan order is simulated (its *representative*) and every
other one (a *follower*) gets the representative's state vector and
verdict with its own ``experimentData`` (:func:`replay_row`), logged
with ``pruned`` = :data:`~repro.db.models.REPLAYED`.  The memo is on by
default and off (:func:`memo_off_reason`) on the reference engine
(``fast=False``), under probes, in detail logging, with declared
environment-boundary faults, for technique bodies other than the
built-in ones, and per experiment for intermittent faults, which draw
from the experiment seed.

The safety net: ``--prune=RATE`` re-simulates a seeded random sample of
the pruned experiments, and of the followers, and hard-fails the
campaign (:class:`PruneDivergence`) if any simulated row differs from
its synthesised or replayed prediction.  ``--prune=1.0`` re-simulates
everything — the bit-identical equivalence bar used by the test suite
and benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from operator import itemgetter

from ..analysis.classify import ReferenceState
from ..db import ExperimentRecord, utc_now
from ..db.models import REPLAYED
from .campaign import (
    LOGGING_NORMAL,
    TECHNIQUE_SWIFI_PRERUNTIME,
    CampaignConfig,
    ExperimentSpec,
    PlannedFault,
)
from .errors import ConfigurationError, GoofiError
from .faultmodels import IntermittentBitFlip, is_transient
from .locations import KIND_MEMORY, Location, LocationSpace
from .plugins import technique_method
from .triggers import END, ReferenceTrace

#: Fraction of pruned experiments re-simulated by default when
#: ``--prune`` is given without a rate.
DEFAULT_SPOT_CHECK_RATE = 0.1


#: The experiment bodies whose row is a function of the fault key.
_MEMO_BODIES = frozenset(
    {
        "_run_scifi_experiment",
        "_run_swifi_preruntime_experiment",
        "_run_swifi_runtime_experiment",
    }
)


class PruneDivergence(GoofiError):
    """A spot-checked pruned experiment or memo follower did not match
    its synthesised or replayed prediction — the classifier or the memo
    is wrong for this campaign and the run must not be trusted."""


@dataclass(frozen=True, slots=True)
class PruneConfig:
    """How a campaign is pruned: the spot-check rate (fraction of pruned
    experiments re-simulated and compared against their synthesised
    rows)."""

    spot_check_rate: float = DEFAULT_SPOT_CHECK_RATE

    def __post_init__(self) -> None:
        if not 0.0 <= self.spot_check_rate <= 1.0:
            raise ConfigurationError(
                f"prune spot-check rate must be in [0, 1], "
                f"got {self.spot_check_rate}"
            )

    def to_dict(self) -> dict:
        return {"spot_check_rate": self.spot_check_rate}

    @classmethod
    def from_dict(cls, data: dict) -> "PruneConfig":
        return cls(
            spot_check_rate=float(
                data.get("spot_check_rate", DEFAULT_SPOT_CHECK_RATE)
            )
        )


def resolve_prune(value) -> PruneConfig | None:
    """Normalise the ``run_campaign(prune=...)`` knob.

    ``None``/``False`` → off; ``True`` → default config; a float/int →
    that spot-check rate; a dict → :meth:`PruneConfig.from_dict`; a
    ready :class:`PruneConfig` passes through."""
    if value is None or value is False:
        return None
    if value is True:
        return PruneConfig()
    if isinstance(value, PruneConfig):
        return value
    if isinstance(value, (int, float)):
        return PruneConfig(spot_check_rate=float(value))
    if isinstance(value, dict):
        return PruneConfig.from_dict(value)
    raise ConfigurationError(
        f"prune must be a bool, spot-check rate, dict, or PruneConfig; "
        f"got {value!r}"
    )


# ----------------------------------------------------------------------
# Injection schedules
# ----------------------------------------------------------------------
_CYCLE = itemgetter(0)


def injection_schedule(
    spec: ExperimentSpec, trace: ReferenceTrace
) -> list[tuple[int, PlannedFault]]:
    """Every fault's trigger resolved against the reference trace, in
    injection order (plan order among equal cycles)."""
    schedule = [(fault.trigger.resolve(trace), fault) for fault in spec.faults]
    schedule.sort(key=_CYCLE)
    return schedule


def fault_entry(fault: PlannedFault, cycle: int, applied: bool) -> dict:
    """One fault as ``experimentData`` records it: the planned fault, its
    injection cycle, and whether it was applied."""
    entry = fault.to_dict()
    entry["injection_cycle"] = cycle
    entry["applied"] = applied
    return entry


def executed_schedule(
    config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
) -> list[tuple[int, PlannedFault]]:
    """The injections as the experiment body makes them: pre-runtime
    SWIFI corrupts the image before the run, at cycle 0 in plan order."""
    if config.technique == TECHNIQUE_SWIFI_PRERUNTIME:
        return [(0, fault) for fault in spec.faults]
    return injection_schedule(spec, trace)


# ----------------------------------------------------------------------
# Experiment classification
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ExperimentClassifier:
    """Classifies planned experiments as prunable (row known by
    construction) against one reference trace."""

    config: CampaignConfig
    trace: ReferenceTrace
    space: LocationSpace
    _data_regions: list[tuple[int, int]] = field(default_factory=list)
    _enabled: bool = True
    _disabled_reason: str = ""

    def __post_init__(self) -> None:
        self._data_regions = [
            (region.base, region.limit)
            for region in self.space.memory_regions
            if region.name != "program"
        ]
        config = self.config
        if config.logging_mode != LOGGING_NORMAL:
            self._enabled = False
            self._disabled_reason = (
                "detail logging mode records per-instruction states that "
                "cannot be synthesised"
            )
        elif config.environment is not None and config.environment.get("faults"):
            self._enabled = False
            self._disabled_reason = (
                "declared environment-boundary faults make every experiment "
                "differ from the clean reference"
            )

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def disabled_reason(self) -> str:
        return self._disabled_reason

    def prunable(self, spec: ExperimentSpec) -> bool:
        """True when *every* fault of the experiment is provably either
        overwritten unread or never read again: the experiment's row is
        the reference's, with any latent-tail flips in its final scan
        capture (:func:`synthesize_record`)."""
        if not self._enabled:
            return False
        return all(
            self._fault_prunable(fault, fault.trigger.resolve(self.trace))
            for fault in spec.faults
        )

    # ------------------------------------------------------------------
    def _fault_prunable(self, fault: PlannedFault, cycle: int) -> bool:
        if not is_transient(fault.model):
            return False
        location = fault.location
        if location.kind == KIND_MEMORY:
            return self._memory_fault_prunable(location)
        return self._scan_fault_prunable(location, cycle)

    def _scan_fault_prunable(self, location: Location, cycle: int) -> bool:
        """Dead-window or latent-tail test for a transient register
        flip: the next access is a write, or there is none.  Control
        state, caches and pins are always-live."""
        if not 0 <= cycle < self.trace.duration:
            # At or past the end of the run the ordering against HALT is
            # ambiguous; conservatively simulate.
            return False
        access = self.trace.next_access(location, cycle)
        return access is not None and access[1] != "read"

    def _memory_fault_prunable(self, location: Location) -> bool:
        """Written-before-read test for a pre-runtime image corruption.
        Only sound when the run's memory traffic is fully traced (no
        environment) and the word can never be fetched (data region)."""
        if self.config.technique != TECHNIQUE_SWIFI_PRERUNTIME:
            return False
        if self.config.environment is not None:
            return False
        address = location.address
        if not any(base <= address < limit for base, limit in self._data_regions):
            return False
        return self.trace.next_access(location, 0)[1] == "write"


# ----------------------------------------------------------------------
# Row synthesis and the spot-check safety net
# ----------------------------------------------------------------------
def synthesize_record(
    config: CampaignConfig,
    spec: ExperimentSpec,
    trace: ReferenceTrace,
    reference: ExperimentRecord,
) -> ExperimentRecord:
    """The row a full simulation of a prunable experiment would log: the
    reference run's termination and final state, with the fault list in
    injection order exactly as the experiment bodies record it.

    A register flip with no access at or after its injection cycle
    survives into the final capture: its bit is XOR-ed into the
    register's captured value (key ``chain:element``, as the target's
    capture names it) when the observation captures that register.  The
    final state is otherwise the reference's own object — shared, not
    copied."""
    applied = []
    flips: dict[str, int] = {}
    for cycle, fault in injection_schedule(spec, trace):
        applied.append(fault_entry(fault, cycle, True))
        location = fault.location
        access = trace.next_access(location, cycle)
        if access is not None and access[1] == END:
            key = location.element_key
            flips[key] = flips.get(key, 0) ^ (1 << location.bit)
    final = reference.state_vector["final"]
    scan = final.get("scan", {})
    flipped = {
        key: scan[key] ^ mask for key, mask in flips.items() if mask and key in scan
    }
    if flipped:
        final = {**final, "scan": {**scan, **flipped}}
    return ExperimentRecord(
        experiment_name=spec.name,
        campaign_name=config.name,
        experiment_data={
            "technique": config.technique,
            "index": spec.index,
            "seed": spec.seed,
            "faults": applied,
        },
        state_vector={
            "termination": reference.state_vector["termination"],
            "final": final,
        },
        pruned=True,
    )


class _StateEncoder:
    """Encodes synthesised state vectors (``json.dumps(...,
    sort_keys=True)``, as :meth:`ExperimentRecord.to_row` does) from the
    reference's encoding: a row that shares the reference's final state
    reuses its whole encoding, and a latent-tail row re-encodes only its
    scan capture, spliced between the reference's other encoded
    parts."""

    def __init__(self, reference: ExperimentRecord) -> None:
        termination = reference.state_vector["termination"]
        self.final = final = reference.state_vector["final"]
        self.shared = json.dumps(
            {"termination": termination, "final": final}, sort_keys=True
        )
        # The same encoding split around final["scan"] (head + scan +
        # tail), with json.dumps' default separators and sorted keys.
        items = [
            f"{json.dumps(key)}: {json.dumps(final[key], sort_keys=True)}"
            for key in sorted(final)
            if key != "scan"
        ]
        at = sum(1 for key in final if key < "scan")
        self.head = (
            '{"final": {' + "".join(f"{item}, " for item in items[:at]) + '"scan": '
        )
        self.tail = (
            "".join(f", {item}" for item in items[at:])
            + '}, "termination": '
            + json.dumps(termination, sort_keys=True)
            + "}"
        )

    def encode(self, state_vector: dict) -> str:
        final = state_vector["final"]
        if final is self.final:
            return self.shared
        return self.head + json.dumps(final["scan"], sort_keys=True) + self.tail


# ----------------------------------------------------------------------
# The fault memo
# ----------------------------------------------------------------------
def memo_off_reason(config: CampaignConfig, *, fast: bool, probes: bool) -> str:
    """Why no experiment of this run may be replayed, or ``""`` when the
    memo is on."""
    if not fast:
        return "the reference engine (fast=False) simulates every experiment"
    if probes:
        return "probes observe each experiment's own run"
    if config.logging_mode != LOGGING_NORMAL:
        return "detail logging is left to simulation"
    if config.environment is not None and config.environment.get("faults"):
        return "declared environment-boundary faults are left to simulation"
    if technique_method(config.technique) not in _MEMO_BODIES:
        return f"technique {config.technique!r} has its own experiment body"
    return ""


def fault_key(
    config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
) -> tuple | None:
    """The memo key of ``spec``: ``(cycle, element, bit, model)`` per
    fault of its executed schedule.  ``None`` — never replayed — for an
    intermittent fault, which draws from the experiment seed, and for a
    trigger that does not resolve (the experiment body reports that)."""
    if any(isinstance(fault.model, IntermittentBitFlip) for fault in spec.faults):
        return None
    try:
        schedule = executed_schedule(config, spec, trace)
    except ConfigurationError:
        return None
    return tuple(
        (cycle, fault.location.element_key, fault.location.bit, fault.model)
        for cycle, fault in schedule
    )


def replay_row(
    config: CampaignConfig,
    spec: ExperimentSpec,
    schedule: list[tuple[int, PlannedFault]],
    row: tuple,
    applied: list[bool],
) -> tuple:
    """Follower ``spec``'s stored row from its representative's ``row``:
    the representative's state vector text and verdict, with the
    follower's own ``experimentData`` (its faults as ``schedule``
    executes them, each ``applied`` as the representative's was), fault
    columns and ``createdAt``, flagged :data:`~repro.db.models.REPLAYED`."""
    faults = [
        fault_entry(fault, cycle, was_applied)
        for (cycle, fault), was_applied in zip(schedule, applied)
    ]
    data = json.dumps(
        {
            "technique": config.technique,
            "index": spec.index,
            "seed": spec.seed,
            "faults": faults,
        },
        sort_keys=True,
    )
    first = (
        (schedule[0][1].location.element_key, schedule[0][0])
        if schedule
        else (None, None)
    )
    verdict = ExperimentRecord.ROW_VERDICT
    return (
        spec.name, None, config.name, data, row[ExperimentRecord.ROW_STATE],
        utc_now(), REPLAYED, *row[verdict : verdict + 5], *first,
    )


def _diverging_parts(expected: tuple, simulated: tuple) -> list[str]:
    """The compared parts in which two stored rows differ: the JSON
    payloads and the analysis columns, never the provenance columns
    (timestamps, the ``pruned`` flag)."""
    verdict = ExperimentRecord.ROW_VERDICT
    return [
        part
        for part, differs in (
            ("experiment data",
             expected[ExperimentRecord.ROW_DATA] != simulated[ExperimentRecord.ROW_DATA]),
            ("state vector",
             expected[ExperimentRecord.ROW_STATE] != simulated[ExperimentRecord.ROW_STATE]),
            ("analysis columns", expected[verdict:] != simulated[verdict:]),
        )
        if differs
    ]


@dataclass(slots=True)
class PrunePlan:
    """The partition of one campaign plan: experiments to simulate,
    experiments whose rows are synthesised (pruned), experiments whose
    rows are replayed from a representative's simulation (memo
    followers), and the spot-check samples bridging them."""

    #: ``None`` when the run has the memo without ``--prune``.
    config: PruneConfig | None
    planned: int
    #: Specs whose rows are synthesised.
    pruned_specs: list[ExperimentSpec]
    #: Specs whose rows the executors log: every unprunable spec plus
    #: the spot-check sample, in original plan order.  The followers
    #: among them travel with their representative.
    to_run: list[ExperimentSpec]
    #: Names of pruned specs that are re-simulated for verification.
    spot_checks: set[str]
    #: Synthesised rows of every pruned spec, complete and classified
    #: (:meth:`ReferenceState.row
    #: <repro.analysis.classify.ReferenceState.row>`), by experiment name.
    rows: dict[str, tuple]
    #: Pruned specs whose synthesised final state differs from the
    #: reference's (a latent-tail flip in a captured register).
    latent: int = 0
    #: Why nothing was pruned, when the classifier was disabled.
    disabled_reason: str = ""
    divergences: int = 0
    #: Each representative's followers in plan order, by representative
    #: name, as ``(spec, check)``: a checked follower is simulated too
    #: and its row verified against the replay (:meth:`confirm`).
    followers: dict[str, list[tuple[ExperimentSpec, bool]]] = field(
        default_factory=dict
    )
    #: The representative of each follower, by follower name.
    representative_of: dict[str, str] = field(default_factory=dict)
    #: Checked followers, by name, with their executed schedules.
    replay_checks: dict[str, tuple] = field(default_factory=dict)
    #: The rows of representatives with checked followers, by name,
    #: held (from their arrival) until those followers arrive.
    _held: dict[str, tuple | None] = field(default_factory=dict)
    _campaign: CampaignConfig | None = None

    @property
    def skipped(self) -> int:
        """Simulations actually avoided."""
        return len(self.pruned_specs) - len(self.spot_checks)

    @property
    def replayed(self) -> int:
        """Followers whose rows are replayed without a simulation."""
        return len(self.representative_of) - len(self.replay_checks)

    def upfront_records(self) -> list[tuple]:
        """Encoded synthesised rows safe to persist before the loop runs
        (:meth:`GoofiDatabase.save_experiment_rows`): the pruned specs
        *not* in the spot-check sample (a spot-checked row is only
        persisted once its simulation confirmed it)."""
        return [
            self.rows[spec.name]
            for spec in self.pruned_specs
            if spec.name not in self.spot_checks
        ]

    @classmethod
    def unpruned(cls, specs: list[ExperimentSpec]) -> "PrunePlan":
        """The plan of a run without ``--prune``: every spec to run."""
        return cls(
            config=None, planned=len(specs), pruned_specs=[], to_run=list(specs),
            spot_checks=set(), rows={},
        )

    def memoize(self, config: CampaignConfig, trace: ReferenceTrace) -> None:
        """Group the specs to run by :func:`fault_key`: the first of each
        key in plan order stays to be simulated, the rest become its
        followers.  Under ``--prune=RATE`` a seeded sample of the
        followers, at the spot-check rate, is simulated as well and
        verified against the replay.  Pruned spot-checks stay apart:
        they verify the classifier."""
        self._campaign = config
        check_rate = self.config.spot_check_rate if self.config is not None else 0.0
        rng = random.Random(f"{config.seed}/memo")
        first: dict[tuple, str] = {}
        for spec in self.to_run:
            if spec.name in self.spot_checks:
                continue
            key = fault_key(config, spec, trace)
            if key is None:
                continue
            representative = first.setdefault(key, spec.name)
            if representative == spec.name:
                continue
            check = check_rate > 0 and rng.random() < check_rate
            self.followers.setdefault(representative, []).append((spec, check))
            self.representative_of[spec.name] = representative
            if check:
                self.replay_checks[spec.name] = (
                    spec, executed_schedule(config, spec, trace)
                )
                self._held[representative] = None

    def confirm(self, name: str, row: tuple) -> tuple:
        """The row to log for the executed experiment ``name``, arriving
        as ``row``: a spot-checked pruned experiment's synthesised row,
        a checked follower's replayed row — each once the simulation
        confirmed it — or ``row`` itself.  A representative's row is
        held for its checked followers, which its executor runs after
        it.  Hard-fails the campaign with :class:`PruneDivergence` on any
        difference."""
        if name in self.spot_checks:
            return self.verify_spot_check(name, row)
        check = self.replay_checks.get(name)
        if check is None:
            if name in self._held:
                self._held[name] = row
            return row
        spec, schedule = check
        representative = self.representative_of[name]
        held = self._held[representative]
        applied = [
            entry["applied"]
            for entry in json.loads(held[ExperimentRecord.ROW_DATA])["faults"]
        ]
        expected = replay_row(self._campaign, spec, schedule, held, applied)
        parts = _diverging_parts(expected, row)
        if parts:
            self.divergences += 1
            raise PruneDivergence(
                f"spot-check of memo follower {name!r} diverged from the "
                f"replay of {representative!r} ({' and '.join(parts)} "
                f"differ); the fault memo is unsound for this campaign — "
                f"rerun with --no-fast and report the campaign configuration"
            )
        return expected

    def verify_spot_check(self, name: str, simulated: tuple) -> tuple:
        """Compare a spot-check simulation's stored row against its
        synthesised prediction; return the (confirmed) synthesised row
        to log, or hard-fail the campaign on divergence.

        Bit-identity is on the JSON payloads, ``experimentData`` and
        ``stateVector``, and the analysis columns; the provenance
        columns — timestamps, the ``pruned`` flag — are deliberately
        outside the comparison."""
        expected = self.rows[name]
        parts = _diverging_parts(expected, simulated)
        if parts:
            self.divergences += 1
            raise PruneDivergence(
                f"spot-check of pruned experiment {name!r} diverged from its "
                f"prediction ({' and '.join(parts)} differ); the liveness "
                f"classifier is unsound for this campaign — rerun without "
                f"--prune and report the campaign configuration"
            )
        return expected

    def report(self) -> dict:
        """The prune summary surfaced on :class:`CampaignResult` and by
        the CLI/benchmark."""
        return {
            "planned": self.planned,
            "pruned": len(self.pruned_specs),
            "latent": self.latent,
            "skipped": self.skipped,
            "spot_checks": len(self.spot_checks),
            "spot_check_rate": self.config.spot_check_rate,
            "replayed": self.replayed,
            "replay_checks": len(self.replay_checks),
            "divergences": self.divergences,
            "disabled_reason": self.disabled_reason or None,
        }


def build_prune_plan(
    config: CampaignConfig,
    trace: ReferenceTrace,
    space: LocationSpace,
    specs: list[ExperimentSpec],
    prune_config: PruneConfig,
    reference: ExperimentRecord,
) -> PrunePlan:
    """Partition ``specs`` into simulated and synthesised experiments.
    Synthesised rows are classified against ``reference`` as they are
    made.

    The spot-check sample is drawn with a deterministic RNG seeded from
    the campaign seed, so the same campaign prunes and verifies the same
    experiments on every host and worker count."""
    classifier = ExperimentClassifier(config, trace, space)
    encoder = _StateEncoder(reference)
    reference_state = ReferenceState.of(reference.state_vector)
    rng = random.Random(f"{config.seed}/prune")
    pruned: list[ExperimentSpec] = []
    to_run: list[ExperimentSpec] = []
    spot_checks: set[str] = set()
    rows: dict[str, tuple] = {}
    latent = 0
    for spec in specs:
        if classifier.prunable(spec):
            pruned.append(spec)
            record = synthesize_record(config, spec, trace, reference)
            state = record.state_vector
            latent += state["final"] is not encoder.final
            rows[spec.name] = reference_state.row(record, encoder.encode(state))
            if rng.random() < prune_config.spot_check_rate:
                spot_checks.add(spec.name)
                to_run.append(spec)
        else:
            to_run.append(spec)
    return PrunePlan(
        config=prune_config,
        planned=len(specs),
        pruned_specs=pruned,
        to_run=to_run,
        spot_checks=spot_checks,
        rows=rows,
        latent=latent,
        disabled_reason=classifier.disabled_reason,
    )
