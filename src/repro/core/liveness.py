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

The safety net: ``--prune=RATE`` re-simulates a seeded random sample of
the pruned experiments and hard-fails the campaign
(:class:`PruneDivergence`) if any simulated row differs from its
synthesised prediction.  ``--prune=1.0`` re-simulates everything — the
bit-identical equivalence bar used by the test suite and benchmark.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

from ..analysis.classify import ReferenceState
from ..db import ExperimentRecord
from .campaign import (
    LOGGING_NORMAL,
    TECHNIQUE_SWIFI_PRERUNTIME,
    CampaignConfig,
    ExperimentSpec,
    PlannedFault,
)
from .errors import ConfigurationError, GoofiError
from .faultmodels import is_transient
from .locations import KIND_MEMORY, KIND_SCAN, LocationSpace
from .triggers import ReferenceTrace

#: Fraction of pruned experiments re-simulated by default when
#: ``--prune`` is given without a rate.
DEFAULT_SPOT_CHECK_RATE = 0.1


class PruneDivergence(GoofiError):
    """A spot-checked pruned experiment did not match its synthesised
    prediction — the classifier is wrong for this campaign and the run
    must not be trusted."""


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
# Liveness primitives
# ----------------------------------------------------------------------
_CYCLE = itemgetter(0)


def first_event_at_or_after(
    events: list[tuple[int, str]], cycle: int
) -> tuple[int, str] | None:
    """First access event at or after ``cycle`` (an injection at
    ``cycle`` lands *before* the instruction of that cycle executes).
    ``events`` is chronological with reads preceding writes at the same
    cycle, so a read-modify-write boundary reports the read."""
    index = bisect_left(events, cycle, key=_CYCLE)
    return events[index] if index < len(events) else None


def dead_windows(
    events: list[tuple[int, str]], duration: int
) -> list[tuple[int, int]]:
    """Half-open ``[start, end)`` injection-cycle windows in which a
    transient flip is overwritten before it can be read: every cycle in
    the window has a whole-element *write* as its first event at or
    after it.  The tail past the last access is NOT a dead window — a
    flip there survives to the final state capture."""
    windows: list[tuple[int, int]] = []
    previous = -1
    for cycle, kind in events:
        if kind == "write" and cycle > previous:
            start, end = previous + 1, min(cycle + 1, duration)
            if start < end:
                if windows and windows[-1][1] == start:
                    windows[-1] = (windows[-1][0], end)
                else:
                    windows.append((start, end))
        previous = cycle
    return windows


def liveness_map(trace: ReferenceTrace) -> dict:
    """Per-element liveness summary of the golden pass: dead
    (written-before-read) windows and never-read flags per traced
    register, first-access kind per traced memory word, plus the
    never-accessed tail implied by omission.

    The maps are keyed by register index / word address.
    """
    registers: dict[int, dict] = {}
    for register in sorted({reg for _, _, reg in trace.reg_accesses}):
        events = trace.reg_events(register)
        windows = dead_windows(events, trace.duration)
        registers[register] = {
            "accesses": len(events),
            "never_read": not any(kind == "read" for _, kind in events),
            "dead_windows": [[start, end] for start, end in windows],
            "dead_cycles": sum(end - start for start, end in windows),
        }
    memory: dict[int, dict] = {}
    for cycle, kind, address in trace.mem_accesses:
        entry = memory.setdefault(
            address, {"first_access": kind, "first_cycle": cycle, "accesses": 0}
        )
        entry["accesses"] += 1
    return {
        "duration": trace.duration,
        "registers": registers,
        "memory": memory,
    }


# ----------------------------------------------------------------------
# Experiment classification
# ----------------------------------------------------------------------
_REGISTER_PREFIX = "regs.R"


def _register_of(element: str) -> int | None:
    """Register index of a ``regs.Rn`` scan element, else ``None``."""
    if not element.startswith(_REGISTER_PREFIX):
        return None
    return int(element.removeprefix(_REGISTER_PREFIX))


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
        if location.kind == KIND_SCAN:
            return self._scan_fault_prunable(location.element, cycle)
        if location.kind == KIND_MEMORY:
            return self._memory_fault_prunable(location.address)
        return False

    def _scan_fault_prunable(self, element: str, cycle: int) -> bool:
        """Dead-window or latent-tail test for a transient register
        flip: the next access is a write, or there is none.  Control
        state, caches and pins are always-live."""
        register = _register_of(element)
        if register is None:
            return False
        if not 0 <= cycle < self.trace.duration:
            # At or past the end of the run the ordering against HALT is
            # ambiguous; conservatively simulate.
            return False
        following = first_event_at_or_after(self.trace.reg_events(register), cycle)
        return following is None or following[1] == "write"

    def _memory_fault_prunable(self, address: int) -> bool:
        """Written-before-read test for a pre-runtime image corruption.
        Only sound when the run's memory traffic is fully traced (no
        environment) and the word can never be fetched (data region)."""
        if self.config.technique != TECHNIQUE_SWIFI_PRERUNTIME:
            return False
        if self.config.environment is not None:
            return False
        if not any(base <= address < limit for base, limit in self._data_regions):
            return False
        events = self.trace.mem_events(address)
        return bool(events) and events[0][1] == "write"


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
    schedule = [(fault.trigger.resolve(trace), fault) for fault in spec.faults]
    schedule.sort(key=lambda item: item[0])
    applied = []
    flips: dict[str, int] = {}
    for cycle, fault in schedule:
        entry = fault.to_dict()
        entry["injection_cycle"] = cycle
        entry["applied"] = True
        applied.append(entry)
        location = fault.location
        register = (
            _register_of(location.element) if location.kind == KIND_SCAN else None
        )
        if register is not None and (
            first_event_at_or_after(trace.reg_events(register), cycle) is None
        ):
            key = f"{location.chain}:{location.element}"
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


@dataclass(slots=True)
class PrunePlan:
    """The partition of one campaign plan: experiments to simulate,
    experiments to synthesise, and the spot-check sample bridging the
    two."""

    config: PruneConfig
    planned: int
    #: Specs whose rows are synthesised.
    pruned_specs: list[ExperimentSpec]
    #: Specs the engines actually simulate: every unprunable spec plus
    #: the spot-check sample, in original plan order.
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

    @property
    def skipped(self) -> int:
        """Simulations actually avoided."""
        return len(self.pruned_specs) - len(self.spot_checks)

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

    def verify_spot_check(self, name: str, simulated: tuple) -> tuple:
        """Compare a spot-check simulation's encoded row
        (:meth:`ExperimentRecord.to_row`) against its synthesised
        prediction; return the (confirmed) synthesised row, encoded, to
        log, or hard-fail the campaign on divergence.

        Bit-identity is on the JSON payloads, ``experimentData`` and
        ``stateVector``; the provenance columns — timestamps, the
        ``pruned`` flag — are deliberately outside the comparison."""
        expected = self.rows[name]
        parts = [
            part
            for part, column in (
                ("experiment data", ExperimentRecord.ROW_DATA),
                ("state vector", ExperimentRecord.ROW_STATE),
            )
            if expected[column] != simulated[column]
        ]
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
