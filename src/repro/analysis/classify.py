"""Error classification — the analysis phase of §3.4.

The paper's taxonomy, reproduced exactly:

Effective errors
    * **Detected errors** — "errors that are detected by the error
      detection mechanisms of the target system.  These errors can be
      further classified into errors detected by each of the various
      mechanisms."
    * **Escaped errors** — "errors that escapes the error detection
      mechanisms causing failures such as incorrect results or
      timeliness violations."

Non-effective errors
    * **Latent errors** — a difference between the reference state and
      the experiment's final state is observable, but the run neither
      detected anything nor failed.
    * **Overwritten errors** — no difference at all between the
      reference final state and the experiment's final state.

Classification compares each ``LoggedSystemState`` row against the
campaign's reference row: outputs (the workload's result sequence)
decide wrong-result failures, the termination outcome decides detection
and timeliness, and the observed state vector decides latent vs
overwritten.

Each row is classified once, where it is made
(:meth:`ReferenceState.row`): in the campaign's experiment loop, where
pruned rows are synthesised, and by the database's single-row writers
and schema migration.  The verdict is stored in the row's analysis
columns, and :func:`classify_campaign` builds the campaign's view from
those columns without decoding any JSON.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.errors import AnalysisError
from ..core.locations import Location
from ..db import (
    ExperimentFacts,
    ExperimentRecord,
    GoofiDatabase,
    reference_name,
)
from ..db.database import install_row_classifier

logger = logging.getLogger(__name__)

CATEGORY_DETECTED = "detected"
CATEGORY_ESCAPED = "escaped"
CATEGORY_LATENT = "latent"
CATEGORY_OVERWRITTEN = "overwritten"

ESCAPE_WRONG_OUTPUT = "wrong_output"
ESCAPE_TIMELINESS = "timeliness"

EFFECTIVE_CATEGORIES = (CATEGORY_DETECTED, CATEGORY_ESCAPED)
NON_EFFECTIVE_CATEGORIES = (CATEGORY_LATENT, CATEGORY_OVERWRITTEN)

#: The analysis columns of a row the classifier refused during a fill.
UNCLASSIFIED = (None,) * 7


class Classification(NamedTuple):
    """The analysis verdict for one experiment, with the facts of its
    row every breakdown reads — the row's analysis columns, in their
    order (so none of them decodes the row).  A named tuple: a view
    makes one per experiment, and a tuple is the cheapest to make."""

    experiment_name: str
    category: str
    #: EDM name for detected errors (``icache_parity``, ...).
    mechanism: str | None = None
    #: ``wrong_output`` or ``timeliness`` for escaped errors.
    escape_kind: str | None = None
    #: The termination outcome and cycle.
    outcome: str | None = None
    termination_cycle: int | None = None
    #: The first fault's element key (``internal:regs.R1``,
    #: ``memory:0x4000``) and injection cycle; ``None`` without faults.
    fault_element: str | None = None
    fault_cycle: int | None = None
    #: State-vector keys that differ from the reference (latent errors;
    #: also filled for escaped wrong-output errors).  Not stored: only a
    #: verdict made from the row's payloads (:meth:`ReferenceState.classify`)
    #: carries them.
    differing_keys: tuple[str, ...] = ()

    @property
    def effective(self) -> bool:
        return self.category in EFFECTIVE_CATEGORIES


def _output_values(state: dict) -> list[tuple[int, int]]:
    """The (port, value) result sequence, ignoring emission cycles: a
    fault that shifts timing without corrupting any result value is not
    a wrong-output failure (timing is judged by the watchdog)."""
    return [(port, value) for _cycle, port, value in state.get("outputs", [])]


#: Comparable parts of an observed state and the prefix of their keys.
#: Cycle and iteration counters are excluded: a fault may legitimately
#: lengthen execution without leaving any erroneous state behind.
_COMPARABLE = (("mem:", "memory"), ("scan:", "scan"))


def state_difference(reference: dict, observed: dict) -> tuple[str, ...]:
    """Keys whose values differ between two captured states (symmetric:
    a key missing on either side counts as differing), sorted."""
    keys: list[str] = []
    # "mem:" sorts before "scan:", so sorting per part sorts the whole.
    # Captured values are ints, so the item views can be xor-ed.
    for prefix, part in _COMPARABLE:
        ref = reference.get(part, {})
        obs = observed.get(part, {})
        if ref != obs:
            keys.extend(sorted({prefix + key for key, _ in ref.items() ^ obs.items()}))
    return tuple(keys)


@dataclass(frozen=True, slots=True)
class ReferenceState:
    """A campaign's reference final state, with its result sequence
    computed once for every experiment compared against it."""

    final: dict | None
    outputs: list[tuple[int, int]] | None

    @classmethod
    def of(cls, state_vector: dict) -> "ReferenceState":
        final = state_vector.get("final")
        return cls(final, None if final is None else _output_values(final))

    def classify(self, record: ExperimentRecord) -> Classification:
        """Classify one experiment against this reference."""
        name = record.experiment_name
        try:
            termination = record.state_vector["termination"]
            final = record.state_vector["final"]
        except KeyError as exc:
            raise AnalysisError(
                f"experiment {name!r} has a malformed state vector (missing {exc})"
            ) from exc
        if self.final is None:
            raise AnalysisError(
                f"the reference of experiment {name!r} has a malformed state "
                f"vector (missing 'final')"
            )
        mechanism = escape_kind = None
        differing: tuple[str, ...] = ()
        outcome = termination["outcome"]
        if outcome == "error_detected":
            category = CATEGORY_DETECTED
            detection = termination.get("detection") or {}
            mechanism = detection.get("mechanism", "unknown")
        elif outcome == "timeout":
            category, escape_kind = CATEGORY_ESCAPED, ESCAPE_TIMELINESS
        elif outcome != "workload_end":
            raise AnalysisError(f"experiment {name!r} has unknown outcome {outcome!r}")
        else:
            differing = state_difference(self.final, final)
            # Identical raw outputs (emission cycles too) skip the projection.
            if (
                final.get("outputs", []) != self.final.get("outputs", [])
                and _output_values(final) != self.outputs
            ):
                category, escape_kind = CATEGORY_ESCAPED, ESCAPE_WRONG_OUTPUT
            elif differing:
                category = CATEGORY_LATENT
            else:
                category = CATEGORY_OVERWRITTEN
        return Classification(
            name, category, mechanism, escape_kind, differing_keys=differing
        )

    def row(self, record: ExperimentRecord, state_json: str | None = None) -> tuple:
        """``record``'s complete ``LoggedSystemState`` row: its payload
        columns (:meth:`ExperimentRecord.to_row`, ``state_json`` as
        there) followed by its analysis columns, classified against this
        reference.  Raises :class:`AnalysisError` for a row the
        classifier refuses."""
        return record.to_row(state_json) + verdict_columns(record, self)


def verdict_columns(record: ExperimentRecord, reference: ReferenceState | None) -> tuple:
    """The analysis columns of ``record``'s row: ``category``,
    ``mechanism``, ``escapeKind`` (its verdict against ``reference``),
    ``outcome``, ``terminationCycle``, ``faultElement`` and
    ``faultCycle``.

    The campaign's reference row, and a row whose ``reference`` is not
    known yet (``None``), get no verdict."""
    if reference is None or record.experiment_name == reference_name(
        record.campaign_name
    ):
        verdict = (None, None, None)
    else:
        classification = reference.classify(record)
        verdict = (
            classification.category,
            classification.mechanism,
            classification.escape_kind,
        )
    termination = record.state_vector.get("termination") or {}
    faults = record.experiment_data.get("faults") or []
    if faults:
        first = faults[0]
        element = Location.from_dict(first["location"]).element_key
        cycle = first.get("injection_cycle")
        fault = (element, None if cycle is None else int(cycle))
    else:
        fault = (None, None)
    return (*verdict, termination.get("outcome"), termination.get("cycle"), *fault)


def row_classifier(reference: dict | None, lenient: bool = False) -> Callable:
    """The database's classifier (:func:`repro.db.database.install_row_classifier`):
    a function giving a record its :func:`verdict_columns` against
    ``reference``, a reference row's state vector.  With ``lenient``, a
    row the classifier refuses gets :data:`UNCLASSIFIED` columns and a
    warning instead of an :class:`AnalysisError`."""
    state = None if reference is None else ReferenceState.of(reference)

    def columns(record: ExperimentRecord) -> tuple:
        try:
            return verdict_columns(record, state)
        except AnalysisError as exc:
            if not lenient:
                raise
            logger.warning("left %s unclassified: %s", record.experiment_name, exc)
            return UNCLASSIFIED

    return columns


install_row_classifier(row_classifier)


def classify_experiment(
    reference_state: dict, record: ExperimentRecord
) -> Classification:
    """Classify one experiment against the campaign's reference state.

    ``reference_state`` is the reference row's ``stateVector``.
    """
    return ReferenceState.of(reference_state).classify(record)


@dataclass(slots=True)
class CampaignClassification:
    """The campaign's analysis view: one :class:`Classification` per
    experiment (in logging order), the reference it was classified
    against, and the outcome counts.  Every report, breakdown, latency
    table and gate reads the campaign from this one view; the readers
    that need more of a row (:meth:`facts`) decode it on demand from
    ``db``, the database the view was read from."""

    campaign_name: str
    classifications: list[Classification] = field(default_factory=list)
    reference: ReferenceState | None = None
    db: GoofiDatabase | None = field(default=None, repr=False, compare=False)
    _categories: Counter = field(init=False, repr=False, compare=False)
    _mechanisms: Counter = field(init=False, repr=False, compare=False)
    _escape_kinds: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._categories = Counter(c.category for c in self.classifications)
        self._mechanisms = Counter(
            c.mechanism for c in self.classifications
            if c.category == CATEGORY_DETECTED and c.mechanism
        )
        self._escape_kinds = Counter(
            c.escape_kind for c in self.classifications
            if c.category == CATEGORY_ESCAPED and c.escape_kind
        )

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.classifications)

    def count(self, category: str) -> int:
        return self._categories[category]

    @property
    def detected(self) -> int:
        return self.count(CATEGORY_DETECTED)

    @property
    def escaped(self) -> int:
        return self.count(CATEGORY_ESCAPED)

    @property
    def latent(self) -> int:
        return self.count(CATEGORY_LATENT)

    @property
    def overwritten(self) -> int:
        return self.count(CATEGORY_OVERWRITTEN)

    @property
    def effective(self) -> int:
        return self.detected + self.escaped

    @property
    def non_effective(self) -> int:
        return self.latent + self.overwritten

    def by_mechanism(self) -> dict[str, int]:
        """Detected errors broken down per detection mechanism."""
        return dict(self._mechanisms)

    def by_escape_kind(self) -> dict[str, int]:
        return dict(self._escape_kinds)

    def facts(self, category: str | None = None) -> Iterator[ExperimentFacts]:
        """Each classified row's decoded ``experimentData`` and
        termination record (of ``category`` only, if given), in view
        order."""
        if self.db is None:
            raise AnalysisError(
                f"the view of campaign {self.campaign_name!r} was not read "
                f"from a database"
            )
        return self.db.iter_experiment_facts(self.campaign_name, category)

    def summary(self) -> dict:
        return {
            "campaign": self.campaign_name,
            "total": self.total,
            "detected": self.detected,
            "escaped": self.escaped,
            "latent": self.latent,
            "overwritten": self.overwritten,
            "effective": self.effective,
            "non_effective": self.non_effective,
            "by_mechanism": self.by_mechanism(),
            "by_escape_kind": self.by_escape_kind(),
        }


def classify_campaign(db: GoofiDatabase, campaign_name: str) -> CampaignClassification:
    """Build a campaign's analysis view from its rows' analysis columns
    (one query, no JSON decoded but the reference's)."""
    reference = db.load_experiment(reference_name(campaign_name))
    classifications = db.verdict_rows(campaign_name, Classification)
    for classification in classifications:
        if classification.category is None:
            raise AnalysisError(
                f"experiment {classification.experiment_name!r} has no stored "
                f"classification: its row is malformed or could not be "
                f"classified when it was stored"
            )
    return CampaignClassification(
        campaign_name,
        classifications,
        ReferenceState.of(reference.state_vector),
        db,
    )
