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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.errors import AnalysisError
from ..db import ExperimentRecord, GoofiDatabase, reference_name

CATEGORY_DETECTED = "detected"
CATEGORY_ESCAPED = "escaped"
CATEGORY_LATENT = "latent"
CATEGORY_OVERWRITTEN = "overwritten"

ESCAPE_WRONG_OUTPUT = "wrong_output"
ESCAPE_TIMELINESS = "timeliness"

EFFECTIVE_CATEGORIES = (CATEGORY_DETECTED, CATEGORY_ESCAPED)
NON_EFFECTIVE_CATEGORIES = (CATEGORY_LATENT, CATEGORY_OVERWRITTEN)


@dataclass(frozen=True, slots=True)
class Classification:
    """The analysis verdict for one experiment, next to the parts of its
    row every breakdown reads (so none of them re-reads the row)."""

    experiment_name: str
    category: str
    #: EDM name for detected errors (``icache_parity``, ...).
    mechanism: str | None = None
    #: ``wrong_output`` or ``timeliness`` for escaped errors.
    escape_kind: str | None = None
    #: State-vector keys that differ from the reference (latent errors;
    #: also filled for escaped wrong-output errors).
    differing_keys: tuple[str, ...] = ()
    #: The row's ``experimentData`` (faults, index, technique).
    experiment_data: dict = field(default_factory=dict, compare=False, repr=False)
    #: The state vector's termination record (outcome, cycle, detection).
    termination: dict = field(default_factory=dict, compare=False, repr=False)

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
            name, category, mechanism, escape_kind, differing,
            record.experiment_data, termination,
        )


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
    experiment (in logging order, with its row's ``experimentData`` and
    termination record), the reference it was classified against, and
    the outcome counts.  Every report, breakdown, latency table and gate
    reads the campaign from this one view."""

    campaign_name: str
    classifications: list[Classification] = field(default_factory=list)
    reference: ReferenceState | None = None
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
    """Build a campaign's analysis view: classify every experiment
    against the reference in one pass over its rows."""
    reference = db.load_experiment(reference_name(campaign_name))
    state = ReferenceState.of(reference.state_vector)
    return CampaignClassification(
        campaign_name,
        [
            state.classify(record)
            for record in db.iter_experiments(campaign_name)
            if record.experiment_name != reference.experiment_name
            and record.experiment_data.get("technique") != "reference"
        ],
        state,
    )
