"""Row dataclasses for the GOOFI database tables.

Each class mirrors one table of :mod:`repro.db.schema` and knows how to
convert itself to and from the stored representation.  The structured
payloads (``config``, ``experiment_data``, ``state_vector``) are plain
dictionaries serialised as JSON — the layer above
(:mod:`repro.core.campaign`, :mod:`repro.analysis`) gives them meaning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple


def utc_now() -> str:
    """Timestamp format used in all ``createdAt`` columns."""
    return datetime.now(timezone.utc).isoformat()


#: The one text form of a telemetry span, compact with sorted keys: the
#: ``ExperimentSpan.spanJson`` column and the ``span`` value of a
#: ``span`` event line (:meth:`repro.core.events.EventBus.span`).
encode_span = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


#: Values of the ``LoggedSystemState.pruned`` provenance column besides
#: 0 (simulated): a row synthesised from the reference run by liveness
#: pruning, and a row replayed from the simulation of another experiment
#: with the same faults (the fault memo, :mod:`repro.core.liveness`).
PRUNED, REPLAYED = 1, 2


@dataclass(slots=True)
class TargetSystemRecord:
    """One row of ``TargetSystemData``."""

    target_name: str
    test_card_name: str
    config: dict
    description: str = ""
    created_at: str = field(default_factory=utc_now)

    def to_row(self) -> tuple:
        return (
            self.target_name,
            self.test_card_name,
            self.description,
            json.dumps(self.config, sort_keys=True),
            self.created_at,
        )

    @classmethod
    def from_row(cls, row: tuple) -> "TargetSystemRecord":
        name, card, description, config_json, created = row
        return cls(
            target_name=name,
            test_card_name=card,
            config=json.loads(config_json),
            description=description,
            created_at=created,
        )


@dataclass(slots=True)
class CampaignRecord:
    """One row of ``CampaignData``."""

    campaign_name: str
    target_name: str
    config: dict
    test_card_name: str = ""
    status: str = "configured"
    created_at: str = field(default_factory=utc_now)

    def to_row(self) -> tuple:
        return (
            self.campaign_name,
            self.target_name,
            self.test_card_name,
            json.dumps(self.config, sort_keys=True),
            self.status,
            self.created_at,
        )

    @classmethod
    def from_row(cls, row: tuple) -> "CampaignRecord":
        name, target, card, config_json, status, created = row
        return cls(
            campaign_name=name,
            target_name=target,
            config=json.loads(config_json),
            test_card_name=card,
            status=status,
            created_at=created,
        )


@dataclass(slots=True)
class ExperimentRecord:
    """One row of ``LoggedSystemState``.

    ``experiment_data`` holds "information about the experiment such as
    the fault injection location"; ``state_vector`` holds "the logged
    system state information from the fault injection experiment" —
    either a single final state (normal mode) or a list of per-
    instruction states (detail mode).

    ``pruned`` marks rows synthesised by the liveness pre-classifier
    (:mod:`repro.core.liveness`) instead of simulated.  It is stored in
    its own column — not inside the JSON payloads — so a pruned row's
    ``experiment_data``/``state_vector`` stay byte-identical to what a
    full simulation would have logged.  The column holds :data:`PRUNED`
    for such a row; a memo follower's row, which the coordinator never
    builds as a record, holds :data:`REPLAYED` and loads with ``pruned``
    false.

    :meth:`to_row` encodes these fields only.  A stored row also carries
    its analysis columns, which the classifier appends
    (:meth:`repro.analysis.classify.ReferenceState.row`).
    """

    experiment_name: str
    campaign_name: str
    experiment_data: dict
    state_vector: dict
    parent_experiment: str | None = None
    created_at: str = field(default_factory=utc_now)
    pruned: bool = False

    #: Positions in :meth:`to_row` of the name and the two JSON payloads
    #: (``experimentData``, ``stateVector``), and in a stored row of the
    #: first analysis column (``category``).
    ROW_NAME, ROW_DATA, ROW_STATE, ROW_VERDICT = 0, 3, 4, 7

    @property
    def termination(self) -> dict:
        """The termination record (outcome, cycle, detection), or ``{}``."""
        return self.state_vector.get("termination", {})

    def to_row(self, state_json: str | None = None) -> tuple:
        """The encoded ``LoggedSystemState`` row.  ``state_json`` is the
        state vector already encoded the same way, for callers that
        encode one state vector shared by many rows once."""
        if state_json is None:
            state_json = json.dumps(self.state_vector, sort_keys=True)
        return (
            self.experiment_name,
            self.parent_experiment,
            self.campaign_name,
            json.dumps(self.experiment_data, sort_keys=True),
            state_json,
            self.created_at,
            int(self.pruned),
        )

    @classmethod
    def from_row(cls, row: tuple) -> "ExperimentRecord":
        name, parent, campaign, data_json, state_json, created, pruned = row
        return cls(
            experiment_name=name,
            campaign_name=campaign,
            experiment_data=json.loads(data_json),
            state_vector=json.loads(state_json),
            parent_experiment=parent,
            created_at=created,
            pruned=pruned == PRUNED,
        )


class ExperimentFacts(NamedTuple):
    """The decoded parts of a ``LoggedSystemState`` row that readers
    beyond the analysis columns need: its ``experimentData`` and its
    state vector's termination record (outcome, cycle, detection)."""

    experiment_name: str
    experiment_data: dict
    termination: dict


@dataclass(slots=True)
class ProbeRecord:
    """One row of ``PropagationProbe``: the compact per-experiment
    propagation summary (first divergence, dormancy, infection curve,
    infected location classes, firing EDM) produced by a probed campaign
    run (``goofi run --probes``).  ``probe`` is the payload built by
    :class:`repro.core.probes.ExperimentProbe`."""

    experiment_name: str
    campaign_name: str
    probe: dict
    created_at: str = field(default_factory=utc_now)

    def to_row(self) -> tuple:
        return (
            self.experiment_name,
            self.campaign_name,
            json.dumps(self.probe, sort_keys=True),
            self.created_at,
        )

    @classmethod
    def from_row(cls, row: tuple) -> "ProbeRecord":
        name, campaign, probe_json, created = row
        return cls(
            experiment_name=name,
            campaign_name=campaign,
            probe=json.loads(probe_json),
            created_at=created,
        )


@dataclass(slots=True)
class HistoryRecord:
    """One row of ``CampaignHistory``: a per-run dependability summary
    (coverage CI, latency percentiles, outcome counts, phase timings,
    throughput) recorded by ``goofi gate --trend`` and compared against
    by :mod:`repro.analysis.trends`.  ``run_id`` is assigned by the
    database on insert."""

    campaign_name: str
    summary: dict
    pack: str | None = None
    run_id: int | None = None
    created_at: str = field(default_factory=utc_now)

    def to_row(self) -> tuple:
        return (
            self.campaign_name,
            self.pack,
            json.dumps(self.summary, sort_keys=True),
            self.created_at,
        )

    @classmethod
    def from_row(cls, row: tuple) -> "HistoryRecord":
        run_id, campaign, pack, summary_json, created = row
        return cls(
            campaign_name=campaign,
            summary=json.loads(summary_json),
            pack=pack,
            run_id=run_id,
            created_at=created,
        )


@dataclass(slots=True)
class ResourceSampleRecord:
    """One row of ``ResourceSample``: a per-process CPU/RSS/shared-memory
    reading taken by :class:`repro.core.resources.ResourceSampler` during
    a resource-telemetry run.  ``sample`` is the backend-independent
    record (see ``RESOURCE_SAMPLE_KEYS``); ``worker`` is denormalised out
    of it for cheap per-worker queries (``-1`` marks the coordinator).
    ``sample_id`` is assigned by the database on insert."""

    campaign_name: str
    sample: dict
    worker: int = 0
    sample_id: int | None = None
    created_at: str = field(default_factory=utc_now)

    def to_row(self) -> tuple:
        return (
            self.campaign_name,
            self.worker,
            json.dumps(self.sample, sort_keys=True),
            self.created_at,
        )

    @classmethod
    def from_row(cls, row: tuple) -> "ResourceSampleRecord":
        sample_id, campaign, worker, sample_json, created = row
        return cls(
            campaign_name=campaign,
            sample=json.loads(sample_json),
            worker=worker,
            sample_id=sample_id,
            created_at=created,
        )


@dataclass(slots=True)
class SpanRecord:
    """One row of ``ExperimentSpan``: the structured per-experiment
    telemetry record (phase timings, execution counters, outcome)
    emitted by a ``--telemetry=spans`` run.  ``span`` is the record
    built by :class:`repro.core.telemetry.ExperimentSpan`."""

    experiment_name: str
    campaign_name: str
    span: dict
    created_at: str = field(default_factory=utc_now)

    def to_row(self) -> tuple:
        return (
            self.experiment_name,
            self.campaign_name,
            encode_span(self.span),
            self.created_at,
            self.span.get("duration_seconds", 0.0),
        )

    @classmethod
    def from_row(cls, row: tuple) -> "SpanRecord":
        name, campaign, span_json, created = row
        return cls(
            experiment_name=name,
            campaign_name=campaign,
            span=json.loads(span_json),
            created_at=created,
        )
