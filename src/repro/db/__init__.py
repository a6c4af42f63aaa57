"""GOOFI database layer: SQLite storage with the paper's three tables
(``TargetSystemData``, ``CampaignData``, ``LoggedSystemState``) plus
the v2 telemetry tables (``CampaignTelemetry``, ``ExperimentSpan``),
the v3 propagation-probe table (``PropagationProbe``), the v5
cross-run history table (``CampaignHistory``), the v6 resource
accounting table (``ResourceSample``), and the v7 analysis columns."""

from .database import DatabaseError, GoofiDatabase
from .models import (
    CampaignRecord,
    ExperimentFacts,
    ExperimentRecord,
    HistoryRecord,
    ProbeRecord,
    ResourceSampleRecord,
    SpanRecord,
    TargetSystemRecord,
    utc_now,
)
from .schema import REFERENCE_EXPERIMENT, SCHEMA_VERSION, reference_name

__all__ = [
    "CampaignRecord",
    "DatabaseError",
    "ExperimentFacts",
    "ExperimentRecord",
    "GoofiDatabase",
    "HistoryRecord",
    "ProbeRecord",
    "REFERENCE_EXPERIMENT",
    "ResourceSampleRecord",
    "SCHEMA_VERSION",
    "SpanRecord",
    "TargetSystemRecord",
    "reference_name",
    "utc_now",
]
