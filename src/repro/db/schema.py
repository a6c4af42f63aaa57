"""SQL schema of the GOOFI database (paper Figure 4).

Three tables, related through foreign keys exactly as the paper draws
them:

* ``TargetSystemData`` — "all information about the target system
  required for setting up new fault injection campaigns" (scan-chain
  layout, memory map, available workloads and fault models).
* ``CampaignData`` — "all the information needed to conduct a campaign"
  (referencing its target system), entered in the set-up phase.
* ``LoggedSystemState`` — "the system state during and after an
  experiment"; one row per experiment, carrying ``experimentData`` (what
  was injected, where and when) and ``stateVector`` (the logged target
  state).  ``parentExperiment`` is a self-referencing foreign key used
  when an experiment is re-run in detail mode to investigate an
  interesting result: the re-run names its parent so the original
  campaign data can be tracked.

"Through the foreign keys, we prevent inconsistencies in the database
and minimize the information stored in the tables" — SQLite enforces
them with ``PRAGMA foreign_keys = ON``, which
:class:`repro.db.database.GoofiDatabase` always sets.

Structured configuration lives in JSON columns: the tool is written
against a generic schema, so target- and technique-specific data must
not require DDL changes (the paper's core genericity requirement).

Version 2 adds the telemetry tables:

* ``CampaignTelemetry`` — one metric snapshot (counters, gauges, phase
  timers, histograms as JSON) per campaign run, written by the
  coordinator when a telemetry-enabled run finishes.
* ``ExperimentSpan`` — optional per-experiment span records (phase
  timings, execution counters) logged when the run used
  ``--telemetry=spans``; keyed like ``LoggedSystemState`` so spans and
  result rows join on ``experimentName``.

Version 3 adds the propagation-probe table:

* ``PropagationProbe`` — one compact propagation summary per probed
  experiment (first-divergence cycle, dormancy, infection-count curve,
  infected location classes, firing EDM), written by ``goofi run
  --probes`` runs and aggregated by ``goofi analyze --propagation``.

Version 4 adds the ``pruned`` provenance column to
``LoggedSystemState``: rows synthesised by the liveness pre-classifier
(``goofi run --prune``) instead of simulated carry ``pruned = 1``.  The
flag lives outside the JSON payloads on purpose — pruned rows must stay
byte-identical to the rows a full simulation would have produced, which
is what the spot-check safety net and the equivalence suite verify.

Version 5 adds the cross-run history table:

* ``CampaignHistory`` — one dependability summary (coverage CI, latency
  percentiles, outcome counts, phase timings, throughput as JSON) per
  recorded run, appended by ``goofi gate --trend`` and read back as the
  baseline population for trend regression detection
  (:mod:`repro.analysis.trends`).  Deliberately *not* foreign-keyed to
  ``CampaignData``: history must survive a campaign being deleted and
  re-set-up between runs — that is the very sequence trends compare.

Version 6 adds the resource-accounting table:

* ``ResourceSample`` — per-process CPU/RSS/shared-memory samples taken
  on a cadence inside each worker (and at phase boundaries in the
  coordinator) by :mod:`repro.core.resources` when a run enables
  resource telemetry (``goofi run --resources``).  Append-only rows,
  one JSON sample each; read back by the ``goofi stats`` Resources
  section and the worker-timeline charts of ``goofi report``.

Version 7 adds the analysis columns.  Each ``LoggedSystemState`` row
carries its classification (§3.4), made once, where the row is made
(:meth:`repro.analysis.classify.ReferenceState.row`): ``category``,
``mechanism`` and ``escapeKind``, the termination ``outcome`` and
``terminationCycle``, and the first fault's ``faultElement`` (its
element key) and ``faultCycle`` (its injection cycle).  The campaign's
reference row leaves the three verdict columns ``NULL``.  Each
``ExperimentSpan`` row carries its ``durationSeconds``.  The analysis
phase reads these columns instead of decoding the JSON payloads.

Opening an older database migrates it in place, one step per version.
Each step is one transaction: its script, its Python fill (the step to
version 7 fills the analysis columns of existing rows with the same
classifier; see :data:`REFILL_VERDICTS`) and the version bump commit
together or not at all.  Migrations are additive (``CREATE TABLE IF
NOT EXISTS`` / ``ALTER TABLE ... ADD COLUMN``), so older data keeps its
meaning.
"""

from __future__ import annotations

SCHEMA_VERSION = 7

CREATE_TABLES = """
CREATE TABLE IF NOT EXISTS SchemaInfo (
    version INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS TargetSystemData (
    targetName   TEXT PRIMARY KEY,
    testCardName TEXT NOT NULL,
    description  TEXT NOT NULL DEFAULT '',
    configJson   TEXT NOT NULL,
    createdAt    TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS CampaignData (
    campaignName TEXT PRIMARY KEY,
    targetName   TEXT NOT NULL REFERENCES TargetSystemData(targetName),
    testCardName TEXT NOT NULL DEFAULT '',
    configJson   TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'configured',
    createdAt    TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS LoggedSystemState (
    experimentName   TEXT PRIMARY KEY,
    parentExperiment TEXT REFERENCES LoggedSystemState(experimentName),
    campaignName     TEXT NOT NULL REFERENCES CampaignData(campaignName),
    experimentData   TEXT NOT NULL,
    stateVector      TEXT NOT NULL,
    createdAt        TEXT NOT NULL,
    pruned           INTEGER NOT NULL DEFAULT 0,
    category         TEXT,
    mechanism        TEXT,
    escapeKind       TEXT,
    outcome          TEXT,
    terminationCycle INTEGER,
    faultElement     TEXT,
    faultCycle       INTEGER
);

CREATE INDEX IF NOT EXISTS idx_logged_campaign
    ON LoggedSystemState(campaignName);
CREATE INDEX IF NOT EXISTS idx_logged_parent
    ON LoggedSystemState(parentExperiment);

CREATE TABLE IF NOT EXISTS CampaignTelemetry (
    campaignName TEXT PRIMARY KEY REFERENCES CampaignData(campaignName),
    snapshotJson TEXT NOT NULL,
    createdAt    TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS ExperimentSpan (
    experimentName  TEXT PRIMARY KEY,
    campaignName    TEXT NOT NULL REFERENCES CampaignData(campaignName),
    spanJson        TEXT NOT NULL,
    createdAt       TEXT NOT NULL,
    durationSeconds REAL NOT NULL DEFAULT 0
);

CREATE INDEX IF NOT EXISTS idx_span_campaign
    ON ExperimentSpan(campaignName);

CREATE TABLE IF NOT EXISTS PropagationProbe (
    experimentName TEXT PRIMARY KEY,
    campaignName   TEXT NOT NULL REFERENCES CampaignData(campaignName),
    probeJson      TEXT NOT NULL,
    createdAt      TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_probe_campaign
    ON PropagationProbe(campaignName);

CREATE TABLE IF NOT EXISTS CampaignHistory (
    runId        INTEGER PRIMARY KEY AUTOINCREMENT,
    campaignName TEXT NOT NULL,
    pack         TEXT,
    summaryJson  TEXT NOT NULL,
    createdAt    TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_history_campaign
    ON CampaignHistory(campaignName);

CREATE TABLE IF NOT EXISTS ResourceSample (
    sampleId     INTEGER PRIMARY KEY AUTOINCREMENT,
    campaignName TEXT NOT NULL REFERENCES CampaignData(campaignName),
    worker       INTEGER NOT NULL DEFAULT 0,
    sampleJson   TEXT NOT NULL,
    createdAt    TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_resource_campaign
    ON ResourceSample(campaignName);
"""

#: Stepwise in-place migrations: ``MIGRATIONS[n]`` upgrades a version-n
#: database to version n+1.  Each script must be additive (old rows
#: keep their meaning) and must not hold transaction statements:
#: :class:`repro.db.database.GoofiDatabase` runs it, the step's fill and
#: the version bump in one transaction.
MIGRATIONS: dict[int, str] = {
    1: """
CREATE TABLE IF NOT EXISTS CampaignTelemetry (
    campaignName TEXT PRIMARY KEY REFERENCES CampaignData(campaignName),
    snapshotJson TEXT NOT NULL,
    createdAt    TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS ExperimentSpan (
    experimentName TEXT PRIMARY KEY,
    campaignName   TEXT NOT NULL REFERENCES CampaignData(campaignName),
    spanJson       TEXT NOT NULL,
    createdAt      TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_span_campaign
    ON ExperimentSpan(campaignName);
""",
    2: """
CREATE TABLE IF NOT EXISTS PropagationProbe (
    experimentName TEXT PRIMARY KEY,
    campaignName   TEXT NOT NULL REFERENCES CampaignData(campaignName),
    probeJson      TEXT NOT NULL,
    createdAt      TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_probe_campaign
    ON PropagationProbe(campaignName);
""",
    3: """
ALTER TABLE LoggedSystemState ADD COLUMN pruned INTEGER NOT NULL DEFAULT 0;
""",
    4: """
CREATE TABLE IF NOT EXISTS CampaignHistory (
    runId        INTEGER PRIMARY KEY AUTOINCREMENT,
    campaignName TEXT NOT NULL,
    pack         TEXT,
    summaryJson  TEXT NOT NULL,
    createdAt    TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_history_campaign
    ON CampaignHistory(campaignName);
""",
    5: """
CREATE TABLE IF NOT EXISTS ResourceSample (
    sampleId     INTEGER PRIMARY KEY AUTOINCREMENT,
    campaignName TEXT NOT NULL REFERENCES CampaignData(campaignName),
    worker       INTEGER NOT NULL DEFAULT 0,
    sampleJson   TEXT NOT NULL,
    createdAt    TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_resource_campaign
    ON ResourceSample(campaignName);
""",
    6: """
ALTER TABLE LoggedSystemState ADD COLUMN category TEXT;
ALTER TABLE LoggedSystemState ADD COLUMN mechanism TEXT;
ALTER TABLE LoggedSystemState ADD COLUMN escapeKind TEXT;
ALTER TABLE LoggedSystemState ADD COLUMN outcome TEXT;
ALTER TABLE LoggedSystemState ADD COLUMN terminationCycle INTEGER;
ALTER TABLE LoggedSystemState ADD COLUMN faultElement TEXT;
ALTER TABLE LoggedSystemState ADD COLUMN faultCycle INTEGER;
ALTER TABLE ExperimentSpan ADD COLUMN durationSeconds REAL NOT NULL DEFAULT 0;
UPDATE ExperimentSpan
   SET durationSeconds = COALESCE(json_extract(spanJson, '$.duration_seconds'), 0);
""",
}

#: Migration steps that, after their script, fill the analysis columns
#: of every existing ``LoggedSystemState`` row with the classifier.  A
#: change to the classifier ships as a new step listed here (an empty
#: script is fine), so every database is reclassified exactly when it
#: is migrated past that change.
REFILL_VERDICTS = frozenset({6})

#: Name of the fault-free reference experiment within every campaign.
REFERENCE_EXPERIMENT = "__reference__"


def reference_name(campaign_name: str) -> str:
    """Database key of a campaign's reference (fault-free) run."""
    return f"{campaign_name}/{REFERENCE_EXPERIMENT}"
