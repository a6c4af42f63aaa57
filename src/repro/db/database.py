"""The GOOFI database: a SQLite wrapper with the paper's three tables.

"All data used by the tool is stored in a portable SQL-database" — this
module is the lowest layer of the architecture (Figure 1), the only
place SQL is spoken.  Foreign keys are always enforced; everything above
works with the row dataclasses of :mod:`repro.db.models`.
"""

from __future__ import annotations

import json
import logging
import sqlite3
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from .models import (
    CampaignRecord,
    ExperimentFacts,
    ExperimentRecord,
    HistoryRecord,
    ProbeRecord,
    ResourceSampleRecord,
    SpanRecord,
    TargetSystemRecord,
)
from .schema import (
    CREATE_TABLES,
    MIGRATIONS,
    REFILL_VERDICTS,
    SCHEMA_VERSION,
    reference_name,
)

logger = logging.getLogger(__name__)

#: The ``LoggedSystemState`` columns of :meth:`ExperimentRecord.to_row`
#: and :meth:`ExperimentRecord.from_row`, in their order.
_PAYLOAD_NAMES = (
    "experimentName", "parentExperiment", "campaignName", "experimentData",
    "stateVector", "createdAt", "pruned",
)
#: The analysis columns, in the order of
#: :func:`repro.analysis.classify.verdict_columns`.
_VERDICT_NAMES = (
    "category", "mechanism", "escapeKind", "outcome", "terminationCycle",
    "faultElement", "faultCycle",
)
_PAYLOAD_COLUMNS = ", ".join(_PAYLOAD_NAMES)
_VERDICT_COLUMNS = ", ".join(_VERDICT_NAMES)
_UPDATE_VERDICT_SQL = (
    "UPDATE LoggedSystemState SET "
    + ", ".join(f"{name} = ?" for name in _VERDICT_NAMES)
    + " WHERE rowid = ?"
)


class DatabaseError(Exception):
    """A constraint or usage error at the database layer."""


def _is_reference(record: ExperimentRecord) -> bool:
    """Whether ``record`` is its campaign's fault-free reference row."""
    return record.experiment_name == reference_name(record.campaign_name)


#: ``factory(reference, lenient) -> columns``: makes the function that
#: gives a record its analysis columns against ``reference``, the
#: campaign's stored reference state vector (``None`` when none is
#: stored).  With ``lenient``, a row the classifier refuses gets empty
#: columns instead of an error.  The analysis layer installs its
#: classifier here when it is imported (:mod:`repro.analysis.classify`):
#: this layer classifies rows without importing the layers above it.
_row_classifier: Callable | None = None


def install_row_classifier(factory: Callable) -> None:
    """Install the classifier the database runs on the rows it
    classifies itself: its single-row writes and its migration fill."""
    global _row_classifier
    _row_classifier = factory


def _classifier(reference: dict | None, lenient: bool = False) -> Callable:
    if _row_classifier is None:
        raise DatabaseError(
            "no row classifier installed; import repro.analysis to install one"
        )
    return _row_classifier(reference, lenient)


class GoofiDatabase:
    """Connection to one GOOFI database file (or ``:memory:``).

    The object is a context manager::

        with GoofiDatabase("campaigns.db") as db:
            db.save_target(record)
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        try:
            self._open()
        except BaseException:
            self._conn.close()
            raise

    def _open(self) -> None:
        self._conn.execute("PRAGMA foreign_keys = ON")
        # Write-ahead logging: campaign flushes commit without waiting
        # for the rollback journal's double write, and analysis readers
        # don't block the coordinator.  A no-op for ':memory:'
        # databases, which simply stay in their default journal mode.
        self._conn.execute("PRAGMA journal_mode = WAL")
        stored = self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'SchemaInfo'"
        ).fetchone()
        row = (
            self._conn.execute("SELECT version FROM SchemaInfo").fetchone()
            if stored
            else None
        )
        if row is None:
            # A new database: every table at the current version.  An
            # older one gets its tables from the migration steps, which
            # expect the shape of the version they start from.
            with self._step(CREATE_TABLES):
                self._conn.execute(
                    "INSERT INTO SchemaInfo (version) VALUES (?)", (SCHEMA_VERSION,)
                )
        elif row[0] < SCHEMA_VERSION:
            self._migrate(int(row[0]))
        elif row[0] != SCHEMA_VERSION:
            raise DatabaseError(
                f"database schema version {row[0]} != supported {SCHEMA_VERSION}"
            )

    @contextmanager
    def _step(self, script: str) -> Iterator[None]:
        """Run ``script`` and the body of the ``with`` block in one
        transaction: all of it takes effect, or (on any exception) none
        of it does.  ``executescript`` commits a pending transaction and
        leaves transaction control to the script, so the script opens
        the transaction itself and the commit follows the block."""
        try:
            self._conn.executescript("BEGIN;\n" + script)
            yield
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise

    def _migrate(self, from_version: int) -> None:
        """Upgrade an older database in place, one version at a time.

        Each step — its script, the verdict fill of a
        :data:`~repro.db.schema.REFILL_VERDICTS` step, and the version
        bump — is one transaction, so an interrupted migration leaves the
        database at the last completed step and the next open carries
        on from there."""
        for version in range(from_version, SCHEMA_VERSION):
            script = MIGRATIONS.get(version)
            if script is None:
                raise DatabaseError(
                    f"no migration path from schema version {version} "
                    f"to {SCHEMA_VERSION}"
                )
            with self._step(script):
                if version in REFILL_VERDICTS:
                    self._fill_verdicts()
                self._conn.execute("UPDATE SchemaInfo SET version = ?", (version + 1,))
            logger.info(
                "migrated %s from schema version %d to %d",
                self.path, version, version + 1,
            )

    def _fill_verdicts(self, campaign_name: str | None = None) -> None:
        """Classify stored experiment rows and write their analysis
        columns: every row of ``campaign_name``, or of the whole
        database.  Runs inside the caller's transaction.

        This is the classifier the engine runs where it makes a row
        (:func:`install_row_classifier`), applied to rows already
        stored.  A campaign without a stored reference keeps empty
        columns until its reference arrives.  A row the classifier
        refuses (a malformed state vector) is left with empty columns
        and a warning, so the database still opens;
        :func:`~repro.analysis.classify.classify_campaign` then names
        it."""
        if campaign_name is None:
            campaigns = [
                name
                for (name,) in self._conn.execute(
                    "SELECT DISTINCT campaignName FROM LoggedSystemState"
                )
            ]
        else:
            campaigns = [campaign_name]
        for campaign in campaigns:
            columns = _classifier(self._stored_reference(campaign), lenient=True)
            last = -1
            while True:
                # Keyset pages keep the memory of a large fill bounded.
                page = self._conn.execute(
                    f"SELECT rowid, {_PAYLOAD_COLUMNS} FROM LoggedSystemState "
                    "WHERE campaignName = ? AND rowid > ? ORDER BY rowid LIMIT 256",
                    (campaign, last),
                ).fetchall()
                if not page:
                    break
                self._conn.executemany(
                    _UPDATE_VERDICT_SQL,
                    [
                        (*columns(ExperimentRecord.from_row(row)), rowid)
                        for rowid, *row in page
                    ],
                )
                last = page[-1][0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "GoofiDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """Group several writes into one transaction (campaign runs use
        this to batch experiment logging)."""
        try:
            yield self._conn
            self._conn.commit()
        except Exception:
            self._conn.rollback()
            raise

    # ------------------------------------------------------------------
    # TargetSystemData
    # ------------------------------------------------------------------
    def save_target(self, record: TargetSystemRecord) -> None:
        """Insert or update a target-system configuration.

        An upsert (not ``INSERT OR REPLACE``): replacing deletes and
        re-inserts the row, which breaks the foreign keys of campaigns
        already referencing the target.
        """
        with self.transaction() as conn:
            conn.execute(
                "INSERT INTO TargetSystemData "
                "(targetName, testCardName, description, configJson, createdAt) "
                "VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT (targetName) DO UPDATE SET "
                "testCardName = excluded.testCardName, "
                "description = excluded.description, "
                "configJson = excluded.configJson, "
                "createdAt = excluded.createdAt",
                record.to_row(),
            )

    def load_target(self, target_name: str) -> TargetSystemRecord:
        cur = self._conn.execute(
            "SELECT targetName, testCardName, description, configJson, createdAt "
            "FROM TargetSystemData WHERE targetName = ?",
            (target_name,),
        )
        row = cur.fetchone()
        if row is None:
            raise DatabaseError(f"no target system {target_name!r} in database")
        return TargetSystemRecord.from_row(row)

    def list_targets(self) -> list[str]:
        cur = self._conn.execute("SELECT targetName FROM TargetSystemData ORDER BY targetName")
        return [row[0] for row in cur.fetchall()]

    # ------------------------------------------------------------------
    # CampaignData
    # ------------------------------------------------------------------
    def save_campaign(self, record: CampaignRecord) -> None:
        try:
            with self.transaction() as conn:
                conn.execute(
                    "INSERT INTO CampaignData "
                    "(campaignName, targetName, testCardName, configJson, status, createdAt) "
                    "VALUES (?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT (campaignName) DO UPDATE SET "
                    "targetName = excluded.targetName, "
                    "testCardName = excluded.testCardName, "
                    "configJson = excluded.configJson, "
                    "status = excluded.status, "
                    "createdAt = excluded.createdAt",
                    record.to_row(),
                )
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(
                f"campaign {record.campaign_name!r} references unknown target "
                f"{record.target_name!r}"
            ) from exc

    def load_campaign(self, campaign_name: str) -> CampaignRecord:
        cur = self._conn.execute(
            "SELECT campaignName, targetName, testCardName, configJson, status, createdAt "
            "FROM CampaignData WHERE campaignName = ?",
            (campaign_name,),
        )
        row = cur.fetchone()
        if row is None:
            raise DatabaseError(f"no campaign {campaign_name!r} in database")
        return CampaignRecord.from_row(row)

    def list_campaigns(self, target_name: str | None = None) -> list[str]:
        if target_name is None:
            cur = self._conn.execute("SELECT campaignName FROM CampaignData ORDER BY campaignName")
        else:
            cur = self._conn.execute(
                "SELECT campaignName FROM CampaignData WHERE targetName = ? "
                "ORDER BY campaignName",
                (target_name,),
            )
        return [row[0] for row in cur.fetchall()]

    def set_campaign_status(self, campaign_name: str, status: str) -> None:
        with self.transaction() as conn:
            cur = conn.execute(
                "UPDATE CampaignData SET status = ? WHERE campaignName = ?",
                (status, campaign_name),
            )
            if cur.rowcount == 0:
                raise DatabaseError(f"no campaign {campaign_name!r} in database")

    # ------------------------------------------------------------------
    # LoggedSystemState
    # ------------------------------------------------------------------
    def save_experiment(self, record: ExperimentRecord) -> None:
        """Insert one experiment row, classified against its campaign's
        stored reference (see :meth:`_classified_row`)."""
        try:
            with self.transaction() as conn:
                conn.execute(self._INSERT_EXPERIMENT_SQL, self._classified_row(record))
                if _is_reference(record):
                    # Rows stored before their reference get their verdicts.
                    self._fill_verdicts(record.campaign_name)
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(
                f"experiment {record.experiment_name!r} violates a constraint "
                f"(duplicate name, or unknown campaign/parent): {exc}"
            ) from exc

    _INSERT_EXPERIMENT_SQL = (
        f"INSERT INTO LoggedSystemState ({_PAYLOAD_COLUMNS}, {_VERDICT_COLUMNS}) "
        f"VALUES ({', '.join(['?'] * (len(_PAYLOAD_NAMES) + len(_VERDICT_NAMES)))})"
    )

    def save_experiment_rows(self, rows: list[tuple]) -> None:
        """Batch insert of complete rows, made by
        :meth:`ReferenceState.row <repro.analysis.classify.ReferenceState.row>`
        (the payload columns and the analysis columns) — one
        ``executemany`` in one transaction for a whole campaign chunk, so
        a flush pays a single statement-prepare and a single commit
        regardless of batch size."""
        try:
            with self.transaction() as conn:
                conn.executemany(self._INSERT_EXPERIMENT_SQL, rows)
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(f"batch experiment insert failed: {exc}") from exc

    def _classified_row(self, record: ExperimentRecord) -> tuple:
        """``record``'s complete row, classified against the stored
        reference of its campaign.  A reference row, and a row whose
        reference is not stored yet, get empty verdict columns (the
        latter are filled when the reference arrives).  The classifier's
        error for a row it refuses propagates: a malformed row is never
        stored."""
        reference = (
            None if _is_reference(record) else self._stored_reference(record.campaign_name)
        )
        return record.to_row() + _classifier(reference)(record)

    def _stored_reference(self, campaign_name: str) -> dict | None:
        """The state vector of the campaign's stored reference row, or
        ``None`` when none is stored."""
        stored = self._conn.execute(
            "SELECT stateVector FROM LoggedSystemState WHERE experimentName = ?",
            (reference_name(campaign_name),),
        ).fetchone()
        return None if stored is None else json.loads(stored[0])

    def replace_experiment(self, record: ExperimentRecord) -> None:
        """Insert or overwrite one experiment row, classified like
        :meth:`save_experiment`.  Used for rows with well-known names
        that are regenerated on re-runs (the campaign reference run).  A
        reference whose state changes reclassifies its campaign's rows."""
        try:
            with self.transaction() as conn:
                row = self._classified_row(record)
                refill = _is_reference(record) and conn.execute(
                    "SELECT stateVector FROM LoggedSystemState WHERE experimentName = ?",
                    (record.experiment_name,),
                ).fetchone() != (row[ExperimentRecord.ROW_STATE],)
                conn.execute(
                    self._INSERT_EXPERIMENT_SQL
                    + " ON CONFLICT (experimentName) DO UPDATE SET "
                    + ", ".join(
                        f"{name} = excluded.{name}"
                        for name in (*_PAYLOAD_NAMES[1:], *_VERDICT_NAMES)
                    ),
                    row,
                )
                if refill:
                    self._fill_verdicts(record.campaign_name)
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(
                f"experiment {record.experiment_name!r} violates a constraint: {exc}"
            ) from exc

    def delete_campaign_experiments(self, campaign_name: str) -> int:
        """Drop all logged experiments of a campaign (a fresh run of the
        same campaign replaces its old results), along with their spans
        and the stale metric snapshot.  Returns the number of experiment
        rows removed."""
        with self.transaction() as conn:
            conn.execute(
                "DELETE FROM ExperimentSpan WHERE campaignName = ?", (campaign_name,)
            )
            conn.execute(
                "DELETE FROM PropagationProbe WHERE campaignName = ?",
                (campaign_name,),
            )
            conn.execute(
                "DELETE FROM CampaignTelemetry WHERE campaignName = ?",
                (campaign_name,),
            )
            conn.execute(
                "DELETE FROM ResourceSample WHERE campaignName = ?",
                (campaign_name,),
            )
            cur = conn.execute(
                "DELETE FROM LoggedSystemState WHERE campaignName = ?",
                (campaign_name,),
            )
            return cur.rowcount

    def load_experiment(self, experiment_name: str) -> ExperimentRecord:
        cur = self._conn.execute(
            f"SELECT {_PAYLOAD_COLUMNS} FROM LoggedSystemState WHERE experimentName = ?",
            (experiment_name,),
        )
        row = cur.fetchone()
        if row is None:
            raise DatabaseError(f"no experiment {experiment_name!r} in database")
        return ExperimentRecord.from_row(row)

    def iter_experiments(self, campaign_name: str) -> Iterator[ExperimentRecord]:
        """Stream every logged experiment of a campaign, in insertion
        order (analysis-phase workhorse)."""
        cur = self._conn.execute(
            f"SELECT {_PAYLOAD_COLUMNS} FROM LoggedSystemState WHERE campaignName = ? "
            "ORDER BY rowid",
            (campaign_name,),
        )
        for row in cur:
            yield ExperimentRecord.from_row(row)

    def verdict_rows(self, campaign_name: str, make: Callable) -> list:
        """The analysis columns of a campaign's experiments, its
        reference row left out, in insertion order: one
        ``make(experimentName, category, mechanism, escapeKind, outcome,
        terminationCycle, faultElement, faultCycle)`` per row, read
        without decoding any JSON.  Each record is made as its row is
        read, so no intermediate tuple outlives its row."""
        cursor = self._conn.cursor()
        cursor.row_factory = lambda _cursor, row: make(*row)
        return cursor.execute(
            f"SELECT experimentName, {_VERDICT_COLUMNS} FROM LoggedSystemState "
            "WHERE campaignName = ? AND experimentName != ? ORDER BY rowid",
            (campaign_name, reference_name(campaign_name)),
        ).fetchall()

    def iter_experiment_facts(
        self, campaign_name: str, category: str | None = None
    ) -> Iterator[ExperimentFacts]:
        """The decoded ``experimentData`` and termination record of a
        campaign's classified rows (of one ``category``, if given), in
        insertion order — for the readers that need more of a row than
        its analysis columns.  SQLite extracts the termination record,
        so the rest of the state vector is never decoded here."""
        sql = (
            "SELECT experimentName, experimentData, "
            "json_extract(stateVector, '$.termination') FROM LoggedSystemState "
            "WHERE campaignName = ? AND category IS NOT NULL"
        )
        params: tuple = (campaign_name,)
        if category is not None:
            sql += " AND category = ?"
            params = (campaign_name, category)
        for name, data_json, termination_json in self._conn.execute(
            sql + " ORDER BY rowid", params
        ):
            yield ExperimentFacts(
                name, json.loads(data_json), json.loads(termination_json or "{}")
            )

    def count_experiments(self, campaign_name: str) -> int:
        cur = self._conn.execute(
            "SELECT COUNT(*) FROM LoggedSystemState WHERE campaignName = ?",
            (campaign_name,),
        )
        return int(cur.fetchone()[0])

    def children_of(self, experiment_name: str) -> list[ExperimentRecord]:
        """Experiments re-run from ``experiment_name`` (detail-mode
        investigations tracking their parent, per the paper's E1/E2
        example)."""
        cur = self._conn.execute(
            f"SELECT {_PAYLOAD_COLUMNS} FROM LoggedSystemState "
            "WHERE parentExperiment = ? ORDER BY rowid",
            (experiment_name,),
        )
        return [ExperimentRecord.from_row(row) for row in cur.fetchall()]

    def delete_campaign(self, campaign_name: str) -> None:
        """Remove a campaign, its logged experiments, and its telemetry."""
        with self.transaction() as conn:
            conn.execute(
                "DELETE FROM ExperimentSpan WHERE campaignName = ?", (campaign_name,)
            )
            conn.execute(
                "DELETE FROM PropagationProbe WHERE campaignName = ?",
                (campaign_name,),
            )
            conn.execute(
                "DELETE FROM CampaignTelemetry WHERE campaignName = ?",
                (campaign_name,),
            )
            conn.execute(
                "DELETE FROM ResourceSample WHERE campaignName = ?",
                (campaign_name,),
            )
            conn.execute(
                "DELETE FROM LoggedSystemState WHERE campaignName = ?", (campaign_name,)
            )
            conn.execute("DELETE FROM CampaignData WHERE campaignName = ?", (campaign_name,))

    # ------------------------------------------------------------------
    # Telemetry: CampaignTelemetry and ExperimentSpan
    # ------------------------------------------------------------------
    def save_campaign_telemetry(self, campaign_name: str, snapshot: dict) -> None:
        """Store (or replace) a campaign's metric snapshot — one row per
        campaign, written by the coordinator when a telemetry-enabled
        run finishes."""
        from .models import utc_now

        try:
            with self.transaction() as conn:
                conn.execute(
                    "INSERT INTO CampaignTelemetry "
                    "(campaignName, snapshotJson, createdAt) VALUES (?, ?, ?) "
                    "ON CONFLICT (campaignName) DO UPDATE SET "
                    "snapshotJson = excluded.snapshotJson, "
                    "createdAt = excluded.createdAt",
                    (campaign_name, json.dumps(snapshot, sort_keys=True), utc_now()),
                )
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(
                f"telemetry snapshot references unknown campaign "
                f"{campaign_name!r}: {exc}"
            ) from exc

    def load_campaign_telemetry(self, campaign_name: str) -> dict:
        cur = self._conn.execute(
            "SELECT snapshotJson FROM CampaignTelemetry WHERE campaignName = ?",
            (campaign_name,),
        )
        row = cur.fetchone()
        if row is None:
            raise DatabaseError(
                f"no telemetry snapshot for campaign {campaign_name!r} — "
                f"run it with telemetry enabled (goofi run --telemetry)"
            )
        return json.loads(row[0])

    def save_spans(self, records: list[SpanRecord]) -> None:
        """Batch-upsert span records (see :meth:`save_span_rows`)."""
        self.save_span_rows([record.to_row() for record in records])

    def save_span_rows(self, rows: list[tuple]) -> None:
        """Batch-upsert per-experiment span rows already in
        :meth:`SpanRecord.to_row` form — one ``executemany`` per
        campaign flush, mirroring :meth:`save_experiment_rows`."""
        if not rows:
            return
        try:
            with self.transaction() as conn:
                conn.executemany(
                    "INSERT INTO ExperimentSpan "
                    "(experimentName, campaignName, spanJson, createdAt, durationSeconds) "
                    "VALUES (?, ?, ?, ?, ?) "
                    "ON CONFLICT (experimentName) DO UPDATE SET "
                    "campaignName = excluded.campaignName, "
                    "spanJson = excluded.spanJson, "
                    "createdAt = excluded.createdAt, "
                    "durationSeconds = excluded.durationSeconds",
                    rows,
                )
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(f"batch span insert failed: {exc}") from exc

    _SPAN_COLUMNS = "experimentName, campaignName, spanJson, createdAt"

    def iter_spans(self, campaign_name: str) -> Iterator[SpanRecord]:
        cur = self._conn.execute(
            f"SELECT {self._SPAN_COLUMNS} "
            "FROM ExperimentSpan WHERE campaignName = ? ORDER BY rowid",
            (campaign_name,),
        )
        for row in cur:
            yield SpanRecord.from_row(row)

    def slowest_spans(self, campaign_name: str, limit: int) -> list[SpanRecord]:
        """The campaign's ``limit`` longest spans, longest first; equal
        durations keep insertion order.  Only these spans are decoded."""
        cur = self._conn.execute(
            f"SELECT {self._SPAN_COLUMNS} FROM ExperimentSpan WHERE campaignName = ? "
            "ORDER BY durationSeconds DESC, rowid LIMIT ?",
            (campaign_name, limit),
        )
        return [SpanRecord.from_row(row) for row in cur]

    def count_spans(self, campaign_name: str) -> int:
        cur = self._conn.execute(
            "SELECT COUNT(*) FROM ExperimentSpan WHERE campaignName = ?",
            (campaign_name,),
        )
        return int(cur.fetchone()[0])

    # ------------------------------------------------------------------
    # PropagationProbe
    # ------------------------------------------------------------------
    def save_probes(self, records: list[ProbeRecord]) -> None:
        """Batch-upsert per-experiment propagation summaries (one
        ``executemany`` per campaign flush, like :meth:`save_spans`)."""
        if not records:
            return
        try:
            with self.transaction() as conn:
                conn.executemany(
                    "INSERT INTO PropagationProbe "
                    "(experimentName, campaignName, probeJson, createdAt) "
                    "VALUES (?, ?, ?, ?) "
                    "ON CONFLICT (experimentName) DO UPDATE SET "
                    "campaignName = excluded.campaignName, "
                    "probeJson = excluded.probeJson, "
                    "createdAt = excluded.createdAt",
                    [record.to_row() for record in records],
                )
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(f"batch probe insert failed: {exc}") from exc

    def iter_probes(self, campaign_name: str) -> Iterator[ProbeRecord]:
        cur = self._conn.execute(
            "SELECT experimentName, campaignName, probeJson, createdAt "
            "FROM PropagationProbe WHERE campaignName = ? ORDER BY rowid",
            (campaign_name,),
        )
        for row in cur:
            yield ProbeRecord.from_row(row)

    def count_probes(self, campaign_name: str) -> int:
        cur = self._conn.execute(
            "SELECT COUNT(*) FROM PropagationProbe WHERE campaignName = ?",
            (campaign_name,),
        )
        return int(cur.fetchone()[0])

    # ------------------------------------------------------------------
    # ResourceSample
    # ------------------------------------------------------------------
    def save_resource_samples(self, records: list[ResourceSampleRecord]) -> None:
        """Batch-append worker resource samples (one ``executemany`` per
        campaign flush, like :meth:`save_spans`; samples are append-only
        within a run — a fresh run of the campaign clears them via
        :meth:`delete_campaign_experiments`)."""
        if not records:
            return
        try:
            with self.transaction() as conn:
                conn.executemany(
                    "INSERT INTO ResourceSample "
                    "(campaignName, worker, sampleJson, createdAt) "
                    "VALUES (?, ?, ?, ?)",
                    [record.to_row() for record in records],
                )
        except sqlite3.IntegrityError as exc:
            raise DatabaseError(f"batch resource-sample insert failed: {exc}") from exc

    def iter_resource_samples(
        self, campaign_name: str
    ) -> Iterator[ResourceSampleRecord]:
        cur = self._conn.execute(
            "SELECT sampleId, campaignName, worker, sampleJson, createdAt "
            "FROM ResourceSample WHERE campaignName = ? ORDER BY sampleId",
            (campaign_name,),
        )
        for row in cur:
            yield ResourceSampleRecord.from_row(row)

    def count_resource_samples(self, campaign_name: str) -> int:
        cur = self._conn.execute(
            "SELECT COUNT(*) FROM ResourceSample WHERE campaignName = ?",
            (campaign_name,),
        )
        return int(cur.fetchone()[0])

    # ------------------------------------------------------------------
    # CampaignHistory
    # ------------------------------------------------------------------
    def save_history(self, record: HistoryRecord) -> int:
        """Append one per-run dependability summary and return its
        assigned ``runId``.  History is append-only and deliberately not
        foreign-keyed to ``CampaignData`` — it must survive the campaign
        being deleted and re-set-up between the runs it compares."""
        with self.transaction() as conn:
            cur = conn.execute(
                "INSERT INTO CampaignHistory "
                "(campaignName, pack, summaryJson, createdAt) "
                "VALUES (?, ?, ?, ?)",
                record.to_row(),
            )
            record.run_id = int(cur.lastrowid)
            return record.run_id

    def iter_history(
        self, campaign_name: str, limit: int | None = None
    ) -> Iterator[HistoryRecord]:
        """Recorded runs of a campaign, most recent first (the trend
        baseline population is the ``limit`` latest)."""
        sql = (
            "SELECT runId, campaignName, pack, summaryJson, createdAt "
            "FROM CampaignHistory WHERE campaignName = ? ORDER BY runId DESC"
        )
        params: tuple = (campaign_name,)
        if limit is not None:
            sql += " LIMIT ?"
            params = (campaign_name, limit)
        for row in self._conn.execute(sql, params):
            yield HistoryRecord.from_row(row)

    def count_history(self, campaign_name: str) -> int:
        cur = self._conn.execute(
            "SELECT COUNT(*) FROM CampaignHistory WHERE campaignName = ?",
            (campaign_name,),
        )
        return int(cur.fetchone()[0])

    # ------------------------------------------------------------------
    @staticmethod
    def _strip_leading_comments(sql: str) -> str:
        """Skip leading whitespace, ``--`` line comments and ``/* */``
        block comments so the statement keyword can be inspected."""
        text = sql
        while True:
            text = text.lstrip()
            if text.startswith("--"):
                _, newline, rest = text.partition("\n")
                if not newline:
                    return ""
                text = rest
            elif text.startswith("/*"):
                _, closed, rest = text[2:].partition("*/")
                if not closed:
                    return ""
                text = rest
            else:
                return text

    def execute_sql(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Raw read-only query hook for user-written analysis scripts
        ("the user must write tailor made scripts or programs that query
        the database for the required information").

        Accepts plain ``SELECT`` statements and CTE queries
        (``WITH ... SELECT``), optionally preceded by SQL comments.  Any
        write is refused: statements with another leading keyword are
        rejected up front, and the query runs under ``PRAGMA
        query_only`` so even a write smuggled into a CTE
        (``WITH ... DELETE``) fails.
        """
        lowered = self._strip_leading_comments(sql).lower()
        if not (lowered.startswith("select") or lowered.startswith("with")):
            raise DatabaseError("execute_sql only accepts SELECT statements")
        self._conn.execute("PRAGMA query_only = ON")
        try:
            cur = self._conn.execute(sql, params)
            return cur.fetchall()
        except sqlite3.OperationalError as exc:
            if "query_only" in str(exc) or "readonly" in str(exc):
                raise DatabaseError("execute_sql only accepts read-only statements") from exc
            raise
        finally:
            self._conn.execute("PRAGMA query_only = OFF")
