"""The analysis columns: every row is classified where it is made.

Each ``LoggedSystemState`` row stores its verdict (category, mechanism,
escape kind), its termination outcome and cycle, and its first fault's
element key and injection cycle; each ``ExperimentSpan`` row its
duration.  These tests check the stored values against the classifier
run again on the decoded row, on small versions of the ledger's two
campaign shapes (thor-rd with checkpoints and pruning; thor-sm on two
workers with spans), on a resumed campaign, after the schema-7
migration and after interrupted migrations.
"""

from __future__ import annotations

import sqlite3

import pytest

from tests.conftest import drop_v7_columns, make_campaign
from tests.test_prune import control_campaign
from repro import CampaignConfig, GoofiSession
from repro.analysis import classify_campaign, format_stats_report, stats_report
from repro.analysis import classify as classify_module
from repro.analysis.classify import ReferenceState
from repro.core.errors import AnalysisError
from repro.core.locations import Location
from repro.db import SCHEMA_VERSION, GoofiDatabase, SpanRecord, reference_name
from repro.db.schema import MIGRATIONS

COLUMNS = (
    "experimentName, category, mechanism, escapeKind, outcome, "
    "terminationCycle, faultElement, faultCycle"
)


def stored_columns(db: GoofiDatabase, campaign: str) -> dict[str, tuple]:
    rows = db.execute_sql(
        f"SELECT {COLUMNS} FROM LoggedSystemState WHERE campaignName = ?",
        (campaign,),
    )
    return {row[0]: row[1:] for row in rows}


def recomputed_columns(db: GoofiDatabase, campaign: str) -> dict[str, tuple]:
    """The columns each row should carry, from its decoded payloads and
    the classifier run against the decoded reference."""
    reference_row = reference_name(campaign)
    reference = ReferenceState.of(db.load_experiment(reference_row).state_vector)
    expected = {}
    for record in db.iter_experiments(campaign):
        if record.experiment_name == reference_row:
            verdict = (None, None, None)
        else:
            verdict = reference.classify(record)
            verdict = (verdict.category, verdict.mechanism, verdict.escape_kind)
        termination = record.state_vector["termination"]
        faults = record.experiment_data.get("faults") or []
        fault = (
            (
                Location.from_dict(faults[0]["location"]).element_key,
                faults[0]["injection_cycle"],
            )
            if faults
            else (None, None)
        )
        expected[record.experiment_name] = (
            *verdict, termination["outcome"], termination["cycle"], *fault,
        )
    return expected


def stored_durations(db: GoofiDatabase, campaign: str) -> dict[str, float]:
    rows = db.execute_sql(
        "SELECT experimentName, durationSeconds FROM ExperimentSpan "
        "WHERE campaignName = ?",
        (campaign,),
    )
    return dict(rows)


def span_durations(db: GoofiDatabase, campaign: str) -> dict[str, float]:
    return {
        record.experiment_name: record.span["duration_seconds"]
        for record in db.iter_spans(campaign)
    }


def sm_campaign(session: GoofiSession, name: str = "sm", num_experiments: int = 60):
    """The ledger's thor-sm shape, small: pre-runtime SWIFI into the
    data region of ``s_checksum``."""
    config = CampaignConfig(
        name=name,
        target="thor-sm",
        technique="swifi_preruntime",
        workload="s_checksum",
        location_patterns=("memory:data",),
        num_experiments=num_experiments,
        termination=session.default_termination("s_checksum"),
        observation=session.default_observation("s_checksum"),
        seed=2001,
    )
    session.setup_campaign(config)
    return config


def build_database(path) -> None:
    """Both ledger shapes, run with the options the ledger runs them
    with, in one database file."""
    with GoofiSession(path) as session:
        control_campaign(session, "rd")
        result = session.run_campaign("rd", checkpoints=True, prune=0.5)
        assert result.prune["skipped"] and result.prune["spot_checks"]
        assert result.prune["latent"]
    with GoofiSession(path, target_name="thor-sm") as session:
        sm_campaign(session)
        session.run_campaign("sm", workers=2, telemetry="spans", resources=True)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    path = tmp_path_factory.mktemp("columns") / "built.db"
    build_database(path)
    return path


def snapshot(path) -> dict:
    """Everything the analysis columns decide, per campaign."""
    with GoofiDatabase(path) as db:
        return {
            name: (
                stored_columns(db, name),
                classify_campaign(db, name).classifications,
                stored_durations(db, name),
            )
            for name in ("rd", "sm")
        }


def rewind_to_v6(path) -> None:
    conn = sqlite3.connect(path)
    drop_v7_columns(conn)
    conn.execute("UPDATE SchemaInfo SET version = 6")
    conn.commit()
    conn.close()


class TestColumnsWhereRowsAreMade:
    def test_rd_checkpoints_and_prune(self, built):
        with GoofiDatabase(built) as db:
            stored = stored_columns(db, "rd")
            assert stored == recomputed_columns(db, "rd")
            [(pruned,)] = db.execute_sql(
                "SELECT COUNT(*) FROM LoggedSystemState "
                "WHERE campaignName = 'rd' AND pruned = 1"
            )
        assert pruned > 0
        categories = {columns[0] for columns in stored.values()}
        assert {"latent", "overwritten"} <= categories

    def test_sm_two_workers_with_spans(self, built):
        with GoofiDatabase(built) as db:
            assert stored_columns(db, "sm") == recomputed_columns(db, "sm")
            durations = stored_durations(db, "sm")
            # One span per simulated experiment: memo followers, whose
            # rows are replayed from a representative, send none.
            [(replayed,)] = db.execute_sql(
                "SELECT COUNT(*) FROM LoggedSystemState "
                "WHERE campaignName = 'sm' AND pruned = 2"
            )
            assert replayed > 0
            assert len(durations) == 60 - replayed
            assert durations == span_durations(db, "sm")

    def test_resumed_campaign(self, session):
        make_campaign(session, "r", num_experiments=24, seed=5)
        session.progress.observers.append(
            lambda event: session.progress.end() if event.completed >= 10 else None
        )
        result = session.run_campaign("r")
        session.progress.observers.clear()
        assert result.aborted
        session.run_campaign("r", resume=True)
        assert session.db.count_experiments("r") == 25
        assert stored_columns(session.db, "r") == recomputed_columns(session.db, "r")

    def test_single_row_writes_classify(self, session):
        """Rows stored one at a time (a detail re-run) are classified
        against the stored reference too, rows stored before their
        reference are classified when it arrives, and a changed
        reference reclassifies its campaign."""
        make_campaign(session, "s", num_experiments=6, seed=4)
        session.run_campaign("s")
        session.algorithms.rerun_experiment_detailed("s/exp00002")
        db = session.db
        assert stored_columns(db, "s") == recomputed_columns(db, "s")
        reference = db.load_experiment(reference_name("s"))
        db._conn.execute(
            "DELETE FROM LoggedSystemState WHERE experimentName = ?",
            (reference.experiment_name,),
        )
        db._conn.execute("UPDATE LoggedSystemState SET category = NULL")
        db._conn.commit()
        db.save_experiment(reference)
        assert stored_columns(db, "s") == recomputed_columns(db, "s")
        # A reference stored again with another state reclassifies.
        before = stored_columns(db, "s")
        memory = reference.state_vector["final"]["memory"]
        for address in memory:
            memory[address] ^= 1
        db.replace_experiment(reference)
        assert stored_columns(db, "s") == recomputed_columns(db, "s") != before


class TestStatsReport:
    def test_same_report_as_decoding_every_span(self, built):
        """The slowest spans come from ``ORDER BY durationSeconds DESC,
        rowid LIMIT n``; the report equals one ranked the way it was
        before, by decoding every span and sorting them stably."""
        with GoofiDatabase(built) as db:
            spans = [record.span for record in db.iter_spans("sm")]
            for slowest in (0, 3, 5, 100):
                ranked = sorted(
                    spans, key=lambda span: -span.get("duration_seconds", 0.0)
                )[:slowest]
                expected = format_stats_report(
                    "sm", db.load_campaign_telemetry("sm"),
                    spans=ranked, span_count=len(spans),
                    resources=[r.sample for r in db.iter_resource_samples("sm")],
                )
                assert stats_report(db, "sm", slowest=slowest) == expected

    def test_negative_slowest_refused(self, built):
        with GoofiDatabase(built) as db, pytest.raises(AnalysisError, match=">= 0"):
            stats_report(db, "sm", slowest=-1)

    def test_ties_keep_insertion_order(self, session):
        make_campaign(session, "t", num_experiments=4, seed=3)
        session.run_campaign("t", telemetry="metrics")
        durations = [0.5, 0.25, 0.5, 0.75, 0.25, 0.5]
        session.db.save_spans([
            SpanRecord(f"t/exp{index:05d}", "t", {
                "experiment": f"t/exp{index:05d}", "duration_seconds": seconds,
                "phases": {"execution": seconds}, "outcome": "workload_end",
            })
            for index, seconds in enumerate(durations)
        ])
        names = [
            record.experiment_name for record in session.db.slowest_spans("t", 4)
        ]
        assert names == ["t/exp00003", "t/exp00000", "t/exp00002", "t/exp00005"]
        report = stats_report(session.db, "t", slowest=4)
        assert "Slowest experiments (of 6 spans):" in report
        listed = [line.split()[0] for line in report.splitlines()[-4:]]
        assert listed == names


class TestMigration:
    def test_v6_database_gets_the_same_columns(self, built, tmp_path):
        path = tmp_path / "v6.db"
        path.write_bytes(built.read_bytes())
        before = snapshot(path)
        rewind_to_v6(path)
        assert snapshot(path) == before
        with GoofiDatabase(path) as db:
            [(version,)] = db.execute_sql("SELECT version FROM SchemaInfo")
        assert version == SCHEMA_VERSION == 7

    def test_interrupted_fill_leaves_a_usable_database(
        self, built, tmp_path, monkeypatch
    ):
        """A fill stopped midway rolls back with its step: the file stays
        at version 6, and the next open migrates it completely."""
        path = tmp_path / "interrupted.db"
        path.write_bytes(built.read_bytes())
        before = snapshot(path)
        rewind_to_v6(path)
        classify = classify_module.verdict_columns
        calls = []

        def interrupted(record, reference):
            calls.append(record.experiment_name)
            if len(calls) > 30:
                raise KeyboardInterrupt
            return classify(record, reference)

        monkeypatch.setattr(classify_module, "verdict_columns", interrupted)
        with pytest.raises(KeyboardInterrupt):
            GoofiDatabase(path)
        monkeypatch.undo()
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT version FROM SchemaInfo").fetchone() == (6,)
        columns = {row[1] for row in conn.execute("PRAGMA table_info(LoggedSystemState)")}
        assert "category" not in columns
        conn.close()
        assert snapshot(path) == before

    def test_interrupted_step_is_rolled_back(self, tmp_path, monkeypatch):
        """A step stopped after its script changed the schema used to
        leave a file no later open could migrate ("duplicate column
        name: pruned"); now the script rolls back with the step."""
        path = tmp_path / "v3.db"
        with GoofiSession(path) as session:
            make_campaign(session, "c", num_experiments=4, seed=3)
            session.run_campaign("c")
        with GoofiDatabase(path) as db:
            expected = stored_columns(db, "c")
        conn = sqlite3.connect(path)
        drop_v7_columns(conn)
        conn.execute("DROP TABLE ResourceSample")
        conn.execute("DROP TABLE CampaignHistory")
        conn.execute("ALTER TABLE LoggedSystemState DROP COLUMN pruned")
        conn.execute("UPDATE SchemaInfo SET version = 3")
        conn.commit()
        conn.close()
        monkeypatch.setitem(
            MIGRATIONS, 3, MIGRATIONS[3] + "INSERT INTO NoSuchTable VALUES (1);\n"
        )
        with pytest.raises(sqlite3.OperationalError, match="NoSuchTable"):
            GoofiDatabase(path)
        monkeypatch.undo()
        with GoofiDatabase(path) as db:
            assert stored_columns(db, "c") == expected
            assert classify_campaign(db, "c").total == 4
