"""Tests for the GOOFI database layer (paper Figure 4)."""

from __future__ import annotations

import sqlite3

import pytest

from tests.conftest import drop_v7_columns
from repro.analysis.classify import verdict_columns
from repro.db import (
    SCHEMA_VERSION,
    CampaignRecord,
    DatabaseError,
    ExperimentRecord,
    GoofiDatabase,
    TargetSystemRecord,
    reference_name,
)


@pytest.fixture
def db() -> GoofiDatabase:
    with GoofiDatabase() as database:
        yield database


def seed_target(db: GoofiDatabase, name: str = "thor") -> TargetSystemRecord:
    record = TargetSystemRecord(
        target_name=name, test_card_name="card-1", config={"chains": ["internal"]}
    )
    db.save_target(record)
    return record


def seed_campaign(db: GoofiDatabase, name: str = "c1", target: str = "thor") -> CampaignRecord:
    record = CampaignRecord(campaign_name=name, target_name=target, config={"n": 10})
    db.save_campaign(record)
    return record


def rows_of(records: list[ExperimentRecord]) -> list[tuple]:
    """Complete rows for :meth:`GoofiDatabase.save_experiment_rows`.  The
    campaigns here store no reference, so the rows carry no verdict."""
    return [record.to_row() + verdict_columns(record, None) for record in records]


def make_experiment(name: str, campaign: str = "c1", parent: str | None = None) -> ExperimentRecord:
    return ExperimentRecord(
        experiment_name=name,
        campaign_name=campaign,
        experiment_data={"faults": []},
        state_vector={"termination": {"outcome": "workload_end"}},
        parent_experiment=parent,
    )


class TestTargets:
    def test_save_and_load(self, db):
        record = seed_target(db)
        loaded = db.load_target("thor")
        assert loaded.config == record.config
        assert loaded.test_card_name == "card-1"

    def test_replace_updates(self, db):
        seed_target(db)
        db.save_target(
            TargetSystemRecord(target_name="thor", test_card_name="card-2", config={})
        )
        assert db.load_target("thor").test_card_name == "card-2"

    def test_missing_target(self, db):
        with pytest.raises(DatabaseError, match="no target system"):
            db.load_target("vax")

    def test_list_targets_sorted(self, db):
        seed_target(db, "zeta")
        seed_target(db, "alpha")
        assert db.list_targets() == ["alpha", "zeta"]


class TestCampaigns:
    def test_save_and_load(self, db):
        seed_target(db)
        seed_campaign(db)
        loaded = db.load_campaign("c1")
        assert loaded.config == {"n": 10}
        assert loaded.status == "configured"

    def test_foreign_key_to_target_enforced(self, db):
        with pytest.raises(DatabaseError, match="unknown target"):
            seed_campaign(db, target="ghost")

    def test_missing_campaign(self, db):
        with pytest.raises(DatabaseError, match="no campaign"):
            db.load_campaign("nope")

    def test_list_campaigns_filtered_by_target(self, db):
        seed_target(db, "a")
        seed_target(db, "b")
        seed_campaign(db, "c1", "a")
        seed_campaign(db, "c2", "b")
        assert db.list_campaigns() == ["c1", "c2"]
        assert db.list_campaigns("a") == ["c1"]

    def test_status_update(self, db):
        seed_target(db)
        seed_campaign(db)
        db.set_campaign_status("c1", "completed")
        assert db.load_campaign("c1").status == "completed"

    def test_status_update_missing_campaign(self, db):
        with pytest.raises(DatabaseError):
            db.set_campaign_status("nope", "x")


class TestExperiments:
    def test_save_and_load(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/exp0"))
        loaded = db.load_experiment("c1/exp0")
        assert loaded.state_vector["termination"]["outcome"] == "workload_end"

    def test_foreign_key_to_campaign_enforced(self, db):
        seed_target(db)
        with pytest.raises(DatabaseError):
            db.save_experiment(make_experiment("x/exp0", campaign="ghost"))

    def test_duplicate_name_rejected(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/exp0"))
        with pytest.raises(DatabaseError, match="constraint"):
            db.save_experiment(make_experiment("c1/exp0"))

    def test_parent_experiment_foreign_key(self, db):
        seed_target(db)
        seed_campaign(db)
        with pytest.raises(DatabaseError):
            db.save_experiment(make_experiment("c1/exp1", parent="c1/ghost"))

    def test_parent_link_and_children(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/exp0"))
        db.save_experiment(make_experiment("c1/exp0/detail", parent="c1/exp0"))
        children = db.children_of("c1/exp0")
        assert [c.experiment_name for c in children] == ["c1/exp0/detail"]
        assert children[0].parent_experiment == "c1/exp0"

    def test_batch_insert_and_count(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment_rows(rows_of([make_experiment(f"c1/exp{i}") for i in range(10)]))
        assert db.count_experiments("c1") == 10

    def test_batch_insert_is_atomic(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/exp0"))
        batch = [make_experiment("c1/exp1"), make_experiment("c1/exp0")]  # dup
        with pytest.raises(DatabaseError):
            db.save_experiment_rows(rows_of(batch))
        assert db.count_experiments("c1") == 1  # exp1 rolled back

    def test_iter_preserves_insertion_order(self, db):
        seed_target(db)
        seed_campaign(db)
        names = [f"c1/exp{i}" for i in (3, 1, 2)]
        for name in names:
            db.save_experiment(make_experiment(name))
        assert [r.experiment_name for r in db.iter_experiments("c1")] == names

    def test_delete_campaign_cascades(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/exp0"))
        db.delete_campaign("c1")
        assert db.count_experiments("c1") == 0
        with pytest.raises(DatabaseError):
            db.load_campaign("c1")


class TestRawSql:
    def test_select_allowed(self, db):
        seed_target(db)
        rows = db.execute_sql("SELECT targetName FROM TargetSystemData")
        assert rows == [("thor",)]

    def test_non_select_rejected(self, db):
        with pytest.raises(DatabaseError, match="SELECT"):
            db.execute_sql("DELETE FROM TargetSystemData")

    def test_json_extraction_works(self, db):
        """The generated analysis scripts rely on SQLite's JSON1."""
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/exp0"))
        rows = db.execute_sql(
            "SELECT json_extract(stateVector, '$.termination.outcome') "
            "FROM LoggedSystemState"
        )
        assert rows == [("workload_end",)]


class TestPersistence:
    def test_database_survives_reopen(self, tmp_path):
        path = tmp_path / "goofi.db"
        with GoofiDatabase(path) as db:
            seed_target(db)
            seed_campaign(db)
            db.save_experiment(make_experiment("c1/exp0"))
        with GoofiDatabase(path) as db:
            assert db.count_experiments("c1") == 1
            assert db.list_targets() == ["thor"]

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "goofi.db"
        GoofiDatabase(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE SchemaInfo SET version = 999")
        conn.commit()
        conn.close()
        with pytest.raises(DatabaseError, match="schema version"):
            GoofiDatabase(path)

    def test_reference_name_helper(self):
        assert reference_name("camp") == "camp/__reference__"

    def test_migrates_v3_database_in_place(self, tmp_path):
        """A v3 database (no ``pruned`` column) opens cleanly: the v4
        migration adds the column and existing rows default to 0."""
        path = tmp_path / "goofi.db"
        with GoofiDatabase(path) as db:
            seed_target(db)
            seed_campaign(db)
            db.save_experiment(make_experiment("c1/exp0"))
        # Rewind the file to the v3 shape.
        conn = sqlite3.connect(path)
        drop_v7_columns(conn)
        conn.execute("ALTER TABLE LoggedSystemState DROP COLUMN pruned")
        conn.execute("UPDATE SchemaInfo SET version = 3")
        conn.commit()
        conn.close()
        with GoofiDatabase(path) as db:
            loaded = db.load_experiment("c1/exp0")
            assert loaded.pruned is False
            pruned = make_experiment("c1/exp1")
            pruned.pruned = True
            db.save_experiment(pruned)
            assert db.load_experiment("c1/exp1").pruned is True
        conn = sqlite3.connect(path)
        assert (
            conn.execute("SELECT version FROM SchemaInfo").fetchone()[0]
            == SCHEMA_VERSION
        )
        conn.close()

    def test_full_chain_migration_v1_to_current(self, tmp_path):
        """A v1 database (the paper's three tables only) walks the whole
        migration chain in one ``connect``: every intermediate table and
        column lands, and the v1 data keeps its meaning."""
        from repro.db import HistoryRecord, ResourceSampleRecord, SpanRecord
        from repro.db.models import ProbeRecord

        path = tmp_path / "goofi.db"
        with GoofiDatabase(path) as db:
            seed_target(db)
            seed_campaign(db)
            db.save_experiment(make_experiment("c1/exp0"))
        # Rewind the file to the v1 shape: drop everything the
        # migrations added, newest addition first.
        conn = sqlite3.connect(path)
        drop_v7_columns(conn)
        for table in (
            "ResourceSample",     # v6
            "CampaignHistory",    # v5
            "PropagationProbe",   # v3
            "ExperimentSpan",     # v2
            "CampaignTelemetry",  # v2
        ):
            conn.execute(f"DROP TABLE {table}")
        conn.execute("ALTER TABLE LoggedSystemState DROP COLUMN pruned")  # v4
        conn.execute("UPDATE SchemaInfo SET version = 1")
        conn.commit()
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert not tables & {
            "CampaignTelemetry", "ExperimentSpan", "PropagationProbe",
            "CampaignHistory", "ResourceSample",
        }
        conn.close()

        with GoofiDatabase(path) as db:
            # v1 data survived, and the v4 column landed with its default.
            assert db.load_experiment("c1/exp0").pruned is False
            # Every versioned table is present *and usable* end to end.
            db.save_campaign_telemetry("c1", {"counters": {"experiments": 1}})
            assert db.load_campaign_telemetry("c1") == {
                "counters": {"experiments": 1}
            }
            db.save_spans([SpanRecord("c1/exp0", "c1", {"phases": {}})])
            assert db.count_spans("c1") == 1
            db.save_probes([ProbeRecord("c1/exp0", "c1", {"probes": 0})])
            assert db.count_probes("c1") == 1
            db.save_history(HistoryRecord("c1", {"coverage": None}))
            assert db.count_history("c1") == 1
            db.save_resource_samples(
                [ResourceSampleRecord("c1", {"rss_bytes": 1}, worker=2)]
            )
            samples = list(db.iter_resource_samples("c1"))
            assert len(samples) == 1
            assert samples[0].worker == 2

        conn = sqlite3.connect(path)
        assert (
            conn.execute("SELECT version FROM SchemaInfo").fetchone()[0]
            == SCHEMA_VERSION
        )
        columns = {
            row[1]
            for row in conn.execute("PRAGMA table_info(LoggedSystemState)")
        }
        assert "pruned" in columns
        conn.close()


class TestReplaceAndBulkDelete:
    def test_replace_experiment_overwrites(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/ref"))
        replacement = make_experiment("c1/ref")
        replacement.state_vector = {"termination": {"outcome": "timeout"}}
        db.replace_experiment(replacement)
        assert db.count_experiments("c1") == 1
        loaded = db.load_experiment("c1/ref")
        assert loaded.state_vector["termination"]["outcome"] == "timeout"

    def test_replace_experiment_inserts_when_missing(self, db):
        seed_target(db)
        seed_campaign(db)
        db.replace_experiment(make_experiment("c1/new"))
        assert db.count_experiments("c1") == 1

    def test_replace_still_enforces_campaign_fk(self, db):
        seed_target(db)
        with pytest.raises(DatabaseError):
            db.replace_experiment(make_experiment("x", campaign="ghost"))

    def test_delete_campaign_experiments_keeps_campaign_row(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment_rows(rows_of([make_experiment(f"c1/e{i}") for i in range(4)]))
        removed = db.delete_campaign_experiments("c1")
        assert removed == 4
        assert db.count_experiments("c1") == 0
        assert db.load_campaign("c1").campaign_name == "c1"

    def test_delete_campaign_experiments_on_empty_campaign(self, db):
        seed_target(db)
        seed_campaign(db)
        assert db.delete_campaign_experiments("c1") == 0


class TestUpsertsKeepForeignKeys:
    """Regression: ``INSERT OR REPLACE`` deletes-and-reinserts the row,
    so updating a record that other rows reference blew up on the
    foreign keys.  The save methods are real upserts now."""

    def test_update_target_referenced_by_campaign(self, db):
        seed_target(db)
        seed_campaign(db)  # references target "thor"
        db.save_target(
            TargetSystemRecord(
                target_name="thor", test_card_name="card-2", config={"rev": 2}
            )
        )
        assert db.load_target("thor").config == {"rev": 2}
        assert db.load_campaign("c1").target_name == "thor"

    def test_update_campaign_referenced_by_experiments(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/exp0"))
        db.save_campaign(
            CampaignRecord(campaign_name="c1", target_name="thor", config={"n": 20})
        )
        assert db.load_campaign("c1").config == {"n": 20}
        assert db.count_experiments("c1") == 1

    def test_replace_experiment_with_detail_children(self, db):
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/exp0"))
        db.save_experiment(make_experiment("c1/exp0/detail", parent="c1/exp0"))
        updated = make_experiment("c1/exp0")
        updated.state_vector = {"termination": {"outcome": "timeout"}}
        db.replace_experiment(updated)
        assert (
            db.load_experiment("c1/exp0").state_vector["termination"]["outcome"]
            == "timeout"
        )
        assert [r.experiment_name for r in db.children_of("c1/exp0")] == [
            "c1/exp0/detail"
        ]

    def test_campaign_upsert_still_checks_target_fk(self, db):
        with pytest.raises(DatabaseError, match="unknown target"):
            seed_campaign(db, target="no-such-target")

    def test_replace_experiment_preserves_insertion_order(self, db):
        """``INSERT OR REPLACE`` deletes-and-reinserts, giving the row a
        new rowid and moving it to the end of ``iter_experiments``'
        insertion order; the upsert keeps the reference run first."""
        seed_target(db)
        seed_campaign(db)
        db.save_experiment(make_experiment("c1/ref"))
        db.save_experiment(make_experiment("c1/exp0"))
        db.replace_experiment(make_experiment("c1/ref"))
        assert [r.experiment_name for r in db.iter_experiments("c1")] == [
            "c1/ref",
            "c1/exp0",
        ]


class TestRawSqlCtes:
    """Regression: CTE analysis queries (``WITH ... SELECT``) and
    queries behind leading SQL comments were refused; writes must still
    be blocked, even smuggled behind a CTE."""

    def test_with_cte_allowed(self, db):
        seed_target(db)
        rows = db.execute_sql(
            "WITH t AS (SELECT targetName FROM TargetSystemData) SELECT * FROM t"
        )
        assert rows == [("thor",)]

    def test_leading_comments_allowed(self, db):
        seed_target(db)
        rows = db.execute_sql(
            "-- count the targets\n/* block\ncomment */ SELECT COUNT(*) "
            "FROM TargetSystemData"
        )
        assert rows == [(1,)]

    def test_commented_write_still_rejected(self, db):
        seed_target(db)
        with pytest.raises(DatabaseError, match="SELECT"):
            db.execute_sql("-- harmless\nDELETE FROM TargetSystemData")
        assert db.list_targets() == ["thor"]

    def test_cte_write_still_rejected(self, db):
        seed_target(db)
        with pytest.raises(DatabaseError):
            db.execute_sql(
                "WITH t AS (SELECT 1) DELETE FROM TargetSystemData"
            )
        assert db.list_targets() == ["thor"]

    def test_comment_only_input_rejected(self, db):
        with pytest.raises(DatabaseError, match="SELECT"):
            db.execute_sql("-- nothing here")

    def test_writes_possible_again_afterwards(self, db):
        """The ``query_only`` guard must be scoped to the one query."""
        seed_target(db)
        db.execute_sql("SELECT 1")
        seed_campaign(db)
        assert db.list_campaigns() == ["c1"]
