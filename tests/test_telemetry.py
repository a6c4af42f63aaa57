"""Campaign telemetry: registry semantics, span records, persistence,
aggregation across workers, and the non-perturbation guarantee.

The load-bearing property throughout: telemetry measures a run without
changing it.  Logged rows must be bit-identical across ``off`` /
``metrics`` / ``spans`` and across serial / parallel / checkpointed
engines, and the deterministic counters (experiments, injections,
instructions) must aggregate to identical totals for any worker count.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from tests.conftest import drop_v7_columns, make_campaign
from repro import CampaignConfig, GoofiSession, ObservationSpec, Termination
from repro.analysis import format_stats_report, stats_report, throughput_summary
from repro.cli.main import main as cli_main
from repro.core import NULL_TELEMETRY, MetricsRegistry, Telemetry, resolve_telemetry
from repro.core.errors import ConfigurationError
from repro.cli.watch import ProgressTicker
from repro.core.events import EventBus
from repro.core.progress import ProgressReporter, format_duration
from repro.core.telemetry import NULL_SPAN, ExperimentSpan, Histogram, MetricsSpan
from repro.db import DatabaseError, GoofiDatabase
from repro.db.schema import SCHEMA_VERSION


def rows_by_name(db, campaign: str) -> dict:
    """Logged rows keyed by campaign-relative name, stripped of
    ``createdAt`` and insertion order."""
    return {
        record.experiment_name.split("/", 1)[1]: (
            record.experiment_data,
            record.state_vector,
            record.parent_experiment,
        )
        for record in db.iter_experiments(campaign)
    }


DETERMINISTIC_COUNTERS = ("experiments", "injections", "instructions")


def setup_stack_campaign(session: GoofiSession, name: str, **overrides):
    """A small SCIFI campaign on the stack-machine target."""
    session.target.init_test_card()
    session.target.load_workload("s_checksum")
    data = session.target.location_space().region("data")
    config = CampaignConfig(
        name=name,
        target="thor-sm",
        technique="scifi",
        workload="s_checksum",
        location_patterns=("internal:ctrl.DSP", "internal:ctrl.PC"),
        num_experiments=overrides.pop("num_experiments", 12),
        termination=Termination(max_cycles=5_000),
        observation=ObservationSpec(
            scan_elements=("internal:ctrl.DSP",),
            memory_ranges=((data.base, data.words),),
        ),
        seed=overrides.pop("seed", 9),
        **overrides,
    )
    session.setup_campaign(config)
    return config


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_timers(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("g", 7)
        registry.add_time("t", 0.5)
        registry.add_time("t", 1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a"] == 5
        assert snapshot["gauges"]["g"] == 7
        assert snapshot["timers"]["t"] == {"seconds": 2.0, "count": 2}

    def test_time_context_accumulates(self):
        registry = MetricsRegistry()
        with registry.time("phase.x"):
            pass
        with registry.time("phase.x"):
            pass
        stat = registry.snapshot()["timers"]["phase.x"]
        assert stat["count"] == 2
        assert stat["seconds"] >= 0

    def test_histogram_buckets(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 5.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]
        assert histogram.total == 4

    def test_histogram_merge_rejects_other_bounds(self):
        histogram = Histogram(bounds=(1.0,))
        with pytest.raises(ConfigurationError, match="bucket bounds"):
            histogram.merge({"bounds": [2.0], "counts": [1, 0]})

    def test_merge_is_additive_for_deterministic_kinds(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for registry, n in ((left, 3), (right, 5)):
            registry.inc("experiments", n)
            registry.add_time("t", float(n))
            registry.observe("h", 0.01)
            registry.set_gauge("workers", n)
        left.merge(right.snapshot())
        snapshot = left.snapshot()
        assert snapshot["counters"]["experiments"] == 8
        assert snapshot["timers"]["t"] == {"seconds": 8.0, "count": 2}
        assert sum(snapshot["histograms"]["h"]["counts"]) == 2
        # Gauges keep the maximum (high-water merge).
        assert snapshot["gauges"]["workers"] == 5

    def test_merge_into_empty_registry_reproduces_snapshot(self):
        source = MetricsRegistry()
        source.inc("c", 2)
        source.add_time("t", 1.25)
        source.observe("h", 0.5)
        source.set_gauge("g", 3)
        empty = MetricsRegistry()
        empty.merge(source.snapshot())
        assert empty.snapshot() == source.snapshot()


class TestTelemetryHandle:
    def test_modes_and_span_types(self):
        assert Telemetry("off").span("x") is NULL_SPAN
        assert isinstance(Telemetry("metrics").span("x"), MetricsSpan)
        assert isinstance(Telemetry("spans").span("x"), ExperimentSpan)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="telemetry mode"):
            Telemetry("verbose")

    def test_resolve_semantics(self):
        assert resolve_telemetry(None) is NULL_TELEMETRY
        assert resolve_telemetry(False) is NULL_TELEMETRY
        assert resolve_telemetry(True).mode == "metrics"
        assert resolve_telemetry("spans").mode == "spans"
        handle = Telemetry("metrics")
        assert resolve_telemetry(handle) is handle
        assert resolve_telemetry("off") is NULL_TELEMETRY
        with pytest.raises(ConfigurationError):
            resolve_telemetry(3.14)

    def test_null_telemetry_shares_noop_objects(self):
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
        assert NULL_TELEMETRY.time("a") is NULL_TELEMETRY.time("b")
        NULL_SPAN.add("whatever")
        NULL_SPAN.finish("outcome")
        with NULL_SPAN.phase("x"):
            pass
        assert NULL_TELEMETRY.metrics.snapshot()["counters"] == {}

    def test_experiment_span_builds_record(self):
        telemetry = Telemetry("spans")
        span = telemetry.span("exp1")
        with span.phase("execution"):
            pass
        span.add("injections")
        span.add("instructions", 120)
        span.finish("workload_end")
        (record,) = telemetry.drain_spans()
        assert record["experiment"] == "exp1"
        assert record["outcome"] == "workload_end"
        assert set(record["phases"]) == {"execution"}
        assert record["counters"] == {"injections": 1, "instructions": 120}
        assert telemetry.drain_spans() == []
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"]["experiments"] == 1
        assert snapshot["counters"]["injections"] == 1


# ----------------------------------------------------------------------
# Non-perturbation: rows identical in every mode and engine
# ----------------------------------------------------------------------
class TestRowsUnperturbed:
    def test_thor_rows_identical_across_modes_and_engines(self, session):
        make_campaign(session, "base", num_experiments=10)
        session.run_campaign("base")
        expected = rows_by_name(session.db, "base")
        for kwargs in (
            {"telemetry": "metrics"},
            {"telemetry": "spans"},
            {"telemetry": "spans", "workers": 2},
            {"telemetry": "spans", "checkpoints": True},
        ):
            session.run_campaign("base", **kwargs)
            assert rows_by_name(session.db, "base") == expected, kwargs

    def test_stack_rows_identical_with_spans(self):
        with GoofiSession(target_name="thor-sm") as session:
            setup_stack_campaign(session, "sm")
            session.run_campaign("sm")
            expected = rows_by_name(session.db, "sm")
            session.run_campaign("sm", telemetry="spans")
            assert rows_by_name(session.db, "sm") == expected
            session.run_campaign("sm", telemetry="spans", checkpoints=True)
            assert rows_by_name(session.db, "sm") == expected


# ----------------------------------------------------------------------
# Aggregation: serial == parallel for deterministic counters
# ----------------------------------------------------------------------
class TestAggregation:
    def test_parallel_counters_match_serial_thor(self, session):
        make_campaign(session, "agg", num_experiments=12)
        serial = session.run_campaign("agg", telemetry=True).telemetry
        parallel = session.run_campaign("agg", workers=3, telemetry=True).telemetry
        for counter in DETERMINISTIC_COUNTERS:
            assert serial["counters"][counter] == parallel["counters"][counter]
        assert parallel["gauges"]["workers"] == 3
        assert serial["gauges"]["workers"] == 1

    def test_parallel_counters_match_serial_stack(self):
        with GoofiSession(target_name="thor-sm") as session:
            setup_stack_campaign(session, "aggsm", num_experiments=10)
            serial = session.run_campaign("aggsm", telemetry=True).telemetry
            parallel = session.run_campaign(
                "aggsm", workers=2, telemetry=True
            ).telemetry
            for counter in DETERMINISTIC_COUNTERS:
                assert serial["counters"][counter] == parallel["counters"][counter]

    def test_span_counters_sum_to_registry_totals(self, session):
        make_campaign(session, "sums", num_experiments=8)
        result = session.run_campaign("sums", telemetry="spans")
        spans = [record.span for record in session.db.iter_spans("sums")]
        assert len(spans) == 8
        for counter in ("injections", "instructions"):
            assert result.telemetry["counters"][counter] == sum(
                span["counters"].get(counter, 0) for span in spans
            )

    def test_checkpoint_counters_recorded(self, session):
        make_campaign(session, "ckpt", num_experiments=10)
        snapshot = session.run_campaign(
            "ckpt", checkpoints=True, telemetry=True
        ).telemetry
        counters = snapshot["counters"]
        assert counters["checkpoint.restores"] > 0
        assert (
            counters["checkpoint.restores"]
            == counters["checkpoint.cache.restores"]
        )
        assert counters["checkpoint.cache.saves"] == counters["checkpoint.saves"]


# ----------------------------------------------------------------------
# execution_stats consistency (serial / parallel / checkpointed)
# ----------------------------------------------------------------------
class TestExecutionStats:
    def assert_engine_counters(self, snapshot):
        counters = snapshot["counters"]
        assert counters.get("engine.fast_segments", 0) > 0
        # engine.cycles is deliberately not folded in: execution_stats'
        # "cycles" is the last experiment's current cycle, not a total.
        assert "engine.cycles" not in counters
        # The reference-trace recording always runs observed.
        assert counters.get("engine.ref_segments", 0) > 0

    def test_interface_shape(self, session):
        make_campaign(session, "shape", num_experiments=4)
        session.run_campaign("shape")
        stats = session.target.execution_stats()
        assert set(stats) == {"fast_segments", "ref_segments", "cycles"}
        assert stats["fast_segments"] > 0
        assert stats["cycles"] > 0

    def test_engine_counters_thor_all_engines(self, session):
        make_campaign(session, "eng", num_experiments=8)
        for kwargs in ({}, {"workers": 2}, {"checkpoints": True}):
            snapshot = session.run_campaign(
                "eng", telemetry=True, **kwargs
            ).telemetry
            self.assert_engine_counters(snapshot)

    def test_engine_counters_stack_all_engines(self):
        with GoofiSession(target_name="thor-sm") as session:
            setup_stack_campaign(session, "engsm", num_experiments=8)
            for kwargs in ({}, {"workers": 2}, {"checkpoints": True}):
                snapshot = session.run_campaign(
                    "engsm", telemetry=True, **kwargs
                ).telemetry
                self.assert_engine_counters(snapshot)

    def test_no_fast_uses_reference_engine_only(self, session):
        make_campaign(session, "slow", num_experiments=4)
        snapshot = session.run_campaign(
            "slow", fast=False, telemetry=True
        ).telemetry
        assert snapshot["counters"].get("engine.fast_segments", 0) == 0
        assert snapshot["counters"]["engine.ref_segments"] > 0


# ----------------------------------------------------------------------
# Persistence: DB tables, migration, JSONL sink
# ----------------------------------------------------------------------
class TestPersistence:
    def test_snapshot_saved_and_loaded(self, session):
        make_campaign(session, "persist", num_experiments=5)
        result = session.run_campaign("persist", telemetry=True)
        assert session.db.load_campaign_telemetry("persist") == result.telemetry

    def test_missing_snapshot_errors_with_hint(self, session):
        make_campaign(session, "bare", num_experiments=3)
        session.run_campaign("bare")
        with pytest.raises(DatabaseError, match="--telemetry"):
            session.db.load_campaign_telemetry("bare")

    def test_spans_persisted_and_replaced(self, session):
        make_campaign(session, "sp", num_experiments=6)
        session.run_campaign("sp", telemetry="spans")
        assert session.db.count_spans("sp") == 6
        for record in session.db.iter_spans("sp"):
            assert record.campaign_name == "sp"
            assert record.span["experiment"] == record.experiment_name
            assert record.span["phases"]
            assert record.span["outcome"]
        # Metrics-only re-run leaves no stale span rows behind.
        session.run_campaign("sp", telemetry="metrics")
        assert session.db.count_spans("sp") == 0

    def test_delete_campaign_removes_telemetry(self, session):
        make_campaign(session, "gone", num_experiments=4)
        session.run_campaign("gone", telemetry="spans")
        session.db.delete_campaign("gone")
        assert session.db.count_spans("gone") == 0
        with pytest.raises(DatabaseError):
            session.db.load_campaign_telemetry("gone")

    def test_jsonl_sink(self, session, tmp_path):
        """Spans and the final snapshot stream on the event bus: the
        ``metrics`` record comes once, after the last experiment record
        and right before the terminal one, and matches what the
        database stored."""
        jsonl = tmp_path / "tele.jsonl"
        make_campaign(session, "sink", num_experiments=5)
        result = session.run_campaign("sink", telemetry="spans", events=str(jsonl))
        lines = [
            json.loads(line) for line in jsonl.read_text().splitlines() if line
        ]
        kinds = [line["kind"] for line in lines]
        assert kinds.count("span") == 5
        assert kinds.count("metrics") == 1
        assert kinds[-2:] == ["metrics", "campaign_finished"]
        metrics = lines[-2]
        assert metrics["campaign"] == "sink"
        assert metrics["snapshot"]["counters"]["experiments"] == 5
        assert metrics["snapshot"] == result.telemetry
        assert metrics["snapshot"] == session.db.load_campaign_telemetry("sink")

    def test_jsonl_parseable_after_abort(self, session, tmp_path):
        """The flush-per-record contract: an aborted run's event file
        holds one complete, parseable line per span already finished —
        no buffered tail is lost, no partial line is left behind — and
        the ``metrics`` record still precedes ``campaign_aborted``."""
        jsonl = tmp_path / "tele.jsonl"
        make_campaign(session, "ab", num_experiments=12, seed=55)

        def abort_early(event):
            if event.completed >= 4:
                session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            result = session.run_campaign(
                "ab", telemetry="spans", events=str(jsonl)
            )
        finally:
            session.progress.observers.remove(abort_early)
        assert result.aborted
        lines = [
            json.loads(line)
            for line in jsonl.read_text().splitlines()
            if line
        ]
        spans = [line["span"] for line in lines if line["kind"] == "span"]
        assert len(spans) == result.experiments_run
        assert all(span["experiment"].startswith("ab/") for span in spans)
        assert [line["kind"] for line in lines[-2:]] == [
            "metrics", "campaign_aborted",
        ]

    def test_reader_skips_truncated_final_line(self, tmp_path, caplog):
        """A writer killed mid-line (power cut, SIGKILL) must not make
        the file unreadable: the shared JSONL reader drops the
        undecodable tail with a warning and yields the rest."""
        from repro.core.events import iter_jsonl

        jsonl = tmp_path / "tele.jsonl"
        jsonl.write_text(
            '{"kind": "span", "experiment": "c/exp0", "phases": {}}\n'
            '{"kind": "span", "experiment": "c/e'  # killed mid-write
        )
        with caplog.at_level("WARNING"):
            records = list(iter_jsonl(jsonl))
        assert [r["experiment"] for r in records] == ["c/exp0"]
        assert "truncated" in caplog.text

    def test_v1_database_migrates_in_place(self, tmp_path):
        path = tmp_path / "old.db"
        GoofiDatabase(path).close()
        # Rewind the file to the pre-telemetry v1 schema.
        connection = sqlite3.connect(path)
        drop_v7_columns(connection)
        connection.executescript(
            """
            DROP TABLE ExperimentSpan;
            DROP TABLE CampaignTelemetry;
            DROP INDEX idx_probe_campaign;
            DROP TABLE PropagationProbe;
            ALTER TABLE LoggedSystemState DROP COLUMN pruned;
            UPDATE SchemaInfo SET version = 1;
            """
        )
        connection.commit()
        connection.close()
        db = GoofiDatabase(path)
        try:
            version = db._conn.execute(
                "SELECT version FROM SchemaInfo"
            ).fetchone()[0]
            assert version == SCHEMA_VERSION
            assert db.count_spans("anything") == 0
        finally:
            db.close()


# ----------------------------------------------------------------------
# Progress: rolling rate and ETA
# ----------------------------------------------------------------------
class TestProgressRate:
    def test_rate_and_eta_populate(self):
        events = []
        reporter = ProgressReporter(observers=[events.append])
        reporter.start("c", 10)
        for index in range(3):
            reporter.experiment_done(f"e{index}", "workload_end")
        assert events[0].rate == 0.0
        assert events[0].eta_seconds is None
        assert events[-1].rate > 0
        assert events[-1].eta_seconds is not None
        assert events[-1].eta_seconds >= 0

    def test_rate_resets_between_campaigns(self):
        events = []
        reporter = ProgressReporter(observers=[events.append])
        for campaign in ("a", "b"):
            reporter.start(campaign, 2)
            reporter.experiment_done("e0", "ok")
        assert events[-1].rate == 0.0

    def test_progress_ticker_shows_rate_and_eta(self, capsys):
        bus = EventBus([ProgressTicker()])
        reporter = ProgressReporter()
        reporter.start("c", 100)
        bus.emit("campaign_started", campaign="c", total=100, workers=1)
        for index in range(50):
            bus.experiment_finished(
                reporter.experiment_done(f"e{index}", "workload_end")
            )
        err = capsys.readouterr().err
        assert " exp/s" in err
        assert "ETA " in err

    def test_format_duration(self):
        assert format_duration(0.5) == "0.5s"
        assert format_duration(42) == "42s"
        assert format_duration(91) == "1m31s"
        assert format_duration(3700) == "1h01m"


# ----------------------------------------------------------------------
# Surfaces: stats report and CLI
# ----------------------------------------------------------------------
class TestStatsSurface:
    def test_stats_report_sections(self, session):
        make_campaign(session, "rep", num_experiments=8)
        session.run_campaign("rep", telemetry="spans", checkpoints=True)
        report = stats_report(session.db, "rep")
        for needle in (
            "Phase-time breakdown",
            "Throughput:",
            "experiments/s",
            "fast-path segments",
            "restored prefixes",
            "rows written",
            "Slowest experiments",
        ):
            assert needle in report
        assert session.stats("rep") == report

    def test_format_stats_report_minimal_snapshot(self):
        text = format_stats_report("x", {"counters": {"experiments": 3}})
        assert "experiments" in text

    def test_throughput_summary(self, session):
        make_campaign(session, "thr", num_experiments=5)
        snapshot = session.run_campaign("thr", telemetry=True).telemetry
        summary = throughput_summary(snapshot)
        assert summary["experiments"] == 5
        assert summary["instructions"] > 0
        assert summary["experiments_per_second"] > 0

    def test_campaign_report_appends_telemetry_section(self, session):
        make_campaign(session, "full", num_experiments=6)
        session.run_campaign("full")
        assert "Telemetry" not in session.report("full")
        session.run_campaign("full", telemetry=True)
        assert "Telemetry for campaign 'full'" in session.report("full")

    def test_cli_run_telemetry_then_stats(self, tmp_path, capsys):
        db = str(tmp_path / "cli.db")
        assert (
            cli_main(
                [
                    "campaign",
                    "create",
                    "--db",
                    db,
                    "--name",
                    "c",
                    "--workload",
                    "fibonacci",
                    "--experiments",
                    "6",
                ]
            )
            == 0
        )
        assert cli_main(["run", "c", "--db", db, "--quiet", "--telemetry=spans"]) == 0
        assert "goofi stats c" in capsys.readouterr().out
        assert cli_main(["stats", "c", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "Phase-time breakdown" in out
        assert "Slowest experiments" in out
        assert cli_main(["stats", "c", "--db", db, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["experiments"] == 6

    def test_cli_stats_json_schema_is_pinned(self, tmp_path, capsys):
        """``goofi stats --json`` is a machine interface (CI trend
        scripts parse it): pin the top-level key set and value types so
        a refactor cannot silently rename or retype them."""
        db = str(tmp_path / "pin.db")
        assert cli_main([
            "campaign", "create", "--db", db, "--name", "c",
            "--workload", "fibonacci", "--experiments", "4",
        ]) == 0
        assert cli_main(["run", "c", "--db", db, "--quiet",
                         "--telemetry=spans"]) == 0
        capsys.readouterr()
        assert cli_main(["stats", "c", "--db", db, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)

        assert set(snapshot) == {"counters", "gauges", "histograms", "timers"}
        assert all(
            isinstance(value, int) for value in snapshot["counters"].values()
        )
        assert all(
            isinstance(value, (int, float))
            for value in snapshot["gauges"].values()
        )
        for name, histogram in snapshot["histograms"].items():
            assert set(histogram) == {"bounds", "counts"}, name
            assert len(histogram["counts"]) == len(histogram["bounds"]) + 1
        for name, timer in snapshot["timers"].items():
            assert set(timer) == {"count", "seconds"}, name
            assert isinstance(timer["count"], int)
            assert isinstance(timer["seconds"], float)
        # The keys trend tracking and the stats report read must exist.
        assert "experiments" in snapshot["counters"]
        assert "elapsed_seconds" in snapshot["gauges"]
        assert any(name.startswith("phase.") for name in snapshot["timers"])

    def test_cli_stats_without_telemetry_errors(self, tmp_path, capsys):
        db = str(tmp_path / "cli2.db")
        cli_main(
            [
                "campaign",
                "create",
                "--db",
                db,
                "--name",
                "c",
                "--workload",
                "fibonacci",
                "--experiments",
                "3",
            ]
        )
        capsys.readouterr()
        cli_main(["run", "c", "--db", db, "--quiet"])
        assert cli_main(["stats", "c", "--db", db]) == 1
        assert "--telemetry" in capsys.readouterr().err

    def test_cli_verbosity_flag_sets_levels(self, tmp_path, capsys):
        import logging

        db = str(tmp_path / "cli3.db")
        assert cli_main(["-v", "target", "list"]) == 0
        assert logging.getLogger("repro").level == logging.INFO
        assert cli_main(["-q", "target", "list"]) == 0
        assert logging.getLogger("repro").level == logging.ERROR
        # Re-invocation replaces the CLI handler instead of stacking.
        handlers = [
            h
            for h in logging.getLogger("repro").handlers
            if getattr(h, "_repro_cli", False)
        ]
        assert len(handlers) == 1
        del db
