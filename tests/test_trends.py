"""Tests for cross-run dependability trend tracking.

The contracts under test: every gated run appends a compact summary to
``CampaignHistory`` (schema v5, migrated in place from v4), the trend
rules are direction-aware and conservative (improvements never fail,
missing data skips checks), and ``goofi gate --trend`` distinguishes
pass (0), regression (2), and operational error (1).
"""

from __future__ import annotations

import sqlite3

import pytest

from tests.conftest import drop_v7_columns, make_campaign
from repro.analysis import (
    evaluate_trend,
    format_history,
    format_trend_report,
    record_run,
    run_summary,
    trend_against_history,
)
from repro.core.errors import AnalysisError
from repro.db import SCHEMA_VERSION, GoofiDatabase, HistoryRecord


def summary(
    coverage=0.8,
    ci=(0.6, 0.95),
    p95=5000.0,
    eps=100.0,
    phases=None,
    campaign="c",
) -> dict:
    """A hand-rolled run summary with the fields the trend rules read."""
    return {
        "campaign": campaign,
        "pack": None,
        "coverage": {
            "successes": 8,
            "trials": 10,
            "estimate": coverage,
            "ci_low": ci[0],
            "ci_high": ci[1],
        },
        "latency": {"count": 8, "p95": p95},
        "outcomes": {"total": 10, "detected": 8, "effective": 10},
        "throughput": (
            {"experiments_per_second": eps} if eps is not None else None
        ),
        "phases": dict(phases or {}),
    }


class TestRunSummary:
    def test_summarises_completed_campaign(self, session):
        make_campaign(session, "c", num_experiments=12, seed=21)
        session.run_campaign("c", telemetry="metrics")
        result = run_summary(session.db, "c", pack="demo")
        assert result["campaign"] == "c"
        assert result["pack"] == "demo"
        assert result["coverage"]["trials"] == result["outcomes"]["effective"]
        assert 0.0 <= result["coverage"]["ci_low"] <= result["coverage"]["ci_high"] <= 1.0
        assert result["outcomes"]["total"] == 12
        assert result["throughput"]["experiments_per_second"] > 0
        assert isinstance(result["phases"], dict)

    def test_telemetry_less_run_skips_throughput(self, session):
        make_campaign(session, "c", num_experiments=6, seed=22)
        session.run_campaign("c")
        result = run_summary(session.db, "c")
        assert result["throughput"] is None
        assert result["phases"] == {}
        # ... and the corresponding trend checks are skipped, not failed.
        trend = evaluate_trend(result, [result])
        assert trend.passed
        assert not any(c.metric == "throughput" for c in trend.checks)


class TestTrendRules:
    def test_stable_run_passes(self):
        trend = evaluate_trend(summary(), [summary(), summary()])
        assert trend.passed
        assert trend.baseline_runs == 2
        assert {c.metric for c in trend.checks} == {
            "coverage", "latency_p95", "throughput",
        }

    def test_no_baselines_raises(self):
        with pytest.raises(AnalysisError, match="baseline"):
            evaluate_trend(summary(), [])

    def test_coverage_regresses_when_ci_high_below_baseline_mean(self):
        current = summary(coverage=0.4, ci=(0.2, 0.55))
        trend = evaluate_trend(current, [summary(coverage=0.8)])
        check = next(c for c in trend.checks if c.metric == "coverage")
        assert check.regressed
        assert not trend.passed
        assert check in trend.regressions

    def test_coverage_within_ci_noise_passes(self):
        # The estimate dropped, but the CI still reaches the baseline
        # mean — sampling noise, not a regression.
        current = summary(coverage=0.7, ci=(0.5, 0.85))
        trend = evaluate_trend(current, [summary(coverage=0.8)])
        assert trend.passed

    def test_coverage_improvement_passes(self):
        trend = evaluate_trend(
            summary(coverage=0.95, ci=(0.85, 0.99)), [summary(coverage=0.8)]
        )
        assert trend.passed

    def test_latency_regresses_beyond_worst_baseline_plus_tolerance(self):
        baselines = [summary(p95=4000.0), summary(p95=5000.0)]
        assert evaluate_trend(summary(p95=6200.0), baselines).passed
        trend = evaluate_trend(summary(p95=6300.0), baselines)
        assert not trend.passed
        assert trend.regressions[0].metric == "latency_p95"

    def test_latency_improvement_passes(self):
        assert evaluate_trend(summary(p95=100.0), [summary(p95=5000.0)]).passed

    def test_throughput_regresses_below_half_the_slowest_baseline(self):
        baselines = [summary(eps=100.0), summary(eps=80.0)]
        assert evaluate_trend(summary(eps=41.0), baselines).passed
        trend = evaluate_trend(summary(eps=39.0), baselines)
        assert not trend.passed
        assert trend.regressions[0].metric == "throughput"

    def test_phase_regresses_at_double_the_worst_baseline(self):
        baselines = [summary(phases={"injection": 0.2})]
        assert evaluate_trend(
            summary(phases={"injection": 0.39}), baselines
        ).passed
        trend = evaluate_trend(summary(phases={"injection": 0.41}), baselines)
        assert not trend.passed
        assert trend.regressions[0].metric == "phase.injection"

    def test_microsecond_phases_never_flag(self):
        baselines = [summary(phases={"setup": 0.001})]
        trend = evaluate_trend(summary(phases={"setup": 0.04}), baselines)
        assert trend.passed  # 40x worse, but below the absolute floor

    def test_unknown_phase_skipped(self):
        trend = evaluate_trend(
            summary(phases={"brand_new": 9.0}), [summary(phases={})]
        )
        assert not any(c.metric == "phase.brand_new" for c in trend.checks)

    def test_missing_latency_skips_check(self):
        current = summary()
        current["latency"] = {"count": 0, "p95": None}
        trend = evaluate_trend(current, [summary()])
        assert trend.passed
        assert not any(c.metric == "latency_p95" for c in trend.checks)

    def test_to_dict_round_trips(self):
        trend = evaluate_trend(summary(p95=9999.0), [summary(p95=100.0)])
        data = trend.to_dict()
        assert data["passed"] is False
        assert any(
            c["metric"] == "latency_p95" and c["regressed"]
            for c in data["checks"]
        )


class TestHistoryStore:
    def test_round_trip_newest_first(self, session):
        db = session.db
        for index in range(3):
            record_run(db, "c", summary(coverage=0.5 + index / 10))
        assert db.count_history("c") == 3
        records = list(db.iter_history("c"))
        assert [r.summary["coverage"]["estimate"] for r in records] == [
            0.7, 0.6, 0.5,
        ]
        assert all(isinstance(r, HistoryRecord) for r in records)
        assert all(r.campaign_name == "c" for r in records)
        assert records[0].run_id > records[1].run_id > records[2].run_id

    def test_limit_takes_most_recent(self, session):
        for index in range(5):
            record_run(session.db, "c", summary(coverage=index / 10))
        recent = list(session.db.iter_history("c", limit=2))
        assert [r.summary["coverage"]["estimate"] for r in recent] == [0.4, 0.3]

    def test_history_survives_campaign_resetup(self, session):
        """History is deliberately not foreign-keyed to CampaignData:
        re-creating a campaign (the normal gate flow — every gate run
        sets the pack campaign up fresh) must keep its trend history."""
        make_campaign(session, "c", num_experiments=4, seed=23)
        record_run(session.db, "c", summary())
        session.db.delete_campaign("c")
        make_campaign(session, "c", num_experiments=4, seed=23)
        assert session.db.count_history("c") == 1

    def test_trend_against_history_none_without_baselines(self, session):
        assert trend_against_history(session.db, "c", summary()) is None

    def test_trend_against_history_uses_window(self, session):
        db = session.db
        record_run(db, "c", summary(p95=50.0))  # old, outside window
        for _ in range(5):
            record_run(db, "c", summary(p95=5000.0))
        trend = trend_against_history(db, "c", summary(p95=5500.0), window=5)
        assert trend is not None
        assert trend.baseline_runs == 5
        assert trend.passed  # the 50-cycle outlier aged out of the window

    def test_pack_recorded(self, session):
        record_run(session.db, "c", summary(), pack="quickstart")
        assert next(iter(session.db.iter_history("c"))).pack == "quickstart"


class TestMigration:
    def test_v4_database_migrates_in_place(self, tmp_path):
        """A v4 database (no ``CampaignHistory``) opens cleanly and can
        record history after the v5 migration."""
        path = tmp_path / "goofi.db"
        GoofiDatabase(path).close()
        conn = sqlite3.connect(path)
        drop_v7_columns(conn)
        conn.execute("DROP TABLE CampaignHistory")
        conn.execute("DROP INDEX IF EXISTS idx_history_campaign")
        conn.execute("UPDATE SchemaInfo SET version = 4")
        conn.commit()
        conn.close()
        with GoofiDatabase(path) as db:
            run_id = db.save_history(
                HistoryRecord(campaign_name="c", summary=summary())
            )
            assert run_id == 1
            assert db.count_history("c") == 1
        conn = sqlite3.connect(path)
        assert (
            conn.execute("SELECT version FROM SchemaInfo").fetchone()[0]
            == SCHEMA_VERSION
        )
        conn.close()


class TestReports:
    def test_trend_report_verdict_line(self):
        passing = evaluate_trend(summary(), [summary()])
        assert format_trend_report(passing).endswith("TREND PASSED")
        failing = evaluate_trend(summary(p95=99999.0), [summary(p95=100.0)])
        report = format_trend_report(failing)
        assert report.endswith("TREND REGRESSED")
        assert "latency_p95" in report

    def test_history_table_renders_missing_as_dash(self, session):
        bare = summary(eps=None)
        bare["latency"] = {"count": 0, "p95": None}
        record_run(session.db, "c", bare)
        record_run(session.db, "c", summary())
        table = format_history(session.db.iter_history("c"))
        lines = table.splitlines()
        assert lines[0].split() == ["run", "recorded", "coverage", "p95", "exp/s"]
        assert "-" in lines[2]  # the bare run renders dashes, not crashes


def write_pack(path, name="trendpack", experiments=30) -> str:
    """A small pack with bounds loose enough that the static gate
    always passes — the trend verdict alone drives the exit code."""
    pack = path / f"{name}.yaml"
    pack.write_text(
        f"""
pack: {name}
campaign:
  technique: scifi
  workload: fibonacci
  locations: [internal:regs.*, internal:icache.*, internal:dcache.*]
  fault_model: {{model: transient_bitflip}}
  seed: 42
sample_plan:
  experiments: {experiments}
bounds:
  min_coverage: 0.01
  coverage_basis: ci_low
"""
    )
    return str(pack)


class TestGateTrendCli:
    def test_first_run_baselines_then_stable_passes(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "g.db")
        pack = write_pack(tmp_path)
        assert main(["gate", "--db", db, pack, "--trend", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "first baseline" in out
        assert "recorded this run as history entry 1" in out

        assert main(["gate", "--db", db, pack, "--trend", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "TREND PASSED" in out
        assert "recorded this run as history entry 2" in out

    def test_injected_regression_exits_two(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "g.db")
        pack = write_pack(tmp_path)
        assert main(["gate", "--db", db, pack, "--trend", "--quiet"]) == 0
        capsys.readouterr()
        # Doctor the recorded baseline: pretend latency used to be far
        # better, so the (unchanged) current run reads as a regression.
        conn = sqlite3.connect(db)
        conn.execute(
            """
            UPDATE CampaignHistory
            SET summaryJson = json_set(summaryJson, '$.latency.p95', 1.0)
            """
        )
        conn.commit()
        conn.close()
        assert main(["gate", "--db", db, pack, "--trend", "--quiet"]) == 2
        out = capsys.readouterr().out
        assert "TREND REGRESSED" in out
        assert "latency_p95" in out
        # The regressed run is still recorded — the next run compares
        # against reality, not a frozen golden age.
        conn = sqlite3.connect(db)
        count = conn.execute("SELECT COUNT(*) FROM CampaignHistory").fetchone()[0]
        conn.close()
        assert count == 2

    def test_operational_error_exits_one(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "g.db")
        code = main([
            "gate", "--db", db, str(tmp_path / "missing.yaml"), "--trend",
        ])
        capsys.readouterr()
        assert code == 1

    def test_stats_history_lists_recorded_runs(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "g.db")
        pack = write_pack(tmp_path)
        assert main(["gate", "--db", db, pack, "--trend", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["stats", "--db", db, "trendpack", "--history"]) == 0
        out = capsys.readouterr().out
        assert "run" in out and "coverage" in out
        assert out.count("\n") >= 2  # header + one recorded run

    def test_stats_history_empty_message(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "g.db")
        pack = write_pack(tmp_path)
        assert main(["gate", "--db", db, pack, "--quiet"]) == 0  # no --trend
        capsys.readouterr()
        assert main(["stats", "--db", db, "trendpack", "--history"]) == 0
        assert "no recorded history" in capsys.readouterr().out
