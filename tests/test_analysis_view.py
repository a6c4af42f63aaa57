"""The analysis view: golden outputs, one decode per row, loud failures.

The golden fixtures under ``tests/fixtures/analysis/`` are the CLI's
bytes for one fixed campaign (thor-rd-sim, ``bubble_sort``, locations
``internal:regs.*`` and ``internal:ctrl.PC``, 60 experiments, seed
2001) and for ``goofi gate examples/packs/quickstart.yaml``.  CI
regenerates them through the CLI and ``cmp``s them against the same
files.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.conftest import make_campaign
from repro.analysis import (
    campaign_report,
    classify_campaign,
    detection_latencies,
    evaluate_gate,
    export_csv,
    export_rows,
    render_campaign_report,
)
from repro.cli.main import main
from repro.core.errors import AnalysisError
from repro.core.packs import DependabilityBounds
from repro.db import ExperimentRecord, GoofiDatabase, reference_name

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures" / "analysis"
QUICKSTART = ROOT / "examples" / "packs" / "quickstart.yaml"
CAMPAIGN = "golden"


@pytest.fixture(scope="module")
def golden_db(tmp_path_factory) -> str:
    """The fixture campaign, created and run through the CLI."""
    path = str(tmp_path_factory.mktemp("golden") / "golden.db")
    assert main([
        "campaign", "create", "--db", path, "--name", CAMPAIGN,
        "--workload", "bubble_sort",
        "--locations", "internal:regs.*,internal:ctrl.PC",
        "--experiments", "60", "--seed", "2001",
    ]) == 0
    assert main(["run", "--db", path, CAMPAIGN]) == 0
    return path


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestGoldenOutputs:
    def test_campaign_report(self, golden_db):
        with GoofiDatabase(golden_db) as db:
            assert campaign_report(db, CAMPAIGN) + "\n" == fixture("campaign_report.txt")

    def test_html_report(self, golden_db):
        with GoofiDatabase(golden_db) as db:
            assert render_campaign_report(db, CAMPAIGN) == fixture("report.html")

    def test_export_csv(self, golden_db):
        with GoofiDatabase(golden_db) as db:
            assert export_csv(db, CAMPAIGN) == fixture("export.csv")

    def test_summary_json(self, golden_db):
        with GoofiDatabase(golden_db) as db:
            summary = classify_campaign(db, CAMPAIGN).summary()
        assert json.dumps(summary, indent=2) + "\n" == fixture("summary.json")

    def test_quickstart_gate(self, tmp_path, capsys):
        db_path = str(tmp_path / "gate.db")
        assert main(["gate", "--db", db_path, str(QUICKSTART)]) == 0
        assert capsys.readouterr().out == fixture("gate_quickstart.txt")


class TestOneDecodePerRow:
    """Each entry point builds one view from the analysis columns,
    decoding only the reference row, and decodes a row's payloads only
    when it needs them: the export decodes every row once (and the
    reference once more), the report and the gate decode nothing else
    (the golden campaign's detected rows come through
    :meth:`~repro.db.GoofiDatabase.iter_experiment_facts`)."""

    @pytest.fixture
    def decodes(self, monkeypatch) -> list[str]:
        names: list[str] = []
        decode = ExperimentRecord.from_row

        def counting(row):
            names.append(row[ExperimentRecord.ROW_NAME])
            return decode(row)

        monkeypatch.setattr(ExperimentRecord, "from_row", staticmethod(counting))
        return names

    @pytest.mark.parametrize("entry", [
        campaign_report,
        render_campaign_report,
        export_rows,
        lambda db, name: evaluate_gate(
            db, name,
            DependabilityBounds(min_coverage=0.0, max_latency={"p95": 1e9, "max": 1e9}),
        ),
    ], ids=["campaign_report", "render_campaign_report", "export_rows", "evaluate_gate"])
    def test_decodes(self, golden_db, decodes, entry):
        with GoofiDatabase(golden_db) as db:
            experiments = db.count_experiments(CAMPAIGN)
            assert classify_campaign(db, CAMPAIGN).detected
            decodes.clear()
            entry(db, CAMPAIGN)
        if entry is export_rows:
            assert len(decodes) == experiments + 1
            assert decodes.count(reference_name(CAMPAIGN)) == 2
        else:
            assert decodes == [reference_name(CAMPAIGN)]


def doctor(db: GoofiDatabase, name: str, change) -> None:
    """Rewrite one stored row's state vector in place."""
    record = db.load_experiment(name)
    change(record.state_vector)
    db.replace_experiment(record)


class TestLoudFailures:
    def test_telemetry_formatter_error_reaches_caller(self, session, monkeypatch):
        from repro.analysis import telemetry_report

        make_campaign(session, "t", num_experiments=4, seed=3)
        session.run_campaign("t", telemetry="metrics")
        assert "Telemetry for campaign 't'" in campaign_report(session.db, "t")

        def broken(*args, **kwargs):
            raise RuntimeError("formatter bug")

        monkeypatch.setattr(telemetry_report, "format_stats_report", broken)
        with pytest.raises(RuntimeError, match="formatter bug"):
            campaign_report(session.db, "t")

    def test_no_telemetry_still_reports(self, session):
        make_campaign(session, "bare", num_experiments=4, seed=3)
        session.run_campaign("bare")
        assert campaign_report(session.db, "bare").startswith("Campaign 'bare'")

    def test_html_report_fails_on_malformed_row(self, session):
        make_campaign(session, "m", num_experiments=6, seed=4)
        session.run_campaign("m")
        first = next(
            record.experiment_name for record in session.db.iter_experiments("m")
            if record.experiment_name != reference_name("m")
        )
        # The writers refuse to store a malformed row...
        with pytest.raises(AnalysisError, match="malformed"):
            doctor(session.db, first, lambda state: state.pop("final"))
        # ...and a row with no stored verdict (what a migration leaves
        # of a malformed row on file) fails the report loudly.
        session.db._conn.execute(
            "UPDATE LoggedSystemState SET category = NULL WHERE experimentName = ?",
            (first,),
        )
        with pytest.raises(AnalysisError, match="malformed"):
            render_campaign_report(session.db, "m")

    def test_bad_latency_row_fails_only_latency_readers(self, golden_db, tmp_path, capsys):
        """A detection before its injection is a latency error: the
        summary (``goofi analyze --summary``) still succeeds, while the
        report's latency table and the latency statistics raise."""
        path = tmp_path / "bad.db"
        path.write_bytes(Path(golden_db).read_bytes())
        with GoofiDatabase(str(path)) as db:
            detected = next(
                verdict for verdict in classify_campaign(db, CAMPAIGN).classifications
                if verdict.category == "detected"
            )

            def early(state):
                state["termination"]["detection"]["cycle"] = 0
                state["termination"]["cycle"] = 0

            doctor(db, detected.experiment_name, early)
            view = classify_campaign(db, CAMPAIGN)
            with pytest.raises(AnalysisError, match="before its injection"):
                detection_latencies(view)
            with pytest.raises(AnalysisError, match="before its injection"):
                campaign_report(db, CAMPAIGN)
        assert main(["analyze", "--db", str(path), CAMPAIGN, "--summary"]) == 0
        assert json.loads(capsys.readouterr().out)["detected"] == 1
