"""Tests for the goofi command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.db import GoofiDatabase


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "goofi.db")


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestInformational:
    def test_target_list(self, capsys):
        assert run_cli("target", "list") == 0
        assert "thor-rd-sim" in capsys.readouterr().out

    def test_workloads(self, capsys):
        assert run_cli("workloads") == 0
        out = capsys.readouterr().out
        assert "bubble_sort" in out
        assert "loop" in out

    def test_target_describe(self, db_path, capsys):
        assert run_cli("target", "describe", "--db", db_path) == 0
        out = capsys.readouterr().out
        assert "sim-scan-test-card" in out
        assert "internal" in out

    def test_target_describe_json(self, db_path, capsys):
        assert run_cli("target", "describe", "--db", db_path, "--json") == 0
        config = json.loads(capsys.readouterr().out)
        assert "scan_chains" in config


class TestCampaignLifecycle:
    def create(self, db_path, name="c1", *extra):
        return run_cli(
            "campaign", "create", "--db", db_path, "--name", name,
            "--workload", "fibonacci", "--experiments", "8", "--seed", "3", *extra
        )

    def test_create_run_analyze(self, db_path, capsys):
        assert self.create(db_path) == 0
        assert run_cli("run", "--db", db_path, "c1", "--quiet") == 0
        out = capsys.readouterr().out
        assert "8/8 experiments" in out
        assert run_cli("analyze", "--db", db_path, "c1") == 0
        assert "Effective errors" in capsys.readouterr().out

    def test_second_target_create_run_report(self, db_path, tmp_path, capsys):
        """A campaign created with --target runs, re-runs and is
        reported on that target: every later command opens its session
        on the stored campaign's target."""
        assert run_cli(
            "campaign", "create", "--db", db_path, "--name", "sm",
            "--target", "thor-sm", "--workload", "s_checksum",
            "--locations", "internal:ctrl.*", "--experiments", "12", "--seed", "3",
        ) == 0
        assert run_cli("run", "--db", db_path, "sm", "--quiet") == 0
        assert "12/12 experiments" in capsys.readouterr().out
        assert run_cli("report", "--db", db_path, "sm", "--out", str(tmp_path / "r")) == 0
        assert "wrote report for campaign 'sm'" in capsys.readouterr().out
        assert run_cli("analyze", "--db", db_path, "sm", "--summary") == 0
        assert json.loads(capsys.readouterr().out)["total"] == 12
        assert run_cli("rerun", "--db", db_path, "sm/exp00001") == 0
        assert "detail mode" in capsys.readouterr().out
        with GoofiDatabase(db_path) as db:
            assert db.load_campaign("sm").target_name == "thor-sm"

    def test_analyze_summary_json(self, db_path, capsys):
        self.create(db_path)
        run_cli("run", "--db", db_path, "c1", "--quiet")
        capsys.readouterr()
        assert run_cli("analyze", "--db", db_path, "c1", "--summary") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["total"] == 8

    def test_analyze_sql(self, db_path, capsys):
        self.create(db_path)
        run_cli("run", "--db", db_path, "c1", "--quiet")
        capsys.readouterr()
        assert run_cli("analyze", "--db", db_path, "c1", "--sql") == 0
        assert "workload_end" in capsys.readouterr().out

    def test_campaign_list(self, db_path, capsys):
        self.create(db_path)
        run_cli("run", "--db", db_path, "c1", "--quiet")
        capsys.readouterr()
        assert run_cli("campaign", "list", "--db", db_path) == 0
        out = capsys.readouterr().out
        assert "c1" in out and "completed" in out

    def test_campaign_show(self, db_path, capsys):
        self.create(db_path)
        capsys.readouterr()
        assert run_cli("campaign", "show", "--db", db_path, "c1") == 0
        config = json.loads(capsys.readouterr().out)
        assert config["workload"] == "fibonacci"

    def test_campaign_merge(self, db_path, capsys):
        self.create(db_path, "a")
        self.create(db_path, "b")
        assert run_cli(
            "campaign", "merge", "--db", db_path, "--names", "a,b", "--new-name", "ab"
        ) == 0
        assert "16 experiments" in capsys.readouterr().out

    def test_campaign_merge_on_second_target(self, db_path, capsys):
        """``campaign merge`` opens the default target, so the merged
        thor-sm campaign's locations resolve on its own target."""
        for name in ("a", "b"):
            assert run_cli(
                "campaign", "create", "--db", db_path, "--name", name,
                "--target", "thor-sm", "--workload", "s_checksum",
                "--locations", "internal:ctrl.*", "--experiments", "4",
            ) == 0
        assert run_cli(
            "campaign", "merge", "--db", db_path, "--names", "a,b", "--new-name", "ab"
        ) == 0
        assert "8 experiments" in capsys.readouterr().out
        with GoofiDatabase(db_path) as db:
            assert db.load_campaign("ab").target_name == "thor-sm"

    def test_rerun_detail(self, db_path, capsys):
        self.create(db_path)
        run_cli("run", "--db", db_path, "c1", "--quiet")
        capsys.readouterr()
        assert run_cli("rerun", "--db", db_path, "c1/exp00002") == 0
        assert "parentExperiment" in capsys.readouterr().out

    def test_autogen_writes_files(self, db_path, tmp_path, capsys):
        self.create(db_path)
        out_dir = tmp_path / "generated"
        assert run_cli("autogen", "--db", db_path, "c1", "--out", str(out_dir)) == 0
        assert (out_dir / "analyze_c1.sql").exists()
        assert (out_dir / "analyze_c1.py").exists()

    def test_swifi_campaign_via_cli(self, db_path, capsys):
        assert run_cli(
            "campaign", "create", "--db", db_path, "--name", "sw",
            "--workload", "crc32", "--experiments", "5",
            "--technique", "swifi_preruntime",
            "--locations", "memory:program,memory:data",
        ) == 0
        assert run_cli("run", "--db", db_path, "sw", "--quiet") == 0

    def test_environment_campaign_via_cli(self, db_path, capsys):
        assert run_cli(
            "campaign", "create", "--db", db_path, "--name", "ctl",
            "--workload", "control_protected", "--experiments", "3",
            "--environment", "dc_motor", "--max-iterations", "40",
        ) == 0
        assert run_cli("run", "--db", db_path, "ctl", "--quiet") == 0

    def test_run_with_checkpoints(self, db_path, capsys):
        """--checkpoints must run the campaign through the checkpoint
        engine and log the same rows as a plain run."""
        from repro.db import GoofiDatabase

        self.create(db_path, "plain")
        assert run_cli("run", "--db", db_path, "plain", "--quiet") == 0
        self.create(db_path, "ckpt")
        assert run_cli(
            "run", "--db", db_path, "ckpt", "--quiet",
            "--checkpoints", "--checkpoint-capacity", "4",
        ) == 0
        db = GoofiDatabase(db_path)
        try:
            def rows(name):
                return {
                    r.experiment_name.split("/", 1)[1]: (r.experiment_data, r.state_vector)
                    for r in db.iter_experiments(name)
                }
            assert rows("ckpt") == rows("plain")
        finally:
            db.close()

    def test_preinjection_flag(self, db_path):
        assert run_cli(
            "campaign", "create", "--db", db_path, "--name", "pi",
            "--workload", "fibonacci", "--experiments", "5", "--preinjection",
        ) == 0
        assert run_cli("run", "--db", db_path, "pi", "--quiet") == 0


class TestAnalysisCommands:
    def seed(self, db_path, name="c1", seed="3"):
        run_cli(
            "campaign", "create", "--db", db_path, "--name", name,
            "--workload", "bubble_sort",
            "--locations", "internal:regs.*,internal:icache.*",
            "--experiments", "15", "--seed", seed,
        )
        run_cli("run", "--db", db_path, name, "--quiet")

    def test_latency_report(self, db_path, capsys):
        self.seed(db_path)
        capsys.readouterr()
        assert run_cli("analyze", "--db", db_path, "c1", "--latency") == 0
        out = capsys.readouterr().out
        assert "Detection latency" in out
        assert "(all)" in out

    def test_dependability_model_appended(self, db_path, capsys):
        self.seed(db_path)
        capsys.readouterr()
        assert run_cli(
            "analyze", "--db", db_path, "c1", "--fault-rate", "0.001"
        ) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "MTTF" in out

    def test_sensitivity_map(self, db_path, capsys):
        self.seed(db_path)
        capsys.readouterr()
        assert run_cli("analyze", "--db", db_path, "c1", "--sensitivity") == 0
        out = capsys.readouterr().out
        assert "bit map" in out
        assert "internal:" in out

    def test_compare_command(self, db_path, capsys):
        self.seed(db_path, "a")
        self.seed(db_path, "b")
        capsys.readouterr()
        assert run_cli("compare", "--db", db_path, "a", "b") == 0
        out = capsys.readouterr().out
        assert "paired experiments" in out
        assert "net escaped-errors removed" in out

    def test_compare_mismatched_seeds_fails_cleanly(self, db_path, capsys):
        self.seed(db_path, "a", seed="3")
        self.seed(db_path, "b", seed="4")
        capsys.readouterr()
        assert run_cli("compare", "--db", db_path, "a", "b") == 1
        assert "different fault lists" in capsys.readouterr().err

    def test_campaign_plan_preview(self, db_path, capsys):
        run_cli(
            "campaign", "create", "--db", db_path, "--name", "p",
            "--workload", "fibonacci", "--experiments", "9",
        )
        capsys.readouterr()
        assert run_cli("campaign", "plan", "--db", db_path, "p", "--limit", "4") == 0
        out = capsys.readouterr().out
        assert "9 experiments planned" in out
        assert out.count("transient_bitflip") == 4


class TestErrors:
    def test_unknown_campaign_returns_error(self, db_path, capsys):
        assert run_cli("run", "--db", db_path, "ghost") == 1
        assert "error" in capsys.readouterr().err

    def test_bad_locations_return_error(self, db_path, capsys):
        """Location patterns resolve at set-up: one that matches nothing
        fails ``campaign create``, and nothing is stored."""
        assert run_cli(
            "campaign", "create", "--db", db_path, "--name", "bad",
            "--workload", "fibonacci", "--locations", "internal:fpu.*",
        ) == 1
        assert "matched nothing" in capsys.readouterr().err
        with GoofiDatabase(db_path) as db:
            assert db.list_campaigns() == []

    def test_default_locations_refused_on_thor_sm(self, db_path, capsys):
        """The default ``--locations internal:regs.*`` names thor-rd's
        register file; thor-sm has none, so the create fails up front
        instead of storing a campaign that cannot run."""
        assert run_cli(
            "campaign", "create", "--db", db_path, "--name", "sm",
            "--target", "thor-sm", "--workload", "s_checksum",
        ) == 1
        assert "location pattern 'internal:regs.*' matched nothing" in (
            capsys.readouterr().err
        )
        with GoofiDatabase(db_path) as db:
            assert db.list_campaigns() == []
