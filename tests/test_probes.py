"""Tests for the propagation-probe layer (repro.core.probes).

The load-bearing property: a probed campaign logs **bit-identical**
experiment rows to an un-probed one, in every execution mode — probes
observe, they never perturb.
"""

from __future__ import annotations

import sqlite3

import pytest

from tests.conftest import drop_v7_columns, make_campaign
from repro import GoofiSession
from repro.core import CampaignConfig, DEFAULT_PROBE_PERIOD
from repro.core.errors import ConfigurationError
from repro.core.probes import (
    ProbeConfig,
    location_class,
    resolve_probes,
)
from repro.db import GoofiDatabase, ProbeRecord, SCHEMA_VERSION


def logged_rows(session: GoofiSession, name: str) -> list[tuple]:
    """All experiment rows, sorted by name (parallel/checkpointed runs
    may write in a different order; content is what must match)."""
    return sorted(
        (e.experiment_name, e.state_vector, e.experiment_data)
        for e in session.db.iter_experiments(name)
    )


class TestProbeConfig:
    def test_resolve_off(self):
        assert resolve_probes(None) is None
        assert resolve_probes(False) is None

    def test_resolve_default(self):
        config = resolve_probes(True)
        assert config == ProbeConfig()
        assert config.period == DEFAULT_PROBE_PERIOD

    def test_resolve_period_int(self):
        assert resolve_probes(64).period == 64

    def test_resolve_dict_and_passthrough(self):
        config = ProbeConfig(period=32, chains=("internal", "boundary"))
        assert resolve_probes(config) is config
        assert resolve_probes(config.to_dict()) == config

    def test_resolve_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="probes must be"):
            resolve_probes("often")

    def test_period_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="period"):
            ProbeConfig(period=0)

    def test_chains_required(self):
        with pytest.raises(ConfigurationError, match="chain"):
            ProbeConfig(chains=())

    def test_location_class(self):
        assert location_class("regs.R3") == "regs"
        assert location_class("ctrl.pc") == "ctrl"
        assert location_class("flat") == "flat"


class TestGoldenSnapshots:
    def test_capture_cycles_are_period_multiples(self, session):
        make_campaign(session, "g", num_experiments=2)
        session.run_campaign("g", probes=16)
        # The golden pass ran once; its snapshots drove every probe, so
        # every stored probe cycle is a multiple of the period.
        for record in session.db.iter_probes("g"):
            for cycle, _count in record.probe["infection_curve"]:
                assert cycle % 16 == 0


class TestRowInvariance:
    """Probed rows must equal un-probed rows in every mode."""

    NUM = 12

    @pytest.fixture(scope="class")
    def baseline(self):
        with GoofiSession() as session:
            make_campaign(session, "base", num_experiments=self.NUM)
            session.run_campaign("base")
            return logged_rows(session, "base")

    def probed_rows(self, baseline, **kwargs) -> None:
        with GoofiSession() as session:
            make_campaign(session, "base", num_experiments=self.NUM)
            session.run_campaign("base", probes=16, **kwargs)
            assert logged_rows(session, "base") == baseline
            assert session.db.count_probes("base") == self.NUM

    def test_serial(self, baseline):
        self.probed_rows(baseline)

    def test_parallel(self, baseline):
        self.probed_rows(baseline, workers=2)

    def test_checkpointed(self, baseline):
        self.probed_rows(baseline, checkpoints=True)

    def test_reference_loop(self, baseline):
        self.probed_rows(baseline, fast=False)

    def test_stack_target(self):
        def configure(session):
            config = CampaignConfig(
                name="sm",
                target="thor-sm",
                technique="scifi",
                workload="s_fib",
                location_patterns=("internal:ctrl.*",),
                num_experiments=8,
                termination=session.default_termination("s_fib"),
                observation=session.default_observation("s_fib"),
                seed=7,
            )
            session.setup_campaign(config)

        with GoofiSession(target_name="thor-sm") as session:
            configure(session)
            session.run_campaign("sm")
            baseline = logged_rows(session, "sm")
        with GoofiSession(target_name="thor-sm") as session:
            configure(session)
            session.run_campaign("sm", probes=16)
            assert logged_rows(session, "sm") == baseline
            assert session.db.count_probes("sm") == 8


class TestProbeSummaries:
    @pytest.fixture(scope="class")
    def payloads(self):
        with GoofiSession() as session:
            make_campaign(
                session,
                "mix",
                workload="control_protected",
                locations=("internal:*",),
                num_experiments=24,
            )
            session.run_campaign("mix", probes=32)
            return [record.probe for record in session.db.iter_probes("mix")]

    def test_one_summary_per_experiment(self, payloads):
        assert len(payloads) == 24
        assert len({p["experiment"] for p in payloads}) == 24

    def test_probes_start_after_first_injection(self, payloads):
        for payload in payloads:
            for cycle, _count in payload["infection_curve"]:
                assert cycle > payload["first_injection_cycle"]

    def test_dormancy_math(self, payloads):
        for payload in payloads:
            if payload["first_divergence"] is None:
                assert payload["dormancy"] is None
                assert payload["peak_infection"] == 0
                assert payload["infected_elements"] == []
            else:
                assert payload["dormancy"] == (
                    payload["first_divergence"] - payload["first_injection_cycle"]
                )
                assert payload["peak_infection"] >= 1
                assert payload["infected_elements"]

    def test_curve_is_consistent(self, payloads):
        for payload in payloads:
            counts = [count for _cycle, count in payload["infection_curve"]]
            assert payload["probes"] == len(counts)
            assert payload["peak_infection"] == (max(counts) if counts else 0)
            assert payload["final_infection"] == (counts[-1] if counts else 0)

    def test_classes_match_elements(self, payloads):
        for payload in payloads:
            assert payload["infected_classes"] == sorted(
                {location_class(e) for e in payload["infected_elements"]}
            )

    def test_some_faults_propagate_and_some_detect(self, payloads):
        # internal:* on the EDM-protected workload: the campaign must
        # show both visible propagation and fired detectors, or the
        # whole observatory would be vacuous.
        assert any(p["first_divergence"] is not None for p in payloads)
        detections = [p for p in payloads if p["detection"]]
        assert detections
        for payload in detections:
            assert payload["outcome"] == "error_detected"
            assert payload["detection"]["mechanism"]
            assert payload["detection_cycle"] == payload["end_cycle"]

    def test_injected_classes_recorded(self, payloads):
        for payload in payloads:
            assert payload["injected_classes"]


class TestProbeKnob:
    def test_unsupported_target_rejected(self, session, monkeypatch):
        make_campaign(session, "c", num_experiments=2)
        monkeypatch.setattr(type(session.target), "supports_probes", False)
        with pytest.raises(ConfigurationError, match="propagation probes"):
            session.run_campaign("c", probes=True)

    def test_probes_off_stores_nothing(self, session):
        make_campaign(session, "c", num_experiments=2)
        session.run_campaign("c")
        assert session.db.count_probes("c") == 0

    def test_resume_keeps_earlier_probes(self, session):
        make_campaign(session, "c", num_experiments=6)
        stop_after = 3

        def maybe_abort(event):
            if event.completed >= stop_after:
                session.progress.end()

        session.progress.observers.append(maybe_abort)
        session.run_campaign("c", probes=16)
        session.progress.observers.pop()
        assert session.db.count_probes("c") == stop_after
        session.run_campaign("c", resume=True, probes=16)
        assert session.db.count_probes("c") == 6


class TestSchemaV3:
    def test_migration_from_v2(self, tmp_path):
        path = tmp_path / "old.db"
        GoofiDatabase(path).close()
        # Rewind the file to schema v2: no probe table, no pruned
        # column, version 2.
        conn = sqlite3.connect(path)
        drop_v7_columns(conn)
        conn.execute("DROP INDEX idx_probe_campaign")
        conn.execute("DROP TABLE PropagationProbe")
        conn.execute("ALTER TABLE LoggedSystemState DROP COLUMN pruned")
        conn.execute("UPDATE SchemaInfo SET version = 2")
        conn.commit()
        conn.close()
        with GoofiDatabase(path) as db:
            cur = db._conn.execute("SELECT version FROM SchemaInfo")
            assert cur.fetchone()[0] == SCHEMA_VERSION >= 4

    def test_migrated_database_stores_probes(self, tmp_path):
        path = tmp_path / "old.db"
        with GoofiSession(path) as session:
            make_campaign(session, "c", num_experiments=2)
            session.run_campaign("c")
        conn = sqlite3.connect(path)
        drop_v7_columns(conn)
        conn.execute("DROP INDEX idx_probe_campaign")
        conn.execute("DROP TABLE PropagationProbe")
        conn.execute("ALTER TABLE LoggedSystemState DROP COLUMN pruned")
        conn.execute("UPDATE SchemaInfo SET version = 2")
        conn.commit()
        conn.close()
        with GoofiDatabase(path) as db:
            db.save_probes(
                [
                    ProbeRecord(
                        experiment_name="c/exp00000",
                        campaign_name="c",
                        probe={"experiment": "c/exp00000", "probes": 0},
                    )
                ]
            )
            assert db.count_probes("c") == 1
            # Pre-migration rows are untouched.
            assert db.count_experiments("c") == 3

    def test_probe_upsert_replaces(self, tmp_path):
        with GoofiSession(tmp_path / "p.db") as session:
            make_campaign(session, "c", num_experiments=1)
            session.run_campaign("c")
            record = ProbeRecord(
                experiment_name="c/exp00000", campaign_name="c", probe={"probes": 1}
            )
            session.db.save_probes([record])
            session.db.save_probes(
                [
                    ProbeRecord(
                        experiment_name="c/exp00000",
                        campaign_name="c",
                        probe={"probes": 2},
                    )
                ]
            )
            assert session.db.count_probes("c") == 1
            stored = next(session.db.iter_probes("c"))
            assert stored.probe == {"probes": 2}

    def test_delete_campaign_removes_probes(self, session):
        make_campaign(session, "c", num_experiments=2)
        session.run_campaign("c", probes=16)
        assert session.db.count_probes("c") == 2
        session.db.delete_campaign_experiments("c")
        assert session.db.count_probes("c") == 0
