"""Tests for the parallel campaign execution engine.

The contract under test: for any worker count the logged rows are
identical to the serial loop's (ignoring ``createdAt`` and insertion
order), only the coordinator touches SQLite, and abort / resume /
worker-failure paths leave the database in a consistent, resumable
state.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from tests.conftest import make_campaign
from repro.core.campaign import PlanGenerator
from repro.core.errors import ConfigurationError
from repro.core.parallel import WorkerFailure
from repro.core.resources import ResourceSampler
from repro.core.telemetry import Telemetry


#: A workers=2 thor-sm campaign under ``fork``; prints the resource
#: tracker's pid and every ``/dev/shm/psm_*`` segment seen during the run.
_TRACKER_PROBE = """
import glob, json
from multiprocessing import resource_tracker
from repro import CampaignConfig, GoofiSession

before = set(glob.glob("/dev/shm/psm_*"))
seen = set()
with GoofiSession(target_name="thor-sm") as session:
    session.setup_campaign(CampaignConfig(
        name="sm", target="thor-sm", technique="swifi_preruntime",
        workload="s_checksum", location_patterns=("memory:data",),
        num_experiments=12, seed=5,
        termination=session.default_termination("s_checksum"),
        observation=session.default_observation("s_checksum"),
    ))
    session.progress.observers.append(
        lambda event: seen.update(glob.glob("/dev/shm/psm_*"))
    )
    result = session.run_campaign("sm", workers=2)
print(json.dumps({
    "run": result.experiments_run,
    "tracker_pid": resource_tracker._resource_tracker._pid,
    "new_segments": sorted(seen - before),
}))
"""


def rows_by_name(db, campaign: str) -> dict:
    """Logged rows keyed by the campaign-relative experiment name,
    stripped of ``createdAt``."""
    return {
        record.experiment_name.split("/", 1)[1]: (
            record.experiment_data,
            record.state_vector,
            record.parent_experiment,
        )
        for record in db.iter_experiments(campaign)
    }


class TestWorkerCountInvariance:
    def test_parallel_rows_identical_to_serial(self, session):
        make_campaign(session, "serial", num_experiments=10, seed=91)
        session.run_campaign("serial")
        reference_rows = rows_by_name(session.db, "serial")
        for workers in (2, 4):
            name = f"par{workers}"
            make_campaign(session, name, num_experiments=10, seed=91)
            result = session.run_campaign(name, workers=workers)
            assert result.experiments_run == 10
            assert not result.aborted
            assert rows_by_name(session.db, name) == reference_rows
            assert session.db.load_campaign(name).status == "completed"

    def test_swifi_technique_runs_in_parallel(self, session):
        make_campaign(
            session,
            "sw-serial",
            technique="swifi_preruntime",
            locations=("memory:data",),
            num_experiments=8,
            seed=92,
        )
        session.run_campaign("sw-serial")
        make_campaign(
            session,
            "sw-par",
            technique="swifi_preruntime",
            locations=("memory:data",),
            num_experiments=8,
            seed=92,
        )
        session.run_campaign("sw-par", workers=2)
        assert rows_by_name(session.db, "sw-par") == rows_by_name(
            session.db, "sw-serial"
        )

    def test_more_workers_than_experiments(self, session):
        make_campaign(session, "tiny", num_experiments=2, seed=93)
        result = session.run_campaign("tiny", workers=8)
        assert result.experiments_run == 2
        assert session.db.count_experiments("tiny") == 3  # + reference

    def test_progress_aggregates_all_workers(self, session):
        make_campaign(session, "c", num_experiments=9, seed=94)
        events = []
        session.progress.observers.append(events.append)
        try:
            session.run_campaign("c", workers=3)
        finally:
            session.progress.observers.remove(events.append)
        assert len(events) == 9
        assert [e.completed for e in events] == list(range(1, 10))
        assert all(e.total == 9 for e in events)


class TestParallelAbortAndResume:
    def test_abort_drains_and_resume_completes(self, session):
        make_campaign(session, "c", num_experiments=16, seed=95)

        def abort_early(event):
            if event.completed >= 4:
                session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            first = session.run_campaign("c", workers=4)
        finally:
            session.progress.observers.remove(abort_early)
        assert first.aborted
        assert 4 <= first.experiments_run < 16
        assert session.db.load_campaign("c").status == "aborted"
        # Every streamed record was flushed (count = completed + reference).
        assert session.db.count_experiments("c") == first.experiments_run + 1

        second = session.run_campaign("c", resume=True, workers=4)
        assert not second.aborted
        assert second.experiments_run == 16 - first.experiments_run
        assert session.db.count_experiments("c") == 17
        assert session.db.load_campaign("c").status == "completed"

    def test_resumed_parallel_rows_match_serial(self, session):
        make_campaign(session, "whole", num_experiments=12, seed=96)
        session.run_campaign("whole")

        make_campaign(session, "split", num_experiments=12, seed=96)

        def abort_early(event):
            if event.completed >= 3:
                session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            session.run_campaign("split", workers=3)
        finally:
            session.progress.observers.remove(abort_early)
        session.run_campaign("split", resume=True, workers=3)
        assert rows_by_name(session.db, "split") == rows_by_name(session.db, "whole")

    def test_serial_resume_finishes_parallel_abort(self, session):
        """Worker count is an execution detail, not campaign state."""
        make_campaign(session, "c", num_experiments=10, seed=97)

        def abort_early(event):
            session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            first = session.run_campaign("c", workers=2)
        finally:
            session.progress.observers.remove(abort_early)
        assert first.aborted
        second = session.run_campaign("c", resume=True)
        assert session.db.count_experiments("c") == 11
        assert first.experiments_run + second.experiments_run == 10


class TestWorkerFailure:
    def test_worker_crash_aborts_campaign(self, session, monkeypatch):
        """A worker hitting an unrunnable experiment must surface the
        failure, keep streamed records, and mark the campaign aborted.

        The fork start method makes the monkeypatched experiment body
        visible inside the workers; under spawn the patch would not
        propagate, so the test is skipped there.
        """
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method to patch worker code")

        from repro.core.algorithms import FaultInjectionAlgorithms

        original = FaultInjectionAlgorithms._run_scifi_experiment

        def crashing(self, config, spec, trace):
            if spec.index == 5:
                raise RuntimeError("worker wedged")
            return original(self, config, spec, trace)

        monkeypatch.setattr(
            FaultInjectionAlgorithms, "_run_scifi_experiment", crashing
        )
        make_campaign(session, "c", num_experiments=12, seed=98)
        with pytest.raises(WorkerFailure, match="worker wedged"):
            session.run_campaign("c", workers=3)
        assert session.db.load_campaign("c").status == "aborted"
        # Round-robin shards give worker 2 experiments 2, 5, 8, 11: the
        # one it finished before crashing went out in the batch it sent
        # on failure.
        logged = {record.experiment_name for record in session.db.iter_experiments("c")}
        assert "c/exp00002" in logged
        # The healthy workers' records were flushed and the campaign is
        # resumable (the patch is undone in the parent by monkeypatch,
        # and resume re-forks workers without it).
        monkeypatch.undo()
        result = session.run_campaign("c", resume=True, workers=3)
        assert session.db.count_experiments("c") == 13
        assert session.db.load_campaign("c").status == "completed"

    def test_base_exception_mid_chunk_is_not_a_clean_exit(
        self, session, monkeypatch
    ):
        """A worker killed mid-chunk by a BaseException (e.g. a
        KeyboardInterrupt reaching the child) must report the crash
        before its unconditional "done" message.  Regression: the
        worker's ``except Exception`` let BaseExceptions skip straight
        to "done", and the coordinator read the short shard as a clean,
        complete exit."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method to patch worker code")

        from repro.core.algorithms import FaultInjectionAlgorithms

        original = FaultInjectionAlgorithms._run_scifi_experiment

        def interrupted(self, config, spec, trace):
            if spec.index == 5:
                raise KeyboardInterrupt("operator interrupt mid-chunk")
            return original(self, config, spec, trace)

        monkeypatch.setattr(
            FaultInjectionAlgorithms, "_run_scifi_experiment", interrupted
        )
        make_campaign(session, "c", num_experiments=12, seed=98)
        with pytest.raises(WorkerFailure, match="KeyboardInterrupt"):
            session.run_campaign("c", workers=3)
        assert session.db.load_campaign("c").status == "aborted"


class TestPickleBoundary:
    """Under the ``spawn`` start method a worker's campaign config and
    shard (the plan's ``ExperimentSpec`` objects) and its encoded
    results cross a real pickle boundary; ``fork`` never pickles the
    config or the shard."""

    @pytest.mark.parametrize(
        "technique, workload, locations",
        [
            ("scifi", "fibonacci", ("internal:regs.*",)),
            ("pinlevel", "adc_filter", ("boundary:pins.IN0",)),
            ("swifi_preruntime", "fibonacci", ("memory:data",)),
            ("swifi_runtime", "fibonacci", ("internal:regs.*",)),
        ],
    )
    def test_specs_survive_pickling(self, session, technique, workload, locations):
        config = make_campaign(
            session,
            "c",
            workload=workload,
            technique=technique,
            locations=locations,
            num_experiments=6,
        )
        trace = session.algorithms.make_reference_run(config)
        plan = PlanGenerator(config, session.target.location_space(), trace).generate()
        assert len(plan) == 6
        for spec in plan:
            assert pickle.loads(pickle.dumps(spec)) == spec
        assert pickle.loads(pickle.dumps(config)) == config

    def test_encoded_results_survive_pickling(self, session):
        config = make_campaign(session, "c", num_experiments=3)
        algorithms = session.algorithms
        algorithms.telemetry = Telemetry("spans")
        trace = algorithms.make_reference_run(config)
        plan = PlanGenerator(config, session.target.location_space(), trace).generate()
        results = []
        algorithms.run_shard(
            config,
            plan,
            trace,
            lambda *result: results.append(result),
            lambda: False,
            sampler=ResourceSampler(None, backend=False),
        )
        assert [result[0][0] for result in results] == [spec.name for spec in plan]
        assert all(result[2] for result in results)  # spans rode along
        assert pickle.loads(pickle.dumps(results)) == results


class TestPluginTechnique:
    def test_subclass_technique_rows_match_across_workers(self, session):
        """A technique registered the documented way — a body method on
        a subclass — runs in worker processes exactly as in this one."""
        from repro.core import plugins
        from repro.core.algorithms import FaultInjectionAlgorithms

        class BurstAlgorithms(FaultInjectionAlgorithms):
            def _run_burst_experiment(self, config, spec, trace):
                record = self._run_scifi_experiment(config, spec, trace)
                record.experiment_data["burst"] = len(spec.faults)
                return record

        plugins.register_technique("burst", "_run_burst_experiment")
        original = session.algorithms
        session.algorithms = BurstAlgorithms(
            session.target, session.db, session.progress
        )
        try:
            rows = {}
            for workers in (1, 2):
                name = f"w{workers}"
                make_campaign(
                    session, name, technique="burst", num_experiments=6,
                    flips_per_experiment=2, seed=99,
                )
                result = session.run_campaign(name, workers=workers)
                assert result.experiments_run == 6
                rows[workers] = rows_by_name(session.db, name)
        finally:
            session.algorithms = original
            plugins._TECHNIQUES.pop("burst", None)
        assert rows[2] == rows[1]
        bursts = [
            data["burst"]
            for data, _state, _parent in rows[1].values()
            if data["technique"] == "burst"
        ]
        assert bursts == [2] * 6


class TestRunnerValidation:
    def test_workers_must_be_positive(self, session):
        make_campaign(session, "c", num_experiments=2)
        for workers in (0, -3):
            with pytest.raises(ConfigurationError, match="workers"):
                session.run_campaign("c", workers=workers)
        assert session.db.count_experiments("c") == 0

    def test_coordinator_requires_database(self, session):
        from repro.core.algorithms import FaultInjectionAlgorithms

        db_less = FaultInjectionAlgorithms(session.target, db=None)
        with pytest.raises(ConfigurationError, match="database"):
            db_less.run_campaign("c", workers=2)

    def test_negative_workers_via_cli_exits_one(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "p.db")
        assert main([
            "campaign", "create", "--db", db, "--name", "c",
            "--workload", "fibonacci", "--experiments", "2",
        ]) == 0
        assert main(["run", "--db", db, "c", "--quiet", "--workers", "-3"]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_workers_flag_via_cli(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "p.db")
        assert main([
            "campaign", "create", "--db", db, "--name", "c",
            "--workload", "fibonacci", "--experiments", "6",
        ]) == 0
        assert main(["run", "--db", db, "c", "--quiet", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "completed: 6/6 experiments" in out


class TestSharedState:
    """The start-up state every worker shares with the coordinator (the
    reference trace, golden probe snapshots and armed initial image,
    handed over as ``Process`` arguments): rows stay bit-identical to
    the serial loop's, and startup-phase telemetry lands where the work
    happens."""

    def test_probe_and_checkpoint_rows_identical(self, session):
        make_campaign(session, "serial", num_experiments=10, seed=61)
        session.run_campaign("serial", probes=True)
        reference_rows = rows_by_name(session.db, "serial")
        for label, kwargs in {"par": {}, "par-ckpt": {"checkpoints": True}}.items():
            make_campaign(session, label, num_experiments=10, seed=61)
            result = session.run_campaign(
                label, workers=2, probes=True, **kwargs
            )
            assert result.experiments_run == 10
            assert rows_by_name(session.db, label) == reference_rows

    def test_spawn_workers_rows_identical(self, session, monkeypatch):
        """Under ``spawn`` the start-up state crosses a real pickle
        boundary (golden snapshots and the initial image included) and
        the workers start side by side; rows still match the serial
        loop's."""
        import repro.core.parallel as parallel

        make_campaign(session, "serial", num_experiments=6, seed=65)
        session.run_campaign("serial", probes=True)
        monkeypatch.setattr(
            parallel, "_start_context", lambda: multiprocessing.get_context("spawn")
        )
        make_campaign(session, "spawned", num_experiments=6, seed=65)
        result = session.run_campaign(
            "spawned", workers=2, probes=True, checkpoints=True
        )
        assert result.experiments_run == 6
        assert rows_by_name(session.db, "spawned") == rows_by_name(
            session.db, "serial"
        )

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods()
        or not os.path.isdir("/dev/shm"),
        reason="needs the fork start method and /dev/shm",
    )
    def test_fork_workers_start_no_resource_tracker(self):
        """Forked workers inherit their start-up state: a parallel run
        creates no shared-memory segment, so multiprocessing never
        starts its resource-tracker process.  Run in a fresh interpreter,
        where nothing else can have started the tracker."""
        proc = subprocess.run(
            [sys.executable, "-c", _TRACKER_PROBE],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["run"] == 12
        assert report["tracker_pid"] is None
        assert report["new_segments"] == []

    def test_reference_and_golden_attributed_to_coordinator(self, session):
        """The reference trace and golden snapshots are derived
        exactly once, in the coordinator; workers report
        their setup as ``phase.worker_startup`` instead."""
        make_campaign(session, "c", num_experiments=8, seed=62)
        result = session.run_campaign(
            "c", workers=2, probes=True, checkpoints=True, telemetry="metrics"
        )
        timers = result.telemetry["timers"]
        assert timers["phase.reference"]["count"] == 1
        assert timers["phase.golden"]["count"] == 1
        assert timers["phase.initial_image"]["count"] == 1
        assert timers["phase.worker_startup"]["count"] == 2

    def test_worker_startup_in_stats_report(self, session):
        make_campaign(session, "c", num_experiments=6, seed=63)
        session.run_campaign("c", workers=2, telemetry="metrics")
        report = session.stats("c")
        assert "worker_startup" in report
        assert "startup (per worker)" in report

    def test_seeded_initial_image_restores_every_prefix(self, session):
        """The coordinator's armed cycle-0 image pre-seeds each worker's
        checkpoint cache, so even the first experiment of every shard
        restores instead of re-running the preamble."""
        make_campaign(session, "c", num_experiments=8, seed=64)
        result = session.run_campaign(
            "c", workers=2, checkpoints=True, telemetry="metrics"
        )
        counters = result.telemetry["counters"]
        assert counters.get("checkpoint.misses", 0) == 0
        assert counters["checkpoint.restores"] == 8
