"""Process executor: run a campaign's experiments in worker processes.

The paper's SCIFI campaigns run thousands of experiments serially
against one Thor board.  Our targets are deterministic pure-Python
simulators, so nothing prevents running experiments on all cores: the
campaign pipeline (:meth:`FaultInjectionAlgorithms.run_campaign
<repro.core.algorithms.FaultInjectionAlgorithms.run_campaign>`) plans as
usual and hands the remaining experiments to :class:`ProcessExecutor`,
which shards them round-robin over N ``multiprocessing`` workers.  Each
worker rebuilds its own target interface from the plugin registry
(:func:`repro.core.plugins.create_target`), takes the reference trace,
golden probe snapshots and armed initial image the coordinator derived
once as plain ``Process`` arguments (inherited under ``fork``, one
pickle per worker under ``spawn``), runs its shard through
the same experiment loop as the in-process executor
(:meth:`~repro.core.algorithms.FaultInjectionAlgorithms.run_shard`), and
streams its results back over a queue in batches: one
``("results", worker, [result, ...])`` message per ``BATCH_SIZE``
finished experiments, sent early once the oldest waiting result is
``_POLL_SECONDS`` old, and always when the shard stops, finishes or
fails.  A result carries the experiment's row already encoded and
classified by :meth:`ReferenceState.row
<repro.analysis.classify.ReferenceState.row>`, so the coordinator writes
it as it came and never decodes, re-encodes or classifies it.

Design rules:

* **Single writer** — only the coordinator process touches SQLite.
  Workers never open the database; encoded rows flow through the queue
  into the coordinator's ingest, which batches them like any other run.
* **Bit-identical results** — every experiment re-initialises the test
  card and derives its randomness from the per-experiment seed already
  in the plan, so the logged rows (ignoring ``createdAt`` and insertion
  order) are the same for any worker count.
* **Abort drains** — an abort request stops workers at their next
  experiment boundary; the coordinator keeps consuming until every
  worker has drained, and the pipeline then flushes pending records and
  marks the campaign ``aborted``.  Worker failures likewise abort the
  campaign without losing already-streamed records.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_module
import time
import traceback

from .algorithms import BATCH_SIZE, fold_engine_stats
from .errors import GoofiError
from .resources import ResourceSampler
from .telemetry import Telemetry

logger = logging.getLogger(__name__)

#: Consecutive empty queue polls (of ``_POLL_SECONDS`` each) after a
#: worker process died before it is written off as crashed.
_DEAD_WORKER_GRACE_POLLS = 20
_POLL_SECONDS = 0.1


class WorkerFailure(GoofiError):
    """A campaign worker process raised or died; the campaign was
    aborted (already logged experiments are kept and resumable)."""


def _start_context():
    """``fork`` where available (cheap, inherits the plugin registries),
    ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(
    worker_id,
    algorithms_cls,
    config,
    specs,
    followers,
    result_queue,
    abort_event,
    trace,
    reference_state,
    probe_config,
    golden,
    initial,
    checkpoints,
    checkpoint_capacity,
    fast,
    telemetry_mode,
    resources,
    profile,
):
    """Run one shard of the plan (``specs``, the coordinator's
    :class:`~repro.core.campaign.ExperimentSpec` objects, of campaign
    ``config``, with the memo ``followers`` of those specs) and stream
    results back.

    Two messages, both ``(kind, worker_id, payload)`` tuples:

    * ``("results", worker_id, [result, ...])``: a batch of finished
      experiments in shard order, each ``(row, outcome, spans, probes,
      samples)`` — the experiment's classified ``LoggedSystemState`` row
      and termination outcome plus the span records, probe summaries
      and resource samples gathered with it.  A batch is sent when
      ``BATCH_SIZE`` results wait, when the oldest has waited
      ``_POLL_SECONDS`` (checked as each result arrives), and before
      ``end`` whether the shard finished, stopped or failed, so no
      finished experiment is lost;
    * ``("end", worker_id, summary)`` once, always last: the shard-end
      summary — ``metrics`` (registry snapshot, when telemetry is on),
      ``profile`` (cProfile table, with ``profile``), ``checkpoint``
      (cache stats, with ``checkpoints``), ``samples`` (the final
      resource samples) — or ``{"error": traceback_text}`` when the
      shard failed.

    The worker is an instance of ``algorithms_cls`` — the coordinator's
    own algorithms class, so subclass-registered techniques run here
    too.  It keeps a local :class:`~repro.core.telemetry.Telemetry`
    (never a file or database sink — persistence stays with the
    single-writer coordinator) and starts from the state the coordinator
    derived once: the reference ``trace``, the ``reference_state`` each
    row is classified against where it is made, the ``probe_config`` and
    ``golden`` probe snapshots (``None`` without probes), and, under
    ``checkpoints``, the armed cycle-0 image (``initial``) that pre-seeds
    the shard's checkpoint cache.  Checkpoint snapshots hold live target
    references and never cross the process boundary; each shard of the
    coordinator-sorted plan is itself in first-injection order, so
    per-worker caches stay effective.  The setup is timed as
    ``phase.worker_startup``.
    """
    summary: dict = {}
    batch: list[tuple] = []
    oldest = 0.0

    def send_batch() -> None:
        nonlocal batch
        if batch:
            # A fresh list each time: the queue pickles in a feeder
            # thread, after put() returns.
            result_queue.put(("results", worker_id, batch))
            batch = []

    def send(*result) -> None:
        nonlocal oldest
        if not batch:
            oldest = time.monotonic()
        batch.append(result)
        if len(batch) >= BATCH_SIZE or time.monotonic() - oldest >= _POLL_SECONDS:
            send_batch()

    try:
        import repro  # noqa: F401  (registers built-in targets under spawn)

        from .plugins import create_target

        tele = Telemetry(telemetry_mode)
        sampler = ResourceSampler(
            resources, worker=worker_id, backend=resources is not None
        )
        with tele.time("phase.worker_startup"):
            target = create_target(config.target)
            target.set_fast_path(fast)
            algorithms = algorithms_cls(target, db=None)
            algorithms.telemetry = tele
            algorithms.checkpoint_capacity = checkpoint_capacity
            algorithms.profile = profile
            algorithms.reference_state = reference_state
            algorithms.probe_config = probe_config
        sampler.sample("worker_startup")
        summary = algorithms.run_shard(
            config,
            specs,
            trace,
            send,
            abort_event.is_set,
            checkpoints=checkpoints,
            golden=golden,
            initial=initial,
            sampler=sampler,
            followers=followers,
        )
        sampler.sample("shard_end")
        sampler.fold_into(tele.metrics)
        summary["samples"] = sampler.drain()
        if tele.enabled:
            fold_engine_stats(tele.metrics, target)
            summary["metrics"] = tele.metrics.snapshot()
    except BaseException:
        # BaseException, not Exception: a worker killed mid-chunk (e.g.
        # KeyboardInterrupt reaching the child) must still report the
        # failure, or the coordinator would read the short shard as a
        # clean, complete one.
        logger.exception("campaign worker %d crashed while running its shard", worker_id)
        summary = {"error": traceback.format_exc()}
    finally:
        send_batch()
        result_queue.put(("end", worker_id, summary))


class ProcessExecutor:
    """Runs a campaign's experiments in ``workers`` worker processes.

    Chosen by ``FaultInjectionAlgorithms.run_campaign(..., workers=N)``
    for ``N > 1`` and a non-empty plan.  ``fast`` selects the execution
    engine in every worker.
    """

    def __init__(self, algorithms, workers: int, fast: bool) -> None:
        self.algorithms = algorithms
        self.workers = workers
        self.fast = fast

    def run(
        self, config, specs, followers, trace, golden, checkpoints: bool, ingest
    ) -> None:
        algorithms = self.algorithms
        tele = algorithms.telemetry
        bus = algorithms.events
        progress = algorithms.progress
        # Everything a worker needs on startup is derived exactly once,
        # here, and handed over as Process arguments: a forked worker
        # inherits the objects themselves, a spawned one unpickles them.
        # Under checkpointing that includes the armed fault-free initial
        # image that seeds each worker's cache.
        initial = None
        if checkpoints:
            with tele.time("phase.initial_image"):
                algorithms._prepare_target(config)
                algorithms.target.run_workload()
                initial = algorithms.target.save_state()
        context = _start_context()
        result_queue = context.Queue()
        abort_event = context.Event()
        # Round-robin sharding keeps the shards balanced even when
        # experiment cost correlates with plan position.
        shards = [specs[start :: self.workers] for start in range(self.workers)]
        # Each representative's followers go to the worker simulating it.
        shard_followers = [
            {spec.name: followers[spec.name] for spec in shard if spec.name in followers}
            for shard in shards
        ]
        logged = [
            len(shard) + sum(map(len, group.values()))
            for shard, group in zip(shards, shard_followers)
        ]
        expected = sum(logged)
        processes = [
            context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    type(algorithms),
                    config,
                    shard,
                    shard_followers[worker_id],
                    result_queue,
                    abort_event,
                    trace,
                    algorithms.reference_state,
                    algorithms.probe_config,
                    golden,
                    initial,
                    checkpoints,
                    algorithms.checkpoint_capacity,
                    self.fast,
                    tele.mode,
                    algorithms.resource_config,
                    algorithms.profile,
                ),
                daemon=True,
            )
            for worker_id, shard in enumerate(shards)
        ]
        logger.info(
            "campaign %r: sharding %d experiments over %d workers",
            config.name,
            expected,
            self.workers,
        )
        if context.get_start_method() == "fork":
            for process in processes:
                process.start()
        else:
            # start() returns once a spawned child has booted and read
            # its pickled arguments, which outgrow the pipe's buffer:
            # start the workers side by side so their boots overlap.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(len(processes)) as pool:
                list(pool.map(lambda process: process.start(), processes))
        for worker_id in range(self.workers):
            bus.emit(
                "worker_started",
                campaign=config.name,
                worker=worker_id,
                experiments=logged[worker_id],
            )
        failures: list[str] = []
        received = 0
        live = set(range(self.workers))
        dead_polls = dict.fromkeys(live, 0)
        try:
            while live:
                if progress.abort_requested and not abort_event.is_set():
                    abort_event.set()
                try:
                    kind, worker_id, payload = result_queue.get(timeout=_POLL_SECONDS)
                except queue_module.Empty:
                    for worker_id in list(live):
                        if processes[worker_id].is_alive():
                            continue
                        # A cleanly exiting worker always sends "end"
                        # first; give the queue feeder a grace period
                        # before declaring the worker crashed.
                        dead_polls[worker_id] += 1
                        if dead_polls[worker_id] >= _DEAD_WORKER_GRACE_POLLS:
                            live.discard(worker_id)
                            failures.append(
                                f"worker {worker_id} died without reporting "
                                f"(exit code {processes[worker_id].exitcode})"
                            )
                            bus.emit(
                                "worker_failed", campaign=config.name, worker=worker_id
                            )
                            abort_event.set()
                    continue
                if kind == "results":
                    received += len(payload)
                    for result in payload:
                        ingest.result(worker_id, *result)
                    continue
                live.discard(worker_id)
                error = payload.get("error")
                if error is None:
                    ingest.shard_end(payload)
                    bus.emit("worker_done", campaign=config.name, worker=worker_id)
                else:
                    logger.error("worker %d failed:\n%s", worker_id, error)
                    failures.append(f"worker {worker_id} failed:\n{error}")
                    bus.emit("worker_failed", campaign=config.name, worker=worker_id)
                    abort_event.set()
            if not progress.abort_requested and not failures and received < expected:
                # Every worker ended cleanly yet results are missing: a
                # crash slipped past the per-worker error reporting.
                # Never let that pass as a clean exit.
                failures.append(
                    f"workers drained cleanly but only {received} of "
                    f"{expected} sharded experiments reported results"
                )
        finally:
            abort_event.set()
            # After an early exit (a coordinator error or interrupt) read
            # on until every live worker has reported: a worker cannot
            # exit while its queue feeder is writing a batch nobody reads.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(
                processes[worker_id].is_alive() for worker_id in live
            ):
                try:
                    kind, worker_id, _ = result_queue.get(timeout=_POLL_SECONDS)
                except queue_module.Empty:
                    continue
                if kind == "end":
                    live.discard(worker_id)
            for process in processes:
                process.join(timeout=10)
                if process.is_alive():
                    process.terminate()
                    process.join()
            result_queue.close()
        if failures:
            raise WorkerFailure(
                f"parallel campaign {config.name!r} aborted; " + "; ".join(failures)
            )


#: Former name of :class:`ProcessExecutor`, kept importable.
ParallelCampaignRunner = ProcessExecutor
