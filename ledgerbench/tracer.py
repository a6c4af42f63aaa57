"""Outside-in span tracing of the campaign engine's layers.

The program is not edited: :func:`install` replaces public callables of
each layer (and the experiment bodies the engines call through
``FaultInjectionAlgorithms.EXPERIMENT_BODIES``) with wrappers that
record one span per call — name, start, end, parent span and the
experiment it ran for.  Spans stay in memory until the run ends.

The parallel engine forks its workers after the wrappers are in
place, so workers inherit them.  The wrapped worker entry point drops
the spans inherited from the coordinator, runs the shard, and writes
its own spans to ``<workdir>/worker-<pid>.json`` before it exits; the
coordinator reads those files back with :meth:`Tracer.collect_workers`.

Layer names are the repo's module names: the part of a span name
before the first dot.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter

#: Span record fields, in order.
NAME, START, END, PARENT, EXPERIMENT = range(5)

#: The root span: one per ``run_campaign`` call.
ROOT = "algorithms.run_campaign"

#: Engine-entry spans: containers for the layers' spans.  Their own
#: self time is engine code under no finer boundary, so it counts as
#: unattributed, not as a layer's.
ENGINE_SPANS = (ROOT, "parallel.coordinator")


class Tracer:
    """Span buffer and counters of one process."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.experiment: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        #: Span lists of the parallel workers, once collected.
        self.worker_spans: list[list[list]] = []
        #: Boundaries :func:`install` did not find in this version of
        #: the program; their time shows up as unattributed.
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def traced(self, name: str, original, count=None):
        """``original`` wrapped in a span; ``count(args, kwargs, result)``
        may add to the counters after each call."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, _clock(), 0.0, stack[-1] if stack else -1, self.experiment]
            spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = _clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _original(self, owner, attribute: str):
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attribute}")
        return original

    def patch(self, owner, attribute: str, name: str, count=None) -> None:
        original = self._original(owner, attribute)
        if original is not None:
            setattr(owner, attribute, self.traced(name, original, count))

    def patch_iterator(self, owner, attribute: str, name: str, counter: str) -> None:
        """A generator method: one span per item pulled, so the spans
        nest inside whatever consumes the rows."""
        original = self._original(owner, attribute)
        if original is None:
            return
        step = self.traced(name, next)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                counts[counter] += 1
                yield item

        setattr(owner, attribute, wrapper)

    def patch_experiment_body(self, owner, attribute: str) -> None:
        """Experiment bodies take ``(config, spec, trace)``; their spans
        and every span under them carry the experiment's name."""
        original = self._original(owner, attribute)
        if original is None:
            return
        body = self.traced("algorithms.experiment", original)

        def wrapper(algorithms, config, spec, trace):
            self.experiment = spec.name
            try:
                return body(algorithms, config, spec, trace)
            finally:
                self.experiment = None

        setattr(owner, attribute, wrapper)

    def patch_target_run(self, cls, attribute: str) -> None:
        """Target execution calls also count simulated cycles and the
        fast/reference loop segments they ran, from the target's own
        ``execution_stats()``."""
        original = self._original(cls, attribute)
        if original is None:
            return
        original = self.traced("target.run", original)
        counts = self.counts

        def wrapper(target, *args, **kwargs):
            before = target.execution_stats()
            try:
                return original(target, *args, **kwargs)
            finally:
                after = target.execution_stats()
                counts["target.sim_cycles"] += after["cycles"] - before["cycles"]
                counts["target.fast_segments"] += (
                    after["fast_segments"] - before["fast_segments"]
                )
                counts["target.ref_segments"] += (
                    after["ref_segments"] - before["ref_segments"]
                )

        setattr(cls, attribute, wrapper)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def patch_worker_entry(self, module, attribute: str) -> None:
        original = self._original(module, attribute)
        if original is None:
            return
        shard = self.traced("parallel.worker", original)

        def wrapper(*args, **kwargs):
            # A forked worker starts with a copy of the coordinator's
            # buffer; it reports only its own spans.
            self.spans.clear()
            self._stack.clear()
            self.counts.clear()
            try:
                return shard(*args, **kwargs)
            finally:
                path = self.workdir / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

        setattr(module, attribute, wrapper)

    def collect_workers(self) -> None:
        """Fold the spans and counters the workers wrote into this
        process's view (call after the campaign returned)."""
        for path in sorted(self.workdir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            self.worker_spans.append(payload["spans"])
            for key, value in payload["counts"].items():
                self.counts[key] += value
            path.unlink()

    def write(self, path: Path) -> None:
        """Write every span, coordinator first, as one JSON document."""
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start", "end", "parent", "experiment"],
                    "coordinator": self.spans,
                    "workers": self.worker_spans,
                }
            )
        )


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the ledger reports on.  Call after
    ``import repro`` and before the session opens."""
    import multiprocessing.process
    import multiprocessing.queues

    from repro import analysis
    from repro.core import algorithms, campaign, checkpoint, events, liveness
    from repro.core import parallel, progress, resources, sharedstate, telemetry
    from repro.db import database
    from repro.targets.stack.interface import StackTargetInterface
    from repro.targets.thor.interface import ThorTargetInterface
    from repro.workloads import envsim

    counts = tracer.counts
    patch = tracer.patch

    def rows(args, _kwargs, _result):
        counts["db.rows_written"] += len(args[1])

    def batch(args, _kwargs, _result):
        counts["db.rows_written"] += len(args[1])
        if args[1]:
            counts["db.batches"] += 1

    # core.algorithms — the campaign skeleton and the experiment bodies.
    engine = algorithms.FaultInjectionAlgorithms
    patch(engine, "run_campaign", ROOT)
    patch(engine, "read_campaign_data", "algorithms.read_campaign_data")
    patch(engine, "make_reference_run", "algorithms.reference")
    bodies = getattr(engine, "EXPERIMENT_BODIES", None)
    if bodies is None:
        tracer.missing.append("FaultInjectionAlgorithms.EXPERIMENT_BODIES")
    for body in sorted(set((bodies or {}).values())):
        tracer.patch_experiment_body(engine, body)

    # core.campaign, core.liveness, core.checkpoint
    patch(campaign.PlanGenerator, "generate", "campaign.generate")
    for module in (algorithms, parallel):
        patch(module, "build_prune_plan", "liveness.build_prune_plan")
    patch(liveness.PrunePlan, "upfront_records", "liveness.upfront_records")
    patch(liveness.PrunePlan, "verify_spot_check", "liveness.verify_spot_check")
    for method in ("save", "nearest", "has"):
        patch(checkpoint.CheckpointCache, method, "checkpoint.cache")
    for module in (algorithms, parallel):
        patch(module, "sort_plan_by_first_injection", "checkpoint.sort_plan")
    # Plan and config serialisation, which the parallel engine ships to
    # its workers.
    for cls in (campaign.CampaignConfig, campaign.ExperimentSpec):
        patch(cls, "to_dict", "campaign.to_dict")

    # targets — through the TargetSystemInterface methods.
    for cls in (ThorTargetInterface, StackTargetInterface):
        for method in (
            "run_workload",
            "wait_for_breakpoint",
            "wait_for_termination",
            "run_until_cycle",
            "record_trace",
            "single_step",
        ):
            tracer.patch_target_run(cls, method)
        for method in ("read_scan_chain", "inject_fault", "write_scan_chain",
                       "install_fault_overlay"):
            patch(cls, method, "target.scan")
        for method in ("init_test_card", "load_workload", "write_memory",
                       "set_environment", "set_fast_path"):
            patch(cls, method, "target.prepare")
        patch(cls, "capture_state", "target.capture")
        patch(cls, "location_space", "target.location_space")
        patch(cls, "save_state", "checkpoint.save_state")
        patch(cls, "restore_state", "checkpoint.restore_state")

    # workloads.envsim
    patch(envsim.DCMotor, "exchange", "envsim.exchange")

    # core.parallel / core.sharedstate, and the process and queue calls
    # the coordinator and workers make.
    patch(parallel.ParallelCampaignRunner, "run", "parallel.coordinator")
    # The coordinator turns each payload from a worker into a record.
    for record in ("ExperimentRecord", "SpanRecord", "ProbeRecord",
                   "ResourceSampleRecord"):
        patch(parallel, record, "parallel.ingest")
    patch(sharedstate, "publish", "parallel.publish")
    patch(multiprocessing.process.BaseProcess, "start", "parallel.spawn")
    patch(multiprocessing.process.BaseProcess, "join", "parallel.join")
    patch(multiprocessing.queues.Queue, "get", "parallel.queue_get")
    patch(multiprocessing.queues.Queue, "put", "parallel.queue_put")
    tracer.patch_worker_entry(parallel, "_worker_main")

    # db
    db = database.GoofiDatabase
    patch(db, "save_experiments", "db.write", batch)
    for method in ("save_spans", "save_probes", "save_resource_samples"):
        patch(db, method, "db.write", rows)
    for method in ("replace_experiment", "save_experiment", "save_campaign",
                   "save_target", "set_campaign_status",
                   "delete_campaign_experiments", "save_campaign_telemetry"):
        patch(db, method, "db.write")
    for method in ("load_campaign", "load_experiment", "load_campaign_telemetry"):
        patch(db, method, "db.read")
    for method in ("iter_experiments", "iter_spans", "iter_probes",
                   "iter_resource_samples"):
        tracer.patch_iterator(db, method, "db.read", "db.rows_read")

    # core.events / core.telemetry / core.resources / core.progress
    patch(events.EventBus, "emit", "events.emit")
    patch(events.EventBus, "experiment_finished", "events.emit")
    patch(events.EventBus, "close", "events.close")
    for method in ("span", "drain_spans", "write_snapshot", "close"):
        patch(telemetry.Telemetry, method, "telemetry." + method)
    for method in ("inc", "set_gauge", "add_time", "observe", "merge", "snapshot"):
        patch(telemetry.MetricsRegistry, method, "telemetry.metrics")
    for method in ("sample", "maybe_sample", "drain", "fold_into"):
        patch(resources.ResourceSampler, method, "resources.sample")
    for method in ("start", "experiment_done", "finish"):
        patch(progress.ProgressReporter, method, "progress." + method)

    # analysis — the names the benchmark calls.
    patch(analysis, "classify_campaign", "analysis.classify")
    patch(analysis, "campaign_report", "analysis.report")
    patch(analysis, "stats_report", "analysis.stats")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_times(spans: list[list], offset: int = 0) -> list[float]:
    """Per span: its duration minus the time its direct children cover
    (spans of one process nest, so children never overlap).  ``spans``
    starts at index ``offset`` of the process's buffer."""
    covered = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= offset:
            covered[record[PARENT] - offset] += record[END] - record[START]
    return [
        record[END] - record[START] - covered[index]
        for index, record in enumerate(spans)
    ]


def summarise(spans: list[list], offset: int = 0) -> dict[str, list[float]]:
    """``name → [calls, total seconds, self seconds]``."""
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for record, own in zip(spans, self_times(spans, offset)):
        row = table[record[NAME]]
        row[0] += 1
        row[1] += record[END] - record[START]
        row[2] += own
    return dict(table)


def unattributed(spans: list[list], wall: float) -> float:
    """Campaign wall time not covered by any layer span, in seconds: the
    self time of the engine-entry spans (:data:`ENGINE_SPANS`), plus the
    wall outside the root span."""
    engine = {
        index for index, record in enumerate(spans) if record[NAME] in ENGINE_SPANS
    }
    covered = sum(
        record[END] - record[START]
        for record in spans
        if record[PARENT] in engine and record[NAME] not in ENGINE_SPANS
    )
    return wall - covered
