"""The fault-injection algorithms (paper Figure 2).

``FaultInjectionAlgorithms`` holds the generic campaign algorithm,
written exclusively against the abstract building blocks of
:class:`repro.core.framework.TargetSystemInterface` — the paper's
central design idea: "By combining different abstract methods we can
define algorithms for fault injection techniques such as SCIFI, SWIFI
or pin level fault injection."

Every technique runs through one campaign pipeline
(:meth:`FaultInjectionAlgorithms.run_campaign`): read campaign data,
make a reference run, generate (and optionally prune) the experiment
plan, then hand the experiments to an executor and log what comes
back.  A technique contributes only its per-experiment body, registered
by method name (:func:`repro.core.plugins.register_technique`):

``_run_scifi_experiment``
    The paper's main algorithm, step for step: init test card, load
    workload, write memory, run workload, wait for breakpoint, read
    scan chain, inject fault, write scan chain, wait for termination,
    read memory, read scan chain.  Pin-level injection reuses it on the
    boundary scan chain.
``_run_swifi_preruntime_experiment``
    "Faults are injected into the program and data areas of the target
    system before it starts to execute": flip memory-image bits through
    the host link, then run to termination.
``_run_swifi_runtime_experiment``
    The future-work runtime SWIFI, realised debugger-style: stop at the
    trigger, corrupt memory or an architecturally visible register, and
    resume.

Two executors run the experiments: :class:`InlineExecutor` in this
process, and :class:`repro.core.parallel.ProcessExecutor` in worker
processes (``workers > 1``).  Both deliver one result per experiment —
its row already encoded for the database — to the same coordinator
ingest, so logged rows and event streams do not depend on which one
ran.

Each experiment's outcome is logged to the ``LoggedSystemState`` table;
"in normal mode, the system state is logged only when the termination
condition is fulfilled.  In detail mode the system state is logged as
frequently as the target system allows, typically after the execution
of each machine instruction."
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass

from ..analysis.classify import ReferenceState
from ..db import (
    CampaignRecord,
    ExperimentRecord,
    GoofiDatabase,
    ProbeRecord,
    ResourceSampleRecord,
    TargetSystemRecord,
    reference_name,
    utc_now,
)
from .campaign import (
    LOGGING_DETAIL,
    CampaignConfig,
    ExperimentSpec,
    PlanGenerator,
    PlannedFault,
)
from .checkpoint import (
    DEFAULT_CHECKPOINT_CAPACITY,
    CheckpointCache,
    sort_plan_by_first_injection,
)
from .errors import ConfigurationError, TargetError
from .events import EventBus, EventSink, resolve_events
from .faultmodels import is_transient
from .framework import (
    TargetSystemInterface,
    TerminationInfo,
)
from .liveness import (
    PruneConfig,
    PrunePlan,
    build_prune_plan,
    executed_schedule,
    fault_entry,
    injection_schedule,
    memo_off_reason,
    replay_row,
    resolve_prune,
)
from .locations import KIND_MEMORY, KIND_SCAN
from .plugins import create_environment, technique_method
from .probes import ProbeConfig, ProbeSession, capture_golden_snapshots, resolve_probes
from .profiling import ProfileCollector, merge_profile_stats, profile_summary
from .progress import ProgressReporter
from .resources import (
    COORDINATOR_WORKER,
    ResourceConfig,
    ResourceSampler,
    resolve_resources,
)
from .telemetry import (
    MODE_METRICS,
    NULL_SPAN,
    NULL_TELEMETRY,
    Telemetry,
    resolve_telemetry,
)
from .triggers import ReferenceTrace

logger = logging.getLogger(__name__)

#: Experiment rows per database write.
BATCH_SIZE = 64


@dataclass(slots=True)
class CampaignResult:
    """Summary returned by a campaign run (details live in the DB)."""

    campaign_name: str
    experiments_run: int
    experiments_planned: int
    aborted: bool
    elapsed_seconds: float
    #: Checkpoint-cache counters (saves/restores/misses/evictions) when
    #: the run used checkpointing, summed over every worker; ``None``
    #: otherwise.
    checkpoint_stats: dict | None = None
    #: Final :class:`~repro.core.telemetry.MetricsRegistry` snapshot when
    #: the run was telemetered; ``None`` otherwise.
    telemetry: dict | None = None
    #: Liveness-pruning summary (planned/pruned/skipped/spot-check
    #: counts and divergences) when the run used ``--prune``; ``None``
    #: otherwise.
    prune: dict | None = None
    #: Aggregated cProfile hotspot summary when the run used
    #: ``--profile``; ``None`` otherwise.
    profile: dict | None = None
    #: Number of resource samples persisted when the run used
    #: ``--resources``; ``None`` otherwise.
    resource_samples: int | None = None


def fold_engine_stats(metrics, target: TargetSystemInterface) -> None:
    """Add ``target``'s execution-engine counters to a telemetry
    registry as ``engine.*`` counters."""
    for key, value in target.execution_stats().items():
        if key != "cycles":  # point-in-time, not a counter — summing it lies
            metrics.inc(f"engine.{key}", value)


class _DatabaseSink(EventSink):
    """The database's subscription to the campaign event bus.

    ``span`` records become ``ExperimentSpan`` rows, ``resource_sample``
    records ``ResourceSample`` rows, and the ``metrics`` record the
    ``CampaignTelemetry`` snapshot.  Writes only queue; the
    coordinator's ingest writes the queue with its row batches
    (:meth:`flush`), so no database write runs inside ``EventBus.emit``.
    A span row stores the text the bus encoded (``write_span``), and the
    span rows of one flush share one ``createdAt``.
    """

    wants_line = False

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, str, float]] = []
        self.samples: list[ResourceSampleRecord] = []
        self.snapshot: tuple[str, dict] | None = None

    def write_span(self, record: dict, line: str | None, span_json: str) -> None:
        span = record["span"]
        self.spans.append(
            (span["experiment"], record["campaign"], span_json,
             span.get("duration_seconds", 0.0))
        )

    def write(self, record: dict, line: str | None) -> None:
        kind = record["kind"]
        if kind == "resource_sample":
            self.samples.append(
                ResourceSampleRecord(
                    campaign_name=record["campaign"],
                    sample=record["sample"],
                    worker=record["worker"],
                )
            )
        elif kind == "metrics":
            self.snapshot = (record["campaign"], record["snapshot"])

    @property
    def pending(self) -> bool:
        return bool(self.spans or self.samples) or self.snapshot is not None

    def flush(self, db: GoofiDatabase) -> None:
        if self.spans:
            created_at = utc_now()
            db.save_span_rows(
                [(name, campaign, text, created_at, duration)
                 for name, campaign, text, duration in self.spans]
            )
        if self.samples:
            db.save_resource_samples(self.samples)
        if self.snapshot is not None:
            db.save_campaign_telemetry(*self.snapshot)
        self.spans, self.samples, self.snapshot = [], [], None


class _Ingest:
    """The coordinator's one ingest path, shared by both executors.

    Every finished experiment arrives as one result — its complete
    ``LoggedSystemState`` row, analysis columns included
    (:meth:`ReferenceState.row
    <repro.analysis.classify.ReferenceState.row>`), and outcome plus the
    span records, probe summaries and resource samples gathered with it
    — and every shard closes with one shard-end summary.  A memo
    follower's result is its replayed row, with no span.  Rows are
    written as they came, never decoded.  Here
    the spot-check samples are verified, rows and probe summaries are
    batched into the database, progress is reported, and the
    observations go out on the event bus: ``experiment_finished``
    records in plan order (so the stream does not depend on the worker
    count), spans and resource samples as they arrive.  The database
    subscriber's queue is written with each row batch.
    """

    def __init__(
        self, algorithms, config: CampaignConfig, specs, prune_plan, store: _DatabaseSink
    ):
        self.db: GoofiDatabase = algorithms.db
        self.tele = algorithms.telemetry
        self.bus = algorithms.events
        self.store = store
        self.progress: ProgressReporter = algorithms.progress
        self.campaign = config.name
        self.prune_plan: PrunePlan | None = prune_plan
        self.completed = 0
        self.samples_seen = 0
        self.profiles: list[dict] = []
        self.checkpoint_stats: dict | None = None
        self.rows: list[tuple] = []
        self.probes: list[ProbeRecord] = []
        # Workers finish experiments in wall-clock order; events wait
        # here by plan position and release as an in-order prefix.
        self._order = {spec.name: index for index, spec in enumerate(specs)}
        self._held: dict[int, tuple] = {}
        self._next = 0
        self._released = 0

    def result(self, worker: int, row: tuple, outcome, spans, probes, samples) -> None:
        """Ingest one finished experiment run by ``worker``."""
        name = row[ExperimentRecord.ROW_NAME]
        prune_plan = self.prune_plan
        pruned = spot_checked = False
        representative = None
        if prune_plan is not None:
            pruned = name in prune_plan.spot_checks
            spot_checked = pruned or name in prune_plan.replay_checks
            representative = prune_plan.representative_of.get(name)
            # Hard-fails with PruneDivergence on mismatch; a spot-check
            # logs the confirmed synthesised or replayed row.
            row = prune_plan.confirm(name, row)
        self.rows.append(row)
        self.completed += 1
        event = self.progress.experiment_done(name, outcome)
        self._held[self._order[name]] = (
            event, pruned, spot_checked, worker, representative
        )
        while self._next in self._held:
            self._release(self._held.pop(self._next))
            self._next += 1
        campaign = self.campaign
        for span in spans:
            # Lane annotation for the trace export.
            span.setdefault("worker", worker)
            # Phase-span events carry the telemetry record verbatim —
            # the stream and the ExperimentSpan table store the same text.
            self.bus.span(campaign, span)
        for probe in probes or ():
            self.probes.append(
                ProbeRecord(
                    experiment_name=probe["experiment"],
                    campaign_name=campaign,
                    probe=probe,
                )
            )
        self.add_samples(samples)
        if len(self.rows) >= BATCH_SIZE:
            self.flush()

    def _release(self, held: tuple) -> None:
        event, pruned, spot_check, worker, representative = held
        self._released += 1
        self.bus.experiment_finished(
            event,
            # A run experiment logs a pruned row only as a confirmed
            # spot-check.
            pruned=pruned,
            spot_check=spot_check,
            worker=worker,
            completed=self._released,
            representative=representative,
        )

    def release_held(self) -> None:
        """Release every held event in plan order — after an abort some
        never see their in-order predecessors arrive, and the recording
        must still account for every logged experiment."""
        for index in sorted(self._held):
            self._release(self._held.pop(index))

    def add_samples(self, samples: list[dict]) -> None:
        """Emit resource samples on arrival — resource timelines are
        wall-clock observations with no plan order to restore."""
        self.samples_seen += len(samples)
        for sample in samples:
            self.bus.emit(
                "resource_sample",
                campaign=self.campaign,
                worker=sample["worker"],
                sample=sample,
            )

    def shard_end(self, end: dict) -> None:
        """Fold one shard's closing summary into the campaign's."""
        if end.get("metrics"):
            self.tele.metrics.merge(end["metrics"])
        if end["profile"] is not None:
            self.profiles.append(end["profile"])
        stats = end["checkpoint"]
        if stats is not None:
            total = self.checkpoint_stats or dict.fromkeys(stats, 0)
            self.checkpoint_stats = {
                key: total[key] + value for key, value in stats.items()
            }
        self.add_samples(end.get("samples", ()))

    def flush(self) -> None:
        """Write the batched rows and probe summaries plus the database
        subscriber's queue, timing the write when telemetry is on."""
        store = self.store
        if not (self.rows or self.probes or store.pending):
            return
        db = self.db
        started = time.perf_counter()
        if self.rows:
            db.save_experiment_rows(self.rows)
        if self.probes:
            db.save_probes(self.probes)
        store.flush(db)
        if self.tele.enabled:
            elapsed = time.perf_counter() - started
            metrics = self.tele.metrics
            metrics.add_time("phase.db_write", elapsed)
            metrics.observe("db.batch_seconds", elapsed)
            metrics.inc("db.rows", len(self.rows))
            metrics.inc("db.batches")
        self.rows, self.probes = [], []


class InlineExecutor:
    """Runs a campaign's experiments in this process, one after another
    — the paper's serial campaign loop."""

    workers = 1

    def __init__(self, algorithms, sampler: ResourceSampler) -> None:
        self.algorithms = algorithms
        self.sampler = sampler

    def run(
        self, config, specs, followers, trace, golden, checkpoints: bool,
        ingest: _Ingest,
    ) -> None:
        algorithms = self.algorithms
        progress = algorithms.progress
        ingest.shard_end(
            algorithms.run_shard(
                config,
                specs,
                trace,
                functools.partial(ingest.result, 0),
                lambda: progress.abort_requested,
                checkpoints=checkpoints,
                golden=golden,
                sampler=self.sampler,
                followers=followers,
            )
        )


class FaultInjectionAlgorithms:
    """Generic fault-injection campaign algorithms.

    The constructor takes the three things every algorithm needs: a
    target-system interface, the GOOFI database, and (optionally) a
    progress reporter for the monitoring/pause/end controls.
    """

    def __init__(
        self,
        target: TargetSystemInterface,
        db: GoofiDatabase | None,
        progress: ProgressReporter | None = None,
    ) -> None:
        """``db`` may be ``None`` for experiment-only use (the worker
        processes never touch the database — campaign management then
        raises on the missing connection)."""
        self.target = target
        self.db = db
        self.progress = progress or ProgressReporter()
        #: Filled by :meth:`make_reference_run`.
        self.reference_trace: ReferenceTrace | None = None
        #: Active checkpoint cache.  Set by :meth:`run_shard` for the
        #: duration of a checkpointed shard; the experiment bodies
        #: consult it to skip re-simulating the fault-free prefix.
        self.checkpoints: CheckpointCache | None = None
        #: LRU capacity used when building the cache (one knob, also
        #: shipped to the worker processes; the CLI exposes it as
        #: ``--checkpoint-capacity``).
        self.checkpoint_capacity: int = DEFAULT_CHECKPOINT_CAPACITY
        #: Active telemetry handle.  ``NULL_TELEMETRY`` (every operation
        #: a shared no-op) unless ``run_campaign(telemetry=...)`` turned
        #: it on or a worker process installed a local instance.
        self.telemetry = NULL_TELEMETRY
        #: The current run's campaign event bus (:mod:`repro.core.events`),
        #: the one way observation records leave a campaign: the database
        #: subscribes to it for the run, the ``events=`` sinks receive
        #: the same records.  Worker processes never emit — the
        #: coordinator emits in deterministic plan order.
        self.events = EventBus()
        #: Requested probe configuration for the current campaign run
        #: (``run_campaign(probes=...)``); ``None`` when probing is off.
        self.probe_config: ProbeConfig | None = None
        #: Active probe session (golden snapshots + pending summaries).
        #: Set by :meth:`run_shard` for the duration of a probed shard;
        #: the experiment bodies route their execution segments through
        #: it when present.
        self.probes: ProbeSession | None = None
        #: Requested liveness-pruning configuration for the current
        #: campaign run (``run_campaign(prune=...)``); ``None`` when
        #: pruning is off.
        self.prune_config: PruneConfig | None = None
        #: Requested resource-sampling configuration for the current
        #: campaign run (``run_campaign(resources=...)``); ``None``
        #: when resource telemetry is off.
        self.resource_config: ResourceConfig | None = None
        #: Whether the current run wraps each shard's experiment loop in
        #: :mod:`cProfile` (``run_campaign(profile=True)``).
        self.profile: bool = False
        #: The reference run's logged record, stashed by
        #: :meth:`make_reference_run` — pruned rows synthesise their
        #: state vector from it.
        self._reference_record: ExperimentRecord | None = None
        #: The classifier's view of that record, which every row made
        #: by :meth:`run_shard` is classified against (shipped to the
        #: worker processes with their start-up state).
        self.reference_state: ReferenceState | None = None
        #: Config key the cached ``reference_trace`` was recorded under —
        #: guards the detail-rerun fast path against reusing a trace
        #: from a different campaign/workload.
        self._reference_trace_key: tuple | None = None

    # ------------------------------------------------------------------
    # Campaign entry point
    # ------------------------------------------------------------------
    def run_campaign(
        self,
        campaign_name: str,
        resume: bool = False,
        workers: int = 1,
        checkpoints: bool = False,
        fast: bool = True,
        telemetry=None,
        probes=None,
        prune=None,
        events=None,
        resources=None,
        profile: bool = False,
    ) -> CampaignResult:
        """Run a campaign: the technique's registered experiment body
        inside the one campaign pipeline.

        ``resume=True`` continues an interrupted campaign: already
        logged experiments are kept and skipped (the seeded plan is
        deterministic, so the remaining experiments are exactly the ones
        that would have run).  This is the 'restart' button of the
        paper's progress window surviving a host restart.

        ``workers > 1`` shards the experiment plan across that many
        worker processes (:class:`repro.core.parallel.ProcessExecutor`);
        results are bit-identical to ``workers=1``, which runs every
        experiment in this process (:class:`InlineExecutor`).  An empty
        plan never starts a worker.

        ``checkpoints=True`` reuses fault-free prefix state between
        experiments (:mod:`repro.core.checkpoint`): the plan is run in
        first-injection order and each experiment restores the nearest
        cached snapshot instead of re-simulating from cycle 0.  Logged
        rows are bit-identical to a no-checkpoint run; only insertion
        order (never content) may differ.  Ignored on targets without
        ``supports_checkpoints``.

        ``fast=False`` forces the target's reference execution loop
        instead of its fused fast path (a debugging escape hatch; the
        two engines log bit-identical rows).  The choice is applied to
        this session's target and shipped to any worker processes.

        Experiments with the same faults as executed are simulated once
        (the fault memo, :meth:`PrunePlan.memoize
        <repro.core.liveness.PrunePlan.memoize>`): the others' rows are
        replayed from that run and flagged ``pruned = 2``.  The memo is
        on unless ``fast=False``, ``probes``, detail logging or declared
        environment faults turn it off.

        ``telemetry`` turns on campaign telemetry (see
        :func:`repro.core.telemetry.resolve_telemetry` for the accepted
        values: a mode string, a bool, or a ready
        :class:`~repro.core.telemetry.Telemetry`).  Span records and the
        final snapshot go out on the event bus (``span`` and ``metrics``
        records), from which the database persists them; give
        ``events`` too to stream them.  Telemetry never changes logged
        rows — it only measures the run.

        ``probes`` turns on campaign-scale propagation probes (see
        :func:`repro.core.probes.resolve_probes` for the accepted
        values: ``True``, a probe period in cycles, a dict, or a ready
        :class:`~repro.core.probes.ProbeConfig`).  Every experiment then
        yields a compact propagation summary (``PropagationProbe``
        table; ``goofi analyze --propagation``).  Probing never changes
        logged rows either — probe stops fold into the execution loop
        like breakpoints and the dumps are read-only.

        ``prune`` turns on liveness-based experiment pruning (see
        :func:`repro.core.liveness.resolve_prune`: ``True``, a
        spot-check rate in [0, 1], a dict, or a ready
        :class:`~repro.core.liveness.PruneConfig`).  Experiments whose
        faults provably cannot have an effect are not simulated; their
        rows are synthesised from the reference run and flagged
        ``pruned``, and the spot-check sample re-simulates a seeded
        fraction of them, hard-failing on any divergence.  Incompatible
        with ``probes`` — a pruned experiment is never executed, so its
        propagation summary cannot be observed.

        ``events`` adds sinks to the run's campaign event bus (see
        :func:`repro.core.events.resolve_events` for the accepted
        values: a destination string such as ``"-"``, a JSONL path, a
        ``.sock``/``udp://`` address, a sink list, or a ready
        :class:`~repro.core.events.EventBus`, which the caller keeps
        open).  Every run emits versioned records for the campaign
        lifecycle, every finished experiment (with prune/spot-check
        provenance and the rolling rate/ETA), telemetry spans and the
        final ``metrics`` snapshot, resource samples, and worker
        lifecycle; the database subscribes for the run, and the sinks
        given here receive the same records — consumed live by ``goofi
        watch``, drawn by the ``goofi run`` progress ticker, or
        recorded for replay.  Events never change logged rows; emission
        happens strictly after a row is final.

        ``resources`` turns on worker resource telemetry (see
        :func:`repro.core.resources.resolve_resources`: ``True``, a
        sampling period in seconds, a dict, or a ready
        :class:`~repro.core.resources.ResourceConfig`).  Each worker
        then samples its own CPU time, RSS, and shared-memory footprint
        on that cadence (plus phase boundaries); samples go out as
        ``resource_sample`` events, land in the ``ResourceSample``
        table, and fold into the telemetry snapshot when telemetry is
        also on.
        Sampling is read-only observation of the worker process — rows
        are bit-identical with it on or off, and a platform without
        ``/proc`` or ``getrusage`` degrades to no samples, never to a
        failed campaign.

        ``profile=True`` wraps each worker's experiment loop in
        :mod:`cProfile`; the coordinator aggregates the per-worker
        stats and persists a top-N hotspot summary with the campaign
        telemetry snapshot (``goofi stats --profile``).  Implies
        metrics-mode telemetry when none was requested, so the summary
        has a snapshot row to live in.  Purely observational: rows are
        bit-identical profiled or not.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if self.db is None:
            raise ConfigurationError("running a campaign needs a database connection")
        config = self.read_campaign_data(campaign_name)
        self.experiment_runner(config.technique)  # fail before any work
        self.target.set_fast_path(fast)
        tele = resolve_telemetry(telemetry)
        if profile and not tele.enabled:
            # The hotspot summary is persisted with the telemetry
            # snapshot, so profiling needs at least metrics mode.
            tele = Telemetry(MODE_METRICS)
        self.telemetry = tele
        probe_config = resolve_probes(probes)
        if probe_config is not None and not self.target.supports_probes:
            raise ConfigurationError(
                f"target {self.target.target_name!r} does not support "
                f"propagation probes"
            )
        prune_config = resolve_prune(prune)
        if prune_config is not None and probe_config is not None:
            raise ConfigurationError(
                "--prune and --probes cannot be combined: pruned "
                "experiments are never executed, so their propagation "
                "summaries cannot be observed"
            )
        self.probe_config = probe_config
        self.prune_config = prune_config
        self.resource_config = resolve_resources(resources)
        self.profile = bool(profile)
        bus = resolve_events(events)
        # A bus handed in ready-made (e.g. goofi gate, which appends its
        # verdict after the run) stays open for the caller to close.
        owns_bus = bus is not events
        store = _DatabaseSink()
        bus.sinks.append(store)
        self.events = bus
        try:
            return self._run_pipeline(
                config, resume, workers, checkpoints, fast, store
            )
        finally:
            bus.sinks.remove(store)
            if owns_bus:
                bus.close()
            self.events = EventBus()
            self.telemetry = NULL_TELEMETRY
            self.probe_config = None
            self.prune_config = None
            self.resource_config = None
            self.profile = False

    def experiment_runner(self, technique: str):
        """The per-experiment body registered for ``technique`` (bound
        method taking ``(config, spec, trace)`` and returning an
        :class:`~repro.db.models.ExperimentRecord`).  Looked up by name
        on each call, so a subclass or a patched method takes effect."""
        method_name = technique_method(technique)
        runner = getattr(self, method_name, None)
        if runner is None:
            raise ConfigurationError(
                f"technique {technique!r} maps to unknown experiment body "
                f"{method_name!r}"
            )
        return runner

    # ------------------------------------------------------------------
    # The campaign pipeline
    # ------------------------------------------------------------------
    def read_campaign_data(self, campaign_name: str) -> CampaignConfig:
        """``readCampaignData``: load the configuration from the DB."""
        record = self.db.load_campaign(campaign_name)
        config = CampaignConfig.from_dict(record.config)
        if config.target != self.target.target_name:
            raise ConfigurationError(
                f"campaign {campaign_name!r} targets {config.target!r} but the "
                f"attached interface is {self.target.target_name!r}"
            )
        return config

    def compute_reference_trace(self, config: CampaignConfig):
        """Execute the workload fault-free and record its trace, without
        logging anything."""
        self._prepare_target(config, faulty_environment=False)
        info, trace = self.target.record_trace(config.termination)
        if info.outcome != "workload_end":
            raise ConfigurationError(
                f"reference run of workload {config.workload!r} did not finish "
                f"cleanly (outcome {info.outcome!r}); fix the campaign's "
                f"termination conditions before injecting faults"
            )
        return info, trace

    def make_reference_run(self, config: CampaignConfig) -> ReferenceTrace:
        """``makeReferenceRun``: execute the workload fault-free, record
        the trace, and log the fault-free state to the database."""
        info, trace = self.compute_reference_trace(config)
        final_state = self.target.capture_state(config.observation)
        state_vector: dict = {"termination": info.to_dict(), "final": final_state}
        if config.logging_mode == LOGGING_DETAIL:
            # Detail mode compares per-instruction states against the
            # reference, so the reference itself needs a stepped run.
            self._prepare_target(config, faulty_environment=False)
            self.target.run_workload()
            _, steps = self._detailed_run(config)
            state_vector["steps"] = steps
        record = ExperimentRecord(
            experiment_name=reference_name(config.name),
            campaign_name=config.name,
            experiment_data={"technique": "reference", "workload": config.workload},
            state_vector=state_vector,
        )
        self.db.replace_experiment(record)
        self.reference_trace = trace
        self._reference_record = record
        self.reference_state = ReferenceState.of(state_vector)
        self._reference_trace_key = self._trace_cache_key(config)
        return trace

    @staticmethod
    def _trace_cache_key(config: CampaignConfig) -> tuple:
        """Identity of a cached reference trace: every config field the
        trace depends on.  A mismatch only forces a recompute, so a
        conservative key is always safe."""
        return (
            config.target,
            config.workload,
            config.termination.max_cycles,
            config.termination.max_iterations,
            repr(config.environment),
        )

    def _run_pipeline(
        self,
        config: CampaignConfig,
        resume: bool,
        workers: int,
        checkpoints: bool,
        fast: bool,
        store: _DatabaseSink,
    ) -> CampaignResult:
        """resume → reference → plan → prune → golden → event prefix →
        run the remaining experiments on an executor → status →
        telemetry close-out.  Every stage runs here, in the coordinator,
        whichever executor runs the experiments."""
        db = self.db
        tele = self.telemetry
        bus = self.events
        progress = self.progress
        # The coordinator samples its own process too (reference, plan
        # and golden run here).  With resources off, or when no backend
        # works, the sampler is a no-op.
        sampler = ResourceSampler(
            self.resource_config, backend=self.resource_config is not None
        )
        if resume:
            already_logged = {
                record.experiment_name for record in db.iter_experiments(config.name)
            }
        else:
            # A fresh run of a campaign replaces its previously logged
            # results (re-runs with other parameters belong in a new or
            # merged campaign).
            already_logged = set()
            db.delete_campaign_experiments(config.name)
        # The reference run stays in the coordinator: it is the one row
        # worker processes must not race to write.
        with tele.time("phase.reference"):
            trace = self.make_reference_run(config)
        sampler.sample("reference")
        space = self.target.location_space()
        with tele.time("phase.plan"):
            plan = PlanGenerator(config, space, trace).generate()
        sampler.sample("plan")
        remaining = [spec for spec in plan if spec.name not in already_logged]
        prune_plan: PrunePlan | None = None
        upfront: list[tuple] = []
        if self.prune_config is not None:
            with tele.time("phase.prune"):
                prune_plan = build_prune_plan(
                    config,
                    trace,
                    space,
                    remaining,
                    self.prune_config,
                    self._reference_record,
                )
                remaining = prune_plan.to_run
                # Synthesised rows of skipped experiments are persisted
                # up front; spot-checked ones wait for their simulation
                # to confirm the prediction.
                upfront = prune_plan.upfront_records()
                for start in range(0, len(upfront), 256):
                    db.save_experiment_rows(upfront[start : start + 256])
            logger.info(
                "campaign %r: pruned %d/%d experiments (%d spot-checks)%s",
                config.name,
                len(prune_plan.pruned_specs),
                prune_plan.planned,
                len(prune_plan.spot_checks),
                f" — {prune_plan.disabled_reason}"
                if prune_plan.disabled_reason
                else "",
            )
            if tele.enabled:
                tele.metrics.inc("prune.pruned", len(prune_plan.pruned_specs))
                tele.metrics.inc("prune.skipped", prune_plan.skipped)
                tele.metrics.inc("prune.spot_checks", len(prune_plan.spot_checks))
        memo_off = memo_off_reason(
            config, fast=fast, probes=self.probe_config is not None
        )
        if memo_off:
            logger.debug("campaign %r: fault memo off — %s", config.name, memo_off)
        else:
            # Experiments with the same faults log the same run: one
            # representative per fault key is simulated.
            with tele.time("phase.memo"):
                if prune_plan is None:
                    prune_plan = PrunePlan.unpruned(remaining)
                prune_plan.memoize(config, trace)
            logger.info(
                "campaign %r: %d experiments replayed from a representative",
                config.name,
                prune_plan.replayed,
            )
            if tele.enabled:
                tele.metrics.inc("memo.replayed", prune_plan.replayed)
        golden = None
        if self.probe_config is not None:
            # One extra fault-free pass captures the golden snapshots
            # every experiment's probes diff against.
            with tele.time("phase.golden"):
                golden = capture_golden_snapshots(
                    self.target,
                    lambda: self._prepare_target(config, faulty_environment=False),
                    config.termination,
                    self.probe_config,
                )
            sampler.sample("golden")
        use_checkpoints = checkpoints and self.target.supports_checkpoints
        if use_checkpoints:
            # First-injection order makes the breakpoint sequence
            # monotone, so every checkpoint taken is at or before all
            # later experiments' first breakpoints (round-robin shards
            # of a sorted plan stay sorted).  Row content is
            # per-experiment deterministic; only DB insertion order
            # changes (the rows are keyed by experiment name).
            remaining = sort_plan_by_first_injection(remaining, trace)
        # Followers travel with their representative, simulated in plan
        # order (first-injection order under checkpoints, like the rest).
        simulated, followers = remaining, {}
        if prune_plan is not None and prune_plan.followers:
            followers = prune_plan.followers
            simulated = [
                spec for spec in remaining
                if spec.name not in prune_plan.representative_of
            ]
        if workers > 1 and simulated:
            from .parallel import ProcessExecutor

            executor = ProcessExecutor(self, min(workers, len(simulated)), fast)
            # Next to worker processes the coordinator's own samples
            # carry its id, the ones already taken included.
            sampler.worker = COORDINATOR_WORKER
            for sample in sampler.pending:
                sample["worker"] = COORDINATOR_WORKER
        else:
            executor = InlineExecutor(self, sampler)
        bus.emit(
            "campaign_planned",
            campaign=config.name,
            technique=config.technique,
            workload=config.workload,
            planned=len(plan),
            already_logged=len(already_logged),
            pruned=len(prune_plan.pruned_specs) if prune_plan is not None else 0,
            replayed=prune_plan.replayed if prune_plan is not None else 0,
            to_run=len(remaining),
            workers=executor.workers,
            checkpoints=use_checkpoints,
        )
        # Skipped experiments were logged up front from synthesised rows;
        # their events carry the provenance flag and no run-progress
        # counter (they never run).  Every synthesised row ends as the
        # reference run did.
        outcome = self._reference_record.termination.get("outcome")
        for row in upfront:
            bus.emit(
                "experiment_finished",
                campaign=config.name,
                experiment=row[ExperimentRecord.ROW_NAME],
                outcome=outcome,
                completed=None,
                total=len(remaining),
                elapsed_seconds=None,
                rate=None,
                eta_seconds=None,
                pruned=True,
                spot_check=False,
                worker=0,
                representative=None,
            )
        progress.start(config.name, len(remaining))
        bus.emit(
            "campaign_started",
            campaign=config.name,
            total=len(remaining),
            workers=executor.workers,
        )
        db.set_campaign_status(config.name, "running")
        logger.info(
            "campaign %r: %d experiments to run (%d already logged)%s",
            config.name,
            len(remaining),
            len(already_logged),
            ", checkpointing" if use_checkpoints else "",
        )
        ingest = _Ingest(self, config, remaining, prune_plan, store)
        failed = False
        snapshot = None
        try:
            executor.run(
                config, simulated, followers, trace, golden, use_checkpoints, ingest
            )
        except BaseException:
            failed = True
            raise
        finally:
            aborted = progress.abort_requested
            sampler.sample("finish")
            ingest.add_samples(sampler.drain())
            # A crashing experiment must not lose the batched records
            # accumulated before it, nor leave the campaign stuck at
            # "running" — flush and mark aborted before propagating.
            try:
                ingest.flush()
            except Exception:
                # Always leave a trace of the lost batch; re-raise only
                # when it would not mask the original failure.
                logger.exception(
                    "campaign %r: failed to flush pending records", config.name
                )
                if not failed:
                    raise
            progress.finish()
            status = "aborted" if (aborted or failed) else "completed"
            db.set_campaign_status(config.name, status)
            logger.info(
                "campaign %r %s: %d/%d experiments in %.1fs",
                config.name,
                status,
                ingest.completed,
                len(remaining),
                progress.elapsed_seconds,
            )
            ingest.release_held()
            if not failed and tele.enabled:
                snapshot = self._finish_telemetry(
                    config.name, executor.workers, ingest, sampler
                )
            bus.emit(
                "campaign_aborted" if status == "aborted" else "campaign_finished",
                campaign=config.name,
                completed=ingest.completed,
                total=len(remaining),
                elapsed_seconds=round(progress.elapsed_seconds, 6),
            )
        return CampaignResult(
            campaign_name=config.name,
            experiments_run=ingest.completed,
            experiments_planned=len(remaining),
            aborted=aborted,
            elapsed_seconds=progress.elapsed_seconds,
            checkpoint_stats=ingest.checkpoint_stats,
            telemetry=snapshot,
            prune=prune_plan.report() if self.prune_config is not None else None,
            profile=snapshot.get("profile") if snapshot is not None else None,
            resource_samples=(
                ingest.samples_seen if self.resource_config is not None else None
            ),
        )

    def run_shard(
        self,
        config: CampaignConfig,
        specs,
        trace: ReferenceTrace,
        send,
        should_stop,
        *,
        checkpoints: bool = False,
        golden=None,
        initial=None,
        sampler: ResourceSampler,
        followers=None,
    ) -> dict:
        """Run ``specs`` in this process — the experiment loop of both
        executors.

        After each experiment ``send(row, outcome, spans, probes,
        samples)`` receives its complete row, classified against
        :attr:`reference_state` (:meth:`ReferenceState.row
        <repro.analysis.classify.ReferenceState.row>`), and termination
        outcome plus the span records, probe summaries and resource
        samples gathered with it; ``should_stop()`` is checked
        before each experiment.  ``followers`` maps a spec's name to
        its memo followers, ``(spec, check)`` pairs
        (:meth:`PrunePlan.memoize
        <repro.core.liveness.PrunePlan.memoize>`): right after the
        spec, each follower is sent its replayed row
        (:func:`~repro.core.liveness.replay_row`) with no span, or, when
        checked, is simulated too.  ``checkpoints`` gives the shard its own
        checkpoint cache (pre-seeded at cycle 0 with ``initial``, an
        armed fault-free image, when one is given); ``golden`` turns on
        probing against those snapshots; ``sampler`` takes the cadence
        resource samples.  Returns the shard-end summary: the
        ``profile`` table and the ``checkpoint`` cache stats.
        """
        run_experiment = self.experiment_runner(config.technique)
        make_row = self.reference_state.row
        tele = self.telemetry
        cache = CheckpointCache(self.checkpoint_capacity) if checkpoints else None
        if cache is not None and initial is not None:
            # Every experiment's reset-and-run preamble becomes one
            # buffer-copy restore instead.
            cache.save(0, initial)
        probes = None
        if golden is not None:
            probes = ProbeSession.create(
                self.target,
                lambda: self._prepare_target(config, faulty_environment=False),
                config.termination,
                self.probe_config,
                golden=golden,
            )
        self.checkpoints = cache
        self.probes = probes
        collector = ProfileCollector() if self.profile else None
        try:
            if collector is not None:
                collector.start()
            for spec in specs:
                if should_stop():
                    break
                record = run_experiment(config, spec, trace)
                sampler.maybe_sample()
                row = make_row(record)
                outcome = record.state_vector["termination"]["outcome"]
                send(
                    row,
                    outcome,
                    tele.drain_spans(),
                    probes.drain() if probes is not None else None,
                    sampler.drain(),
                )
                group = followers.get(spec.name) if followers else None
                if not group:
                    continue
                applied = [
                    entry["applied"] for entry in record.experiment_data["faults"]
                ]
                for follower, check in group:
                    if check:
                        checked = run_experiment(config, follower, trace)
                        send(
                            make_row(checked),
                            checked.state_vector["termination"]["outcome"],
                            tele.drain_spans(),
                            None,
                            sampler.drain(),
                        )
                    else:
                        schedule = executed_schedule(config, follower, trace)
                        send(
                            replay_row(config, follower, schedule, row, applied),
                            outcome, (), None, (),
                        )
        finally:
            if collector is not None:
                collector.stop()
            self.checkpoints = None
            self.probes = None
        return {
            "profile": collector.stats_payload() if collector is not None else None,
            "checkpoint": cache.stats.to_dict() if cache is not None else None,
        }

    def _finish_telemetry(
        self,
        campaign_name: str,
        workers: int,
        ingest: _Ingest,
        sampler: ResourceSampler,
    ) -> dict:
        """Close out a telemetered campaign: fold the coordinator's
        resource, execution-engine and checkpoint-cache counters into
        the registry, emit the final snapshot as the ``metrics`` record,
        write it with the database subscriber's queue, and return it.
        A ``--profile`` run's aggregated hotspot summary rides along in
        the snapshot under the ``profile`` key."""
        metrics = self.telemetry.metrics
        sampler.fold_into(metrics)
        fold_engine_stats(metrics, self.target)
        for key, value in (ingest.checkpoint_stats or {}).items():
            metrics.inc(f"checkpoint.cache.{key}", value)
        metrics.set_gauge("workers", workers)
        metrics.set_gauge("elapsed_seconds", self.progress.elapsed_seconds)
        snapshot = metrics.snapshot()
        if ingest.profiles:
            snapshot["profile"] = profile_summary(
                merge_profile_stats(ingest.profiles), workers=len(ingest.profiles)
            )
        self.events.emit("metrics", campaign=campaign_name, snapshot=snapshot)
        ingest.flush()
        return snapshot

    # ------------------------------------------------------------------
    # Experiment bodies
    # ------------------------------------------------------------------
    def _prepare_target(
        self, config: CampaignConfig, faulty_environment: bool = True
    ) -> None:
        """initTestCard + loadWorkload + environment attachment — the
        common preamble of every experiment and of the reference run.

        ``faulty_environment`` controls whether the campaign's declared
        environment-boundary faults (``environment["faults"]``) are
        armed: experiments pass True, while reference runs and golden
        probe passes pass False so classification always compares
        against a clean baseline.  The environment (wrapper and RNG
        stream included) is recreated here per experiment, which keeps
        rows deterministic regardless of worker count.
        """
        target = self.target
        target.init_test_card()
        environment = None
        if config.environment is not None:
            environment = create_environment(
                config.environment["name"], config.environment.get("params")
            )
            faults = config.environment.get("faults")
            if faulty_environment and faults is not None:
                from ..workloads.envsim import wrap_environment

                environment = wrap_environment(environment, faults)
        target.set_environment(environment)
        target.load_workload(config.workload)

    def _arm_target(self, config: CampaignConfig, schedule, span=NULL_SPAN) -> None:
        """Bring the target to the armed, fault-free state every
        breakpoint-driven experiment starts from: restore the nearest
        checkpoint at or before the first injection when one is cached,
        else do the full reset-and-run preamble."""
        cache = self.checkpoints
        if cache is not None and schedule:
            checkpoint = cache.nearest(schedule[0][0])
            if checkpoint is not None:
                with span.phase("restore"):
                    self.target.restore_state(checkpoint.state)
                span.add("checkpoint.restores")
                return
            span.add("checkpoint.misses")
        with span.phase("setup"):
            self._prepare_target(config)
            self.target.run_workload()

    def _save_checkpoint(self, cycle: int, span=NULL_SPAN) -> None:
        """Snapshot the target at an experiment's *first* breakpoint —
        guaranteed fault-free, since nothing has been injected yet."""
        cache = self.checkpoints
        if cache is not None and not cache.has(cycle):
            cache.save(cycle, self.target.save_state())
            span.add("checkpoint.saves")

    def _run_scifi_experiment(
        self, config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
    ) -> ExperimentRecord:
        """One SCIFI experiment: the inner loop of Figure 2."""
        target = self.target
        span = self.telemetry.span(spec.name)
        schedule = injection_schedule(spec, trace)
        probe = self._observe(spec, schedule)
        self._arm_target(config, schedule, span)
        armed_cycle = 0 if span is NULL_SPAN else target.current_cycle()

        applied: list[dict] = []
        ended_early: TerminationInfo | None = None
        for position, (cycle, fault) in enumerate(schedule):
            with span.phase("execution"):
                if probe is None:
                    ended_early = target.wait_for_breakpoint(cycle)
                else:
                    ended_early = probe.run_to_breakpoint(target, cycle)
            if position == 0 and ended_early is None:
                self._save_checkpoint(cycle, span)
            if ended_early is not None:
                applied.append(fault_entry(fault, cycle, False))
                continue
            with span.phase("injection"):
                self._apply_fault(fault, spec.seed)
            span.add("injections")
            applied.append(fault_entry(fault, cycle, True))

        return self._finish_experiment(
            config, spec, applied, ended_early, span, armed_cycle, probe
        )

    def _run_swifi_preruntime_experiment(
        self, config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
    ) -> ExperimentRecord:
        """One pre-runtime SWIFI experiment: corrupt the image, run."""
        target = self.target
        span = self.telemetry.span(spec.name)
        with span.phase("setup"):
            self._prepare_target(config)
        applied: list[dict] = []
        with span.phase("injection"):
            for fault in spec.faults:
                location = fault.location
                if location.kind != KIND_MEMORY:
                    raise ConfigurationError(
                        f"pre-runtime SWIFI cannot inject into {location.label()}"
                    )
                self._apply_fault(fault, spec.seed)
                applied.append(fault_entry(fault, 0, True))
        span.add("injections", len(applied))
        target.run_workload()
        armed_cycle = 0 if span is NULL_SPAN else target.current_cycle()
        probe = self._observe(spec, schedule=[])
        return self._finish_experiment(
            config, spec, applied, None, span, armed_cycle, probe
        )

    def _run_swifi_runtime_experiment(
        self, config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
    ) -> ExperimentRecord:
        """One runtime SWIFI experiment: stop at the trigger and corrupt
        memory (or an architecturally visible register) via the host
        debugger link, then resume."""
        target = self.target
        span = self.telemetry.span(spec.name)
        schedule = injection_schedule(spec, trace)
        probe = self._observe(spec, schedule)
        self._arm_target(config, schedule, span)
        armed_cycle = 0 if span is NULL_SPAN else target.current_cycle()

        applied: list[dict] = []
        ended_early: TerminationInfo | None = None
        for position, (cycle, fault) in enumerate(schedule):
            with span.phase("execution"):
                if probe is None:
                    ended_early = target.wait_for_breakpoint(cycle)
                else:
                    ended_early = probe.run_to_breakpoint(target, cycle)
            if position == 0 and ended_early is None:
                self._save_checkpoint(cycle, span)
            if ended_early is not None:
                applied.append(fault_entry(fault, cycle, False))
                continue
            with span.phase("injection"):
                location = fault.location
                if location.kind == KIND_MEMORY or location.element.startswith("regs."):
                    self._apply_fault(fault, spec.seed)
                else:
                    raise ConfigurationError(
                        f"runtime SWIFI reaches memory and registers only, "
                        f"not {location.label()}"
                    )
            span.add("injections")
            applied.append(fault_entry(fault, cycle, True))

        return self._finish_experiment(
            config, spec, applied, ended_early, span, armed_cycle, probe
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _observe(self, spec: ExperimentSpec, schedule):
        """An :class:`~repro.core.probes.ExperimentProbe` for this
        experiment when a probe session is active, else ``None``.  The
        first injection cycle anchors the probe schedule (probes sample
        strictly after it)."""
        probes = self.probes
        if probes is None:
            return None
        first_injection = schedule[0][0] if schedule else 0
        return probes.observe(spec.name, spec.index, first_injection)

    def _apply_fault(self, fault: PlannedFault, seed: int) -> None:
        """Overlay installation for permanent and intermittent models;
        for transients, readScanChain / injectFault / writeScanChain on
        a scan element, or a read-flip-write of a memory word."""
        target = self.target
        location = fault.location
        if not is_transient(fault.model):
            target.install_fault_overlay(location, fault.model, seed)
        elif location.kind == KIND_MEMORY:
            word = target.read_memory(location.address, 1)[0]
            target.write_memory(location.address, [word ^ (1 << location.bit)])
        elif location.kind == KIND_SCAN:
            target.read_scan_chain(location.chain)
            target.inject_fault(location)
            target.write_scan_chain(location.chain)
        else:
            raise TargetError(f"cannot inject into {location.label()}")

    def _finish_experiment(
        self,
        config: CampaignConfig,
        spec: ExperimentSpec,
        applied: list[dict],
        ended_early: TerminationInfo | None,
        span=NULL_SPAN,
        armed_cycle: int = 0,
        probe=None,
    ) -> ExperimentRecord:
        """waitForTermination + readMemory + readScanChain: run to the
        end and log the observed state."""
        if ended_early is not None:
            info = ended_early
            steps: list[dict] | None = None
        elif config.logging_mode == LOGGING_DETAIL:
            # Detail mode already observes every instruction; probes
            # sample only in the breakpoint segments before it.
            with span.phase("execution"):
                info, steps = self._detailed_run(config)
        else:
            with span.phase("execution"):
                if probe is None:
                    info = self.target.wait_for_termination(config.termination)
                else:
                    info = probe.run_to_termination(
                        self.target, config.termination
                    )
            steps = None
        if probe is not None:
            probe.finish(info, applied)
        with span.phase("readout"):
            final_state = self.target.capture_state(config.observation)
        state_vector: dict = {"termination": info.to_dict(), "final": final_state}
        if steps is not None:
            state_vector["steps"] = steps
        if span is not NULL_SPAN:
            # Cycles simulated by this experiment (after arming) — a
            # deterministic work measure: serial and parallel runs of
            # the same plan total the same count.
            span.add("instructions", self.target.current_cycle() - armed_cycle)
        span.finish(info.outcome)
        return ExperimentRecord(
            experiment_name=spec.name,
            campaign_name=config.name,
            experiment_data={
                "technique": config.technique,
                "index": spec.index,
                "seed": spec.seed,
                "faults": applied,
            },
            state_vector=state_vector,
        )

    def _detailed_run(self, config: CampaignConfig) -> tuple[TerminationInfo, list[dict]]:
        """Detail mode: single-step to termination, logging the system
        state every ``detail_period`` instructions."""
        target = self.target
        steps: list[dict] = []
        period = config.detail_period
        executed = 0
        while True:
            info = target.single_step(config.termination)
            executed += 1
            if executed % period == 0 or info is not None:
                steps.append(
                    {
                        "cycle": target.current_cycle(),
                        "state": target.capture_state(config.observation),
                    }
                )
            if info is not None:
                return info, steps

    # ------------------------------------------------------------------
    # Re-run support (parentExperiment workflow)
    # ------------------------------------------------------------------
    def rerun_experiment_detailed(
        self, experiment_name_to_rerun: str, new_experiment_name: str | None = None
    ) -> ExperimentRecord:
        """Re-run a logged experiment in detail mode, logging the state
        after each machine instruction, and store it with
        ``parentExperiment`` pointing at the original — the paper's
        E1/E2 investigation workflow (§2.3).
        """
        parent = self.db.load_experiment(experiment_name_to_rerun)
        config = self.read_campaign_data(parent.campaign_name)
        detail_config = CampaignConfig.from_dict(
            {**config.to_dict(), "logging_mode": LOGGING_DETAIL, "detail_period": 1}
        )
        technique = parent.experiment_data["technique"]
        if technique == "reference":
            # Re-running the fault-free reference in detail mode gives
            # the per-instruction baseline that propagation analysis
            # diffs faulty re-runs against.
            technique = config.technique
            faults = []
        else:
            faults = [
                PlannedFault.from_dict(entry)
                for entry in parent.experiment_data["faults"]
            ]
        spec = ExperimentSpec(
            name=new_experiment_name or f"{experiment_name_to_rerun}/detail",
            index=int(parent.experiment_data.get("index", 0)),
            faults=tuple(faults),
            seed=int(parent.experiment_data.get("seed", detail_config.seed)),
        )
        # Reuse the cached reference trace only when it was recorded
        # under a config with the same trace-relevant fields — a stale
        # trace from another campaign/workload would silently resolve
        # triggers against the wrong execution.
        key = self._trace_cache_key(detail_config)
        trace = self.reference_trace if self._reference_trace_key == key else None
        if trace is None:
            self._prepare_target(detail_config, faulty_environment=False)
            _, trace = self.target.record_trace(detail_config.termination)
            self.reference_trace = trace
            self._reference_trace_key = key
        try:
            runner = self.experiment_runner(technique)
        except ConfigurationError:
            raise ConfigurationError(f"cannot re-run technique {technique!r}") from None
        record = runner(detail_config, spec, trace)
        record = ExperimentRecord(
            experiment_name=spec.name,
            campaign_name=record.campaign_name,
            experiment_data=record.experiment_data,
            state_vector=record.state_vector,
            parent_experiment=parent.experiment_name,
        )
        self.db.save_experiment(record)
        return record



def register_target_system(db: GoofiDatabase, target: TargetSystemInterface) -> None:
    """Configuration phase: store the target's description in
    ``TargetSystemData`` (what the paper's Figure 5 GUI does)."""
    db.save_target(
        TargetSystemRecord(
            target_name=target.target_name,
            test_card_name=target.test_card_name,
            config=target.describe(),
        )
    )


def store_campaign(db: GoofiDatabase, config: CampaignConfig) -> None:
    """Set-up phase: store a campaign configuration in ``CampaignData``."""
    db.save_campaign(
        CampaignRecord(
            campaign_name=config.name,
            target_name=config.target,
            test_card_name="",
            config=config.to_dict(),
        )
    )
