"""High-level facade: the four-phase GOOFI workflow in one object.

The paper's workflow is configuration → set-up → fault injection →
analysis (§3).  :class:`GoofiSession` walks those phases with a few
method calls, which is what the quickstart example and the CLI use::

    from repro import GoofiSession, CampaignConfig, ...

    session = GoofiSession("campaigns.db")           # configuration
    config = session.simple_campaign(...)            # set-up
    session.setup_campaign(config)
    result = session.run_campaign(config.name)       # fault injection
    print(session.report(config.name))               # analysis
"""

from __future__ import annotations

from pathlib import Path

from .analysis import CampaignClassification, campaign_report, classify_campaign
from .core import (
    THOR_RD,
    CampaignConfig,
    CampaignResult,
    FaultInjectionAlgorithms,
    ObservationSpec,
    ProgressReporter,
    TargetSystemInterface,
    Termination,
    create_target,
    merge_campaigns,
    register_target_system,
    store_campaign,
)
from .core.algorithms import campaign_environment
from .db import GoofiDatabase


class GoofiSession:
    """One host-side GOOFI session: a database, a target, and the
    fault-injection algorithms bound together."""

    def __init__(
        self,
        db_path: str | Path = ":memory:",
        target_name: str = THOR_RD,
        target: TargetSystemInterface | None = None,
        progress: ProgressReporter | None = None,
    ) -> None:
        self.db = GoofiDatabase(db_path)
        self.target = target if target is not None else create_target(target_name)
        self.progress = progress or ProgressReporter()
        self.algorithms = FaultInjectionAlgorithms(self.target, self.db, self.progress)
        # Configuration phase: make the target known to the database.
        register_target_system(self.db, self.target)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "GoofiSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Set-up phase
    # ------------------------------------------------------------------
    def default_observation(self, workload: str) -> ObservationSpec:
        """A sensible observation selection for a workload: the target's
        working-state scan group, the workload's data area, and the
        output log.

        The working-state group is whichever the target offers: the
        register file on a register machine, the control pointers on a
        stack machine (whose cell arrays are too transient to compare
        meaningfully), falling back to all writable non-array internal
        elements.
        """
        self.target.init_test_card()
        self.target.load_workload(workload)
        space = self.target.location_space()
        data = space.region("data")
        groups = space.groups("internal")
        if "regs" in groups:
            observed = groups["regs"]
        elif "ctrl" in groups:
            observed = [e for e in groups["ctrl"] if e.writable]
        else:
            observed = [
                e
                for elements in groups.values()
                for e in elements
                if e.writable
            ]
        return ObservationSpec(
            scan_elements=tuple(f"internal:{e.name}" for e in observed),
            memory_ranges=((data.base, data.words),),
            include_outputs=True,
        )

    def default_termination(
        self, workload: str, slack_factor: float = 4.0, max_iterations: int = 200
    ) -> Termination:
        """A watchdog budget derived from the workload's fault-free
        duration (the usual way time-out values are chosen), measured
        by one plain run: the budget needs the run's length only, not
        its trace."""
        from .workloads.library import is_loop_workload

        target = self.target
        target.init_test_card()
        target.load_workload(workload)
        probe = Termination(
            max_cycles=2_000_000,
            max_iterations=max_iterations if is_loop_workload(workload) else None,
        )
        target.run_workload()
        info = target.wait_for_termination(probe)
        return Termination(
            max_cycles=max(100, int(info.cycle * slack_factor)),
            max_iterations=probe.max_iterations,
        )

    def workload_symbol(self, workload: str, name: str) -> int:
        """The address of symbol ``name`` in ``workload`` as loaded on
        the session's target (an environment's sensor or actuator
        cell, a task-switch dispatcher)."""
        target = self.target
        target.init_test_card()
        target.load_workload(workload)
        return target.workload_symbol(name)

    def setup_campaign(self, config: CampaignConfig) -> None:
        """Store a campaign configuration (``CampaignData`` row), once its
        location patterns resolve on its target with its workload
        loaded and its environment simulator builds: a pattern that
        matches nothing, an unknown simulator, or params or faults the
        simulator refuses raise
        :class:`~repro.core.errors.ConfigurationError` here, before
        anything is stored, not when the campaign first runs."""
        target = (
            self.target
            if config.target == self.target.target_name
            else create_target(config.target)
        )
        target.init_test_card()
        target.load_workload(config.workload)
        target.location_space().select(list(config.location_patterns))
        campaign_environment(config)
        store_campaign(self.db, config)

    def merge_into_campaign(self, names: list[str], new_name: str) -> CampaignConfig:
        """Merge stored campaigns into a new stored campaign (§3.2)."""
        configs = [
            CampaignConfig.from_dict(self.db.load_campaign(name).config) for name in names
        ]
        merged = merge_campaigns(configs, new_name)
        self.setup_campaign(merged)
        return merged

    # ------------------------------------------------------------------
    # Fault-injection phase
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
        """Run a stored campaign.  ``workers > 1`` shards the experiment
        plan across that many processes (single-writer coordinator, see
        :mod:`repro.core.parallel`); ``checkpoints=True`` reuses cached
        fault-free prefix state between experiments
        (:mod:`repro.core.checkpoint`); ``fast=False`` forces the
        target's reference execution loop instead of the fused fast
        path.  ``telemetry`` records campaign metrics (and, at
        ``"spans"``, per-experiment phase records) into the database —
        see :mod:`repro.core.telemetry`.  ``probes`` turns on
        propagation probes (``True``, a probe period, or a
        :class:`repro.core.probes.ProbeConfig`) which record a
        fault-effect summary per experiment — see
        :mod:`repro.core.probes`.  ``prune`` enables liveness-based
        experiment pruning (``True``, a spot-check rate, or a
        :class:`repro.core.liveness.PruneConfig`): experiments whose
        faults are provably overwritten before being read are logged
        without simulation — see :mod:`repro.core.liveness`.  ``events``
        adds sinks to the run's event bus (a destination string, sink
        list, or :class:`repro.core.events.EventBus`), which carries
        every observation record — lifecycle, experiments, spans, the
        final ``metrics`` snapshot, resource samples — for ``goofi
        watch``, the progress ticker, and recording; the database
        persists its share from the same bus — see
        :mod:`repro.core.events`.
        ``resources`` samples each worker's CPU/RSS/shared-memory
        footprint into the ``ResourceSample`` table (``True``, a
        sampling period in seconds, or a
        :class:`repro.core.resources.ResourceConfig`) — see
        :mod:`repro.core.resources`.  ``profile=True`` wraps each
        worker's experiment loop in :mod:`cProfile` and persists the
        aggregated hotspot summary for ``goofi stats --profile``.
        Logged rows are identical to the plain serial loop in all
        cases."""
        return self.algorithms.run_campaign(
            campaign_name,
            resume=resume,
            workers=workers,
            checkpoints=checkpoints,
            fast=fast,
            telemetry=telemetry,
            probes=probes,
            prune=prune,
            events=events,
            resources=resources,
            profile=profile,
        )

    def stats(self, campaign_name: str) -> str:
        """The telemetry report for a campaign run with telemetry on."""
        from .analysis import stats_report

        return stats_report(self.db, campaign_name)

    # ------------------------------------------------------------------
    # Analysis phase
    # ------------------------------------------------------------------
    def classify(self, campaign_name: str) -> CampaignClassification:
        return classify_campaign(self.db, campaign_name)

    def report(self, campaign_name: str) -> str:
        return campaign_report(self.db, campaign_name)
