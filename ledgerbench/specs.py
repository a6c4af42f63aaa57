"""The ledger's workloads: one campaign configuration each, made from a seed.

Each workload stresses a different layer of the campaign engine (see
README.md for why each was chosen).  ``build`` turns the benchmark's
seed into a stored :class:`repro.CampaignConfig`, and
``Workload.run_kwargs`` gives the keyword arguments of the one
``GoofiSession.run_campaign`` call that is timed; the program sees
nothing of the benchmark but those two.

``REFERENCE_RUN`` is the configuration the expected rows come from: the
plain serial loop on the target's reference execution engine, with no
checkpoints, pruning, workers or observability.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CAMPAIGN = "ledger"

#: Seed whose expected row digests are committed under ``expected/``.
DEFAULT_SEED = 2001

#: Keyword arguments of the correctness run every timed run is checked
#: against: the plain serial reference loop.
REFERENCE_RUN = {"fast": False}


@dataclass(frozen=True)
class Workload:
    name: str
    target: str
    technique: str
    program: str
    locations: tuple[str, ...]
    #: Planned experiments per campaign at full size.
    experiments: int
    #: Loop-iteration budget; only looping control programs use one.
    max_iterations: int = 200
    #: Attach the ``dc_motor`` plant at the program's sensor/actuator.
    plant: bool = False
    checkpoints: bool = False
    prune: bool = False
    workers: int = 1
    #: Spans, a JSONL event file and resource sampling during the run.
    observed: bool = False

    def run_kwargs(self, workdir: Path) -> dict:
        """Keyword arguments of the timed ``run_campaign`` call."""
        kwargs: dict = {}
        if self.checkpoints:
            kwargs["checkpoints"] = True
        if self.prune:
            kwargs["prune"] = True
        if self.workers > 1:
            kwargs["workers"] = self.workers
        if self.observed:
            kwargs["telemetry"] = "spans"
            kwargs["events"] = str(workdir / "events.jsonl")
            kwargs["resources"] = True
        return kwargs


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="rd_control_ckpt_prune",
            target="thor-rd-sim",
            technique="scifi",
            program="control_protected",
            locations=("internal:regs.*",),
            experiments=900,
            max_iterations=80,
            plant=True,
            checkpoints=True,
            prune=True,
        ),
        Workload(
            name="sm_swifi_workers2_observed",
            target="thor-sm",
            technique="swifi_preruntime",
            program="s_checksum",
            locations=("memory:data",),
            experiments=4000,
            workers=2,
            observed=True,
        ),
    )
}


def build(session, workload: Workload, seed: int, experiments: int):
    """Store the workload's campaign for ``seed`` in ``session`` and
    return its config.  Runs the set-up phase the paper describes:
    a fault-free probe run sizes the watchdog, the observation set is
    the target's working state plus the program's data area."""
    from repro import CampaignConfig
    from repro.workloads import load

    extra: dict = {}
    if workload.plant:
        program = load(workload.program)
        extra["environment"] = {
            "name": "dc_motor",
            "params": {
                "sensor_addr": program.symbol("sensor"),
                "actuator_addr": program.symbol("actuator"),
            },
        }
    config = CampaignConfig(
        name=CAMPAIGN,
        target=workload.target,
        technique=workload.technique,
        workload=workload.program,
        location_patterns=workload.locations,
        num_experiments=experiments,
        termination=session.default_termination(
            workload.program, max_iterations=workload.max_iterations
        ),
        observation=session.default_observation(workload.program),
        seed=seed,
        **extra,
    )
    session.setup_campaign(config)
    return config
