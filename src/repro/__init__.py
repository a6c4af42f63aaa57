"""GOOFI reproduction: a Generic Object-Oriented Fault Injection tool.

A complete Python reproduction of *GOOFI: Generic Object-Oriented Fault
Injection Tool* (Aidemark, Vinter, Folkesson, Karlsson — DSN 2001),
including the target system it needs: a simulated THOR-RD-like
microprocessor with scan-chain test logic, parity-protected caches, and
hardware error-detection mechanisms.

``import repro`` loads the campaign engine, the database and the
analysis phase; each target, environment simulator and analysis tool
loads when a campaign or a call first names it (see
``docs/performance.md``, "Start-up").

Quickstart::

    from repro import GoofiSession, CampaignConfig, TransientBitFlip

    with GoofiSession("goofi.db") as session:
        config = CampaignConfig(
            name="demo",
            target="thor-rd-sim",
            technique="scifi",
            workload="bubble_sort",
            location_patterns=("internal:regs.*",),
            num_experiments=100,
            termination=session.default_termination("bubble_sort"),
            observation=session.default_observation("bubble_sort"),
            seed=42,
        )
        session.setup_campaign(config)
        session.run_campaign("demo")
        print(session.report("demo"))
"""

from __future__ import annotations

import logging as _logging

# Library-logging etiquette: the package stays silent unless the
# application (or ``goofi`` via repro.logconfig.setup_logging) attaches
# a handler.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from .core import plugins as _plugins
from .core import (
    BranchTrigger,
    BreakpointTrigger,
    CallTrigger,
    CampaignConfig,
    CampaignResult,
    ClockTrigger,
    ConfigurationError,
    DataAccessTrigger,
    FaultInjectionAlgorithms,
    GoofiError,
    IntermittentBitFlip,
    Location,
    LocationSpace,
    ObservationSpec,
    ProgressReporter,
    StuckAt,
    TargetError,
    TargetSystemInterface,
    Telemetry,
    Termination,
    TimeTrigger,
    TransientBitFlip,
    merge_campaigns,
    register_target_system,
    resolve_telemetry,
    store_campaign,
)
from .db import GoofiDatabase
from .logconfig import setup_logging
from .session import GoofiSession

__version__ = "1.0.0"


def _register_builtins() -> None:
    """Register the built-in targets, techniques, and environment
    simulators.  Idempotent: safe across repeated imports and test
    registry resets.  Targets and environments register by module
    path, so none of their modules loads before a campaign names it."""
    targets = {
        _plugins.THOR_RD: "repro.targets.thor.interface:create_thor_target",
        _plugins.THOR_SM: "repro.targets.stack.interface:create_stack_target",
    }
    for name, factory in targets.items():
        if name not in _plugins.registered_targets():
            _plugins.register_target(name, factory)
    # Pin-level injection is the SCIFI body on the boundary scan chain.
    technique_bodies = {
        "scifi": "_run_scifi_experiment",
        "swifi_preruntime": "_run_swifi_preruntime_experiment",
        "swifi_runtime": "_run_swifi_runtime_experiment",
        "pinlevel": "_run_scifi_experiment",
    }
    for name, method in technique_bodies.items():
        if name not in _plugins.registered_techniques():
            _plugins.register_technique(name, method)
    environments = {
        "dc_motor": "repro.workloads.envsim:DCMotor",
        "water_tank": "repro.workloads.envsim:WaterTank",
    }
    for name, factory in environments.items():
        if name not in _plugins.registered_environments():
            _plugins.register_environment(name, factory)


_register_builtins()

__all__ = [
    "BranchTrigger",
    "BreakpointTrigger",
    "CallTrigger",
    "CampaignConfig",
    "CampaignResult",
    "ClockTrigger",
    "ConfigurationError",
    "DataAccessTrigger",
    "FaultInjectionAlgorithms",
    "GoofiDatabase",
    "GoofiError",
    "GoofiSession",
    "IntermittentBitFlip",
    "Location",
    "LocationSpace",
    "ObservationSpec",
    "ProgressReporter",
    "StuckAt",
    "TargetError",
    "TargetSystemInterface",
    "Telemetry",
    "Termination",
    "TimeTrigger",
    "TransientBitFlip",
    "merge_campaigns",
    "register_target_system",
    "resolve_telemetry",
    "setup_logging",
    "store_campaign",
    "__version__",
]
