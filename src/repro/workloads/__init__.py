"""Workloads and environment simulators for the simulated target.

Every name is served on first use (see :mod:`repro.lazy`): a thor-sm
campaign never compiles the environment simulators, and the workload
library assembles a thor-rd image only when one is loaded.
"""

from ..lazy import lazy_names as _lazy_names

#: Submodule → the names this package serves from it on first use.
_LAZY = {
    "control": ("ControlParameters", "protected_source", "unprotected_source"),
    "envsim": (
        "REPLAY_FUNCTIONS",
        "DCMotor",
        "EnvFaultConfig",
        "EnvironmentFaultInjector",
        "WaterTank",
        "replay_dc_motor",
        "replay_water_tank",
        "wrap_environment",
    ),
    "library": ("is_loop_workload", "load", "workload_names"),
    "programs": ("expected_output",),
}

__getattr__, __all__ = _lazy_names(__name__, _LAZY, globals())
