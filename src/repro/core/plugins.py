"""Plugin registry: target systems and fault-injection techniques.

"A major objective of the tool is to ... assist the user when adapting
the tool for new target systems and new fault injection techniques."
Adaptation is two registrations:

* a target system registers its :class:`TargetSystemInterface` subclass
  under a name (used as the ``TargetSystemData`` key);
* a technique registers the name of its experiment-body method on
  :class:`repro.core.algorithms.FaultInjectionAlgorithms` (or a
  subclass); the one campaign pipeline runs that body per experiment.

The built-in Thor target and the SCIFI / SWIFI techniques register
themselves on import of :mod:`repro`.
"""

from __future__ import annotations

from typing import Callable

from .errors import ConfigurationError
from .framework import TargetSystemInterface

_TARGETS: dict[str, Callable[[], TargetSystemInterface]] = {}
_TECHNIQUES: dict[str, str] = {}


def register_target(name: str, factory: Callable[[], TargetSystemInterface]) -> None:
    """Register a target-system interface factory under ``name``."""
    if name in _TARGETS:
        raise ConfigurationError(f"target {name!r} is already registered")
    _TARGETS[name] = factory


def create_target(name: str) -> TargetSystemInterface:
    try:
        factory = _TARGETS[name]
    except KeyError:
        known = ", ".join(sorted(_TARGETS)) or "(none)"
        raise ConfigurationError(f"unknown target {name!r}; registered: {known}") from None
    return factory()


def registered_targets() -> list[str]:
    return sorted(_TARGETS)


def register_technique(name: str, body_method: str) -> None:
    """Register technique ``name``, run per experiment by the method
    named ``body_method``: it takes ``(config, spec, trace)`` and
    returns the experiment's :class:`~repro.db.models.ExperimentRecord`."""
    if name in _TECHNIQUES:
        raise ConfigurationError(f"technique {name!r} is already registered")
    _TECHNIQUES[name] = body_method


def technique_method(name: str) -> str:
    try:
        return _TECHNIQUES[name]
    except KeyError:
        known = ", ".join(sorted(_TECHNIQUES)) or "(none)"
        raise ConfigurationError(f"unknown technique {name!r}; registered: {known}") from None


def registered_techniques() -> list[str]:
    return sorted(_TECHNIQUES)


_ENVIRONMENTS: dict[str, Callable[..., object]] = {}


def register_environment(name: str, factory: Callable[..., object]) -> None:
    """Register an environment-simulator factory.

    The factory is called with the campaign's environment ``params``
    dict expanded as keyword arguments and must return an object with an
    ``exchange(target, iteration)`` method (see
    :mod:`repro.workloads.envsim`).
    """
    if name in _ENVIRONMENTS:
        raise ConfigurationError(f"environment {name!r} is already registered")
    _ENVIRONMENTS[name] = factory


def create_environment(name: str, params: dict | None = None):
    try:
        factory = _ENVIRONMENTS[name]
    except KeyError:
        known = ", ".join(sorted(_ENVIRONMENTS)) or "(none)"
        raise ConfigurationError(
            f"unknown environment simulator {name!r}; registered: {known}"
        ) from None
    return factory(**(params or {}))


def registered_environments() -> list[str]:
    return sorted(_ENVIRONMENTS)


def _reset_for_tests() -> None:
    """Clear the registries (test isolation helper)."""
    _TARGETS.clear()
    _TECHNIQUES.clear()
    _ENVIRONMENTS.clear()
