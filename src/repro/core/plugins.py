"""Plugin registry: target systems and fault-injection techniques.

"A major objective of the tool is to ... assist the user when adapting
the tool for new target systems and new fault injection techniques."
Adaptation is two registrations:

* a target system registers its :class:`TargetSystemInterface` factory
  under a name (used as the ``TargetSystemData`` key);
* a technique registers the name of its experiment-body method on
  :class:`repro.core.algorithms.FaultInjectionAlgorithms` (or a
  subclass); the one campaign pipeline runs that body per experiment.

A target or environment factory registers either as the callable
itself or by its module path, ``"package.module:attribute"``: the
registry then imports the module on the first :func:`create_target` or
:func:`create_environment` call that names it, so a campaign process
compiles only the target and environment it runs.  The built-in
targets, environments and the SCIFI / SWIFI techniques register
themselves on import of :mod:`repro`, the targets and environments by
module path.
"""

from __future__ import annotations

import sys
from typing import Callable, Union

from .errors import ConfigurationError
from .framework import TargetSystemInterface

#: Names of the built-in targets (each equals its interface module's
#: ``TARGET_NAME``), so that naming one imports nothing.
THOR_RD = "thor-rd-sim"
THOR_SM = "thor-sm"

#: A factory, or the ``"package.module:attribute"`` path of one.
Factory = Union[Callable, str]

_TARGETS: dict[str, Factory] = {}
_TECHNIQUES: dict[str, str] = {}


def _resolve(registry: dict[str, Factory], name: str) -> Callable:
    """The factory registered under ``name``, importing it (once) when
    it was registered by module path."""
    factory = registry[name]
    if isinstance(factory, str):
        module, _, attribute = factory.partition(":")
        __import__(module)  # timed by ``python -X importtime``, unlike import_module
        factory = getattr(sys.modules[module], attribute)
        registry[name] = factory
    return factory


def register_target(
    name: str, factory: Callable[[], TargetSystemInterface] | str
) -> None:
    """Register a target-system interface factory under ``name``: the
    callable, or its ``"package.module:attribute"`` path, imported on
    the first :func:`create_target` of ``name``."""
    if name in _TARGETS:
        raise ConfigurationError(f"target {name!r} is already registered")
    _TARGETS[name] = factory


def create_target(name: str) -> TargetSystemInterface:
    if name not in _TARGETS:
        known = ", ".join(sorted(_TARGETS)) or "(none)"
        raise ConfigurationError(f"unknown target {name!r}; registered: {known}")
    return _resolve(_TARGETS, name)()


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


_ENVIRONMENTS: dict[str, Factory] = {}


def register_environment(name: str, factory: Callable[..., object] | str) -> None:
    """Register an environment-simulator factory (the callable, or its
    ``"package.module:attribute"`` path).

    The factory is called with the campaign's environment ``params``
    dict expanded as keyword arguments and must return an object with an
    ``exchange(target, iteration)`` method (see
    :mod:`repro.workloads.envsim`).
    """
    if name in _ENVIRONMENTS:
        raise ConfigurationError(f"environment {name!r} is already registered")
    _ENVIRONMENTS[name] = factory


def create_environment(name: str, params: dict | None = None):
    """A new environment simulator ``name`` built from ``params``; an
    unknown name or parameters its factory refuses raise
    :class:`ConfigurationError`."""
    if name not in _ENVIRONMENTS:
        known = ", ".join(sorted(_ENVIRONMENTS)) or "(none)"
        raise ConfigurationError(
            f"unknown environment simulator {name!r}; registered: {known}"
        )
    factory = _resolve(_ENVIRONMENTS, name)
    try:
        return factory(**(params or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"environment simulator {name!r} refused params {params!r}: {exc}"
        ) from None


def registered_environments() -> list[str]:
    return sorted(_ENVIRONMENTS)


def _reset_for_tests() -> None:
    """Clear the registries (test isolation helper)."""
    _TARGETS.clear()
    _TECHNIQUES.clear()
    _ENVIRONMENTS.clear()
