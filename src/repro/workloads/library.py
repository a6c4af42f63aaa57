"""The workload library: named, assembled workload images.

The set-up phase "selects the target system workload" by name; the
target interface resolves the name through this library.  Sources come
from :mod:`repro.workloads.programs` (self-terminating benchmarks) and
:mod:`repro.workloads.control` (infinite-loop control applications);
images are assembled once and cached.  The thor-rd assembler is
imported by the first :func:`load`, so asking for a name's kind
(:func:`is_loop_workload`) does not compile the thor-rd target.
"""

from __future__ import annotations

from functools import lru_cache

from .control import CONTROL_SOURCES
from .programs import PROGRAM_SOURCES

#: All workload sources by name.
SOURCES: dict[str, str] = {**PROGRAM_SOURCES, **CONTROL_SOURCES}

#: Workloads that run as an infinite loop and need an iteration limit.
LOOP_WORKLOADS = frozenset(CONTROL_SOURCES)


def workload_names() -> list[str]:
    return sorted(SOURCES)


@lru_cache(maxsize=None)
def load(name: str):
    """Assemble (and cache) the named workload: a
    :class:`repro.targets.thor.assembler.Program`."""
    from ..targets.thor.assembler import Assembler

    try:
        source = SOURCES[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise KeyError(f"unknown workload {name!r}; available: {known}") from None
    return Assembler().assemble(source)


def is_loop_workload(name: str) -> bool:
    return name in LOOP_WORKLOADS
