"""Worker resource telemetry for the campaign observatory.

GOOFI campaigns are meant to run as a service: many campaigns multiplexed
onto one worker pool.  Scheduling them sensibly requires knowing what each
campaign actually costs, so this module samples per-process CPU time,
resident set size, and shared-memory footprint on a cadence inside every
worker (and at phase boundaries in the coordinator).

Two backends, one record shape:

``procfs``
    Reads ``/proc/self/stat`` (utime/stime in clock ticks) and
    ``/proc/self/statm`` (resident and shared pages).  Preferred on Linux
    because it exposes the shared pages, such as those a forked worker
    still shares with its coordinator.

``getrusage``
    Falls back to :func:`resource.getrusage` where procfs is unavailable
    (or mid-run, if a read starts failing).  ``ru_maxrss`` is a high-water
    mark rather than an instantaneous RSS and no shared-segment figure
    exists, so ``shm_bytes`` is ``None`` — but the record keys are
    identical, which downstream consumers (the ``ResourceSample`` table,
    the ``resource_sample`` event kind, and ``goofi report``) rely on.

Sampling is strictly observational: samples never touch experiment rows,
and a sampler whose backends are both unavailable degrades to a no-op
rather than failing the campaign.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError

try:  # pragma: no cover - the resource module is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: Default seconds between cadence samples inside the experiment loop.
DEFAULT_RESOURCE_PERIOD = 0.25

#: Every sample record carries exactly these keys, regardless of backend.
RESOURCE_SAMPLE_KEYS = (
    "worker",
    "seq",
    "source",
    "phase",
    "uptime_seconds",
    "cpu_user_seconds",
    "cpu_system_seconds",
    "rss_bytes",
    "shm_bytes",
)

#: ``worker`` value used for samples taken by the parallel coordinator.
COORDINATOR_WORKER = -1


@dataclass(frozen=True, slots=True)
class ResourceConfig:
    """Validated resource-sampling settings, picklable across workers."""

    period_seconds: float = DEFAULT_RESOURCE_PERIOD

    def __post_init__(self) -> None:
        if not (isinstance(self.period_seconds, (int, float))
                and self.period_seconds > 0):
            raise ConfigurationError(
                "resource sampling period must be a positive number, got "
                f"{self.period_seconds!r}"
            )

    def to_dict(self) -> dict:
        return {"period_seconds": float(self.period_seconds)}

    @classmethod
    def from_dict(cls, payload: dict) -> "ResourceConfig":
        return cls(period_seconds=payload.get(
            "period_seconds", DEFAULT_RESOURCE_PERIOD))


def resolve_resources(value) -> ResourceConfig | None:
    """Normalise the ``resources=`` campaign knob.

    Accepts ``None``/``False`` (off), ``True`` (defaults), a positive
    number (cadence in seconds), a dict of :class:`ResourceConfig`
    fields, or a ready-made config.
    """
    if value is None or value is False:
        return None
    if isinstance(value, ResourceConfig):
        return value
    if value is True:
        return ResourceConfig()
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ResourceConfig(period_seconds=float(value))
    if isinstance(value, dict):
        try:
            return ResourceConfig(**value)
        except TypeError as exc:
            raise ConfigurationError(f"bad resources settings: {exc}") from exc
    raise ConfigurationError(
        "resources must be None, a bool, a sampling period in seconds, "
        f"or a ResourceConfig — got {value!r}"
    )


class ResourceSampler:
    """Samples one process's CPU/RSS/shared-memory usage over time.

    Each worker owns its own sampler (the record's ``worker`` field says
    whose process the numbers describe; ``COORDINATOR_WORKER`` marks the
    parallel coordinator).  Samples accumulate in :attr:`pending` and are
    drained by the experiment loop, which hands them to the coordinator
    for the event bus, mirroring the span/probe collection pattern.
    ``backend=False`` builds the no-backend state directly (no ``/proc``
    read): the sampler of a run with resource sampling off, on which
    every call is a no-op.
    """

    __slots__ = (
        "config", "worker", "pending", "samples_taken",
        "max_rss_bytes", "max_shm_bytes", "cpu_user_seconds",
        "cpu_system_seconds", "_proc_root", "_source", "_seq",
        "_started", "_last_sample", "_page_size", "_ticks",
    )

    def __init__(self, config: ResourceConfig | None = None, *,
                 worker: int = 0, proc_root: str | os.PathLike = "/proc/self",
                 backend: bool = True):
        self.config = config or ResourceConfig()
        self.worker = worker
        self.pending: list[dict] = []
        self.samples_taken = 0
        self.max_rss_bytes = 0
        self.max_shm_bytes = 0
        self.cpu_user_seconds = 0.0
        self.cpu_system_seconds = 0.0
        self._proc_root = Path(proc_root)
        self._seq = 0
        self._started = time.monotonic()
        self._last_sample = float("-inf")
        try:
            self._page_size = os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, OSError, ValueError):
            self._page_size = 4096
        try:
            self._ticks = os.sysconf("SC_CLK_TCK") or 100
        except (AttributeError, OSError, ValueError):
            self._ticks = 100
        self._source = self._probe_backend() if backend else None

    @property
    def available(self) -> bool:
        """Whether any backend works; when False, sampling is a no-op."""
        return self._source is not None

    @property
    def source(self) -> str | None:
        return self._source

    def _probe_backend(self) -> str | None:
        if self._read_procfs() is not None:
            return "procfs"
        if self._read_getrusage() is not None:
            return "getrusage"
        return None

    def _read_procfs(self) -> tuple[float, float, int, int] | None:
        try:
            stat_text = (self._proc_root / "stat").read_text()
            statm_text = (self._proc_root / "statm").read_text()
            # comm can contain spaces/parens; fields resume after the
            # last ')'.  utime/stime are fields 14/15 (1-based), i.e.
            # offsets 11/12 after the comm.
            fields = stat_text.rsplit(")", 1)[1].split()
            utime = int(fields[11]) / self._ticks
            stime = int(fields[12]) / self._ticks
            statm = statm_text.split()
            rss = int(statm[1]) * self._page_size
            shared = int(statm[2]) * self._page_size
        except (OSError, IndexError, ValueError):
            return None
        return utime, stime, rss, shared

    def _read_getrusage(self) -> tuple[float, float, int, None] | None:
        if _resource is None:
            return None
        try:
            usage = _resource.getrusage(_resource.RUSAGE_SELF)
        except (OSError, ValueError):
            return None
        # ru_maxrss is kilobytes on Linux (bytes on macOS; close enough
        # for a high-water mark on a platform where procfs wins anyway).
        return usage.ru_utime, usage.ru_stime, int(usage.ru_maxrss) * 1024, None

    def _read(self) -> tuple | None:
        if self._source == "procfs":
            reading = self._read_procfs()
            if reading is not None:
                return reading
            # procfs went away mid-run; degrade rather than fail.
            self._source = "getrusage" if self._read_getrusage() else None
        if self._source == "getrusage":
            reading = self._read_getrusage()
            if reading is not None:
                return reading
            self._source = None
        return None

    def sample(self, phase: str | None = None) -> dict | None:
        """Take one sample now; returns the record, or None if unavailable."""
        if self._source is None:
            return None
        reading = self._read()
        if reading is None:
            return None
        user, system, rss, shared = reading
        now = time.monotonic()
        record = {
            "worker": self.worker,
            "seq": self._seq,
            "source": self._source,
            "phase": phase,
            "uptime_seconds": round(now - self._started, 6),
            "cpu_user_seconds": round(user, 6),
            "cpu_system_seconds": round(system, 6),
            "rss_bytes": rss,
            "shm_bytes": shared,
        }
        self._seq += 1
        self.samples_taken += 1
        self._last_sample = now
        self.cpu_user_seconds = user
        self.cpu_system_seconds = system
        self.max_rss_bytes = max(self.max_rss_bytes, rss)
        if shared is not None:
            self.max_shm_bytes = max(self.max_shm_bytes, shared)
        self.pending.append(record)
        return record

    def maybe_sample(self) -> dict | None:
        """Take a cadence sample if ``period_seconds`` have elapsed."""
        if self._source is None:
            return None
        if time.monotonic() - self._last_sample < self.config.period_seconds:
            return None
        return self.sample()

    def drain(self) -> list[dict]:
        """Hand off pending samples (and forget them locally)."""
        pending, self.pending = self.pending, []
        return pending

    def fold_into(self, metrics) -> None:
        """Merge this sampler's totals into a telemetry registry.

        Counters sum across workers (total campaign CPU), gauges merge by
        max (peak footprint anywhere in the pool) — exactly the registry's
        merge semantics, so per-worker folds aggregate correctly at the
        coordinator.
        """
        if not self.samples_taken:
            return
        metrics.inc("resources.samples", self.samples_taken)
        metrics.inc("resources.cpu_user_seconds",
                    round(self.cpu_user_seconds, 6))
        metrics.inc("resources.cpu_system_seconds",
                    round(self.cpu_system_seconds, 6))
        metrics.set_gauge("resources.max_rss_bytes", self.max_rss_bytes)
        if self.max_shm_bytes:
            metrics.set_gauge("resources.max_shm_bytes", self.max_shm_bytes)
