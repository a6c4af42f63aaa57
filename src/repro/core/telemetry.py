"""Campaign telemetry: metrics registry, per-experiment spans, sinks.

The paper's only runtime observability is the progress window
(Figure 7).  After the parallel, checkpoint, and hot-loop engines, a
campaign run is three interacting optimisation layers deep — this
module makes them measurable without perturbing them:

* :class:`MetricsRegistry` — a lightweight in-process registry of
  counters, gauges, monotonic-clock timers, and fixed-bucket
  histograms.  Snapshots are plain JSON-able dicts that *merge*:
  parallel workers ship their registries back to the coordinator,
  which folds them into one campaign-level snapshot.
* :class:`Telemetry` — the per-run handle the campaign engines carry.
  Three modes: ``off`` (the default; every operation is a no-op on
  shared null objects, so the disabled cost is a single attribute
  check), ``metrics`` (aggregate phase timers and counters only), and
  ``spans`` (metrics plus one structured record per experiment
  covering the pipeline phases).
* No sinks of its own — the campaign pipeline emits span records and
  the final snapshot on the campaign event bus
  (:mod:`repro.core.events`, kinds ``span`` and ``metrics``), whose
  database subscriber persists them (``ExperimentSpan`` /
  ``CampaignTelemetry`` tables) and whose file and socket sinks stream
  them.

Telemetry must never influence results: nothing in here touches target
state, rows stay bit-identical in all three modes, and only wall-clock
(non-deterministic) quantities live in timers — deterministic counters
(experiments, injections, instructions) aggregate to identical totals
for any worker count.
"""

from __future__ import annotations

import time

from .errors import ConfigurationError

#: Telemetry modes, in increasing order of detail.
MODE_OFF = "off"
MODE_METRICS = "metrics"
MODE_SPANS = "spans"

_MODES = (MODE_OFF, MODE_METRICS, MODE_SPANS)

#: Default bucket upper bounds (seconds) for duration histograms —
#: roughly logarithmic from 1 ms to 30 s; the last bucket is open.
DURATION_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


class Histogram:
    """A fixed-bucket histogram: ``bounds`` are inclusive upper edges,
    plus one open overflow bucket.  Cheap to observe (bisection-free
    linear scan is fine for ~10 buckets) and trivially mergeable."""

    __slots__ = ("bounds", "counts")

    def __init__(self, bounds: tuple[float, ...] = DURATION_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts)}

    def merge(self, other: dict) -> None:
        if tuple(other["bounds"]) != self.bounds:
            raise ConfigurationError(
                "cannot merge histograms with different bucket bounds"
            )
        for index, count in enumerate(other["counts"]):
            self.counts[index] += count


class TimerStat:
    """Accumulated monotonic-clock time for one named phase."""

    __slots__ = ("seconds", "count")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.count += 1

    def to_dict(self) -> dict:
        return {"seconds": self.seconds, "count": self.count}


class _TimerContext:
    """Context manager accumulating one timed block straight into a
    :class:`TimerStat`.  Registries cache one per timer name (phases
    with the same name never nest), so the metrics-mode hot path
    allocates nothing after the first experiment."""

    __slots__ = ("_stat", "_started")

    def __init__(self, stat: "TimerStat") -> None:
        self._stat = stat

    def __enter__(self) -> "_TimerContext":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stat.add(time.perf_counter() - self._started)


class _SpanPhaseContext:
    """Timed block for a full :class:`ExperimentSpan` phase: feeds the
    registry timer *and* the span's own phase dict."""

    __slots__ = ("_span", "_name", "_started")

    def __init__(self, span: "ExperimentSpan", name: str) -> None:
        self._span = span
        self._name = name

    def __enter__(self) -> "_SpanPhaseContext":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._span._record_phase(
            self._name, time.perf_counter() - self._started
        )


class _NullContext:
    """Shared no-op context manager (the disabled-telemetry fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class MetricsRegistry:
    """In-process metrics: counters, gauges, timers, histograms.

    All values are JSON-able; :meth:`snapshot` and :meth:`merge` are
    exact inverses of each other for counters, timers, and histograms
    (gauges merge by keeping the maximum, which suits the high-water
    quantities we track).
    """

    __slots__ = ("counters", "gauges", "timers", "histograms", "_contexts")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.timers: dict[str, TimerStat] = {}
        self.histograms: dict[str, Histogram] = {}
        self._contexts: dict[str, _TimerContext] = {}

    # -- counters ------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- gauges --------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- timers --------------------------------------------------------
    def add_time(self, name: str, seconds: float) -> None:
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.add(seconds)

    def time(self, name: str) -> _TimerContext:
        """``with registry.time("phase.plan"): ...`` — the context is
        cached per name and reused (same-name blocks never nest)."""
        context = self._contexts.get(name)
        if context is None:
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat()
            context = self._contexts[name] = _TimerContext(stat)
        return context

    # -- histograms ----------------------------------------------------
    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] = DURATION_BUCKETS) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds)
        histogram.observe(value)

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-able dump of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: stat.to_dict() for name, stat in self.timers.items()},
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one (the
        coordinator aggregating worker registries)."""
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            if name not in self.gauges or value > self.gauges[name]:
                self.gauges[name] = value
        for name, stat in snapshot.get("timers", {}).items():
            timer = self.timers.get(name)
            if timer is None:
                timer = self.timers[name] = TimerStat()
            timer.seconds += stat["seconds"]
            timer.count += stat["count"]
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(tuple(data["bounds"]))
            histogram.merge(data)


class NullSpan:
    """Span stand-in when telemetry is off: every method is a no-op and
    ``phase`` hands back one shared context manager."""

    __slots__ = ()

    def phase(self, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def add(self, name: str, value: float = 1) -> None:
        return None

    def finish(self, outcome: str | None = None) -> None:
        return None


NULL_SPAN = NullSpan()

#: Memoised ``"phase." + name`` keys — the phase names form a tiny
#: fixed set, so the per-experiment hot path never formats strings.
_PHASE_KEYS: dict[str, str] = {}


def _phase_key(name: str) -> str:
    key = _PHASE_KEYS.get(name)
    if key is None:
        key = _PHASE_KEYS[name] = "phase." + name
    return key


class MetricsSpan:
    """Metrics-only span: phase timings and counters flow straight into
    the registry under ``phase.<name>`` / plain counter names; no
    per-experiment record is built."""

    __slots__ = ("_registry", "_started")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._started = time.perf_counter()

    def phase(self, name: str) -> _TimerContext:
        return self._registry.time(_phase_key(name))

    def add(self, name: str, value: float = 1) -> None:
        self._registry.inc(name, value)

    def finish(self, outcome: str | None = None) -> None:
        self._registry.inc("experiments")
        self._registry.observe(
            "experiment.seconds", time.perf_counter() - self._started
        )


class ExperimentSpan(MetricsSpan):
    """Full span: feeds the registry like :class:`MetricsSpan` *and*
    builds one structured record of the experiment's pipeline phases.

    Besides the aggregate ``phases`` dict the record carries a wall-clock
    ``started_at`` timestamp and an ``events`` list of individual timed
    phase blocks ``[name, offset_seconds, duration_seconds]`` (offsets
    relative to the span start) — enough to reconstruct the experiment's
    timeline in a Chrome/Perfetto trace (``goofi trace export``)."""

    __slots__ = ("name", "phases", "counters", "outcome", "started_at",
                 "events", "_telemetry")

    def __init__(self, name: str, telemetry: "Telemetry") -> None:
        super().__init__(telemetry.metrics)
        self.name = name
        self.phases: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.outcome: str | None = None
        self.started_at = time.time()
        self.events: list[list] = []
        self._telemetry = telemetry

    def phase(self, name: str) -> _SpanPhaseContext:
        return _SpanPhaseContext(self, name)

    def _record_phase(self, name: str, seconds: float) -> None:
        self._registry.add_time(_phase_key(name), seconds)
        self.phases[name] = self.phases.get(name, 0.0) + seconds
        offset = time.perf_counter() - seconds - self._started
        self.events.append([name, round(max(offset, 0.0), 9), round(seconds, 9)])

    def add(self, name: str, value: float = 1) -> None:
        self._registry.inc(name, value)
        self.counters[name] = self.counters.get(name, 0) + value

    def finish(self, outcome: str | None = None) -> None:
        super().finish()
        self.outcome = outcome
        self._telemetry._spans.append(
            {
                "experiment": self.name,
                "outcome": outcome,
                "started_at": self.started_at,
                "duration_seconds": time.perf_counter() - self._started,
                "phases": {name: round(s, 9) for name, s in self.phases.items()},
                "events": self.events,
                "counters": dict(self.counters),
            }
        )


class Telemetry:
    """The per-run telemetry handle the campaign engines carry; ``mode``
    selects how much is recorded."""

    __slots__ = ("mode", "metrics", "_spans")

    def __init__(self, mode: str = MODE_OFF) -> None:
        if mode not in _MODES:
            raise ConfigurationError(
                f"unknown telemetry mode {mode!r}; expected one of {_MODES}"
            )
        self.mode = mode
        self.metrics = MetricsRegistry()
        self._spans: list[dict] = []

    # -- mode ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.mode != MODE_OFF

    # -- spans ---------------------------------------------------------
    def span(self, name: str):
        """A span for one experiment: a :class:`NullSpan`,
        :class:`MetricsSpan`, or :class:`ExperimentSpan` depending on
        the mode — callers never branch on it."""
        if self.mode == MODE_SPANS:
            return ExperimentSpan(name, self)
        if self.mode == MODE_METRICS:
            return MetricsSpan(self.metrics)
        return NULL_SPAN

    def drain_spans(self) -> list[dict]:
        """Hand over (and forget) the span records finished since the
        last drain — the experiment loop hands them to the coordinator
        with each finished experiment, which emits them on the event
        bus."""
        spans, self._spans = self._spans, []
        return spans

    # -- timers convenience --------------------------------------------
    def time(self, name: str):
        """Registry timer, or a shared no-op when disabled."""
        if self.mode == MODE_OFF:
            return _NULL_CONTEXT
        return self.metrics.time(name)


#: Shared disabled instance — the default on the campaign engines, so
#: the un-instrumented path costs one attribute read per call site.
NULL_TELEMETRY = Telemetry(MODE_OFF)


def resolve_telemetry(value) -> Telemetry:
    """Normalise the ``run_campaign(telemetry=...)`` knob.

    Accepts a ready :class:`Telemetry`, a mode string (``"off"`` /
    ``"metrics"`` / ``"spans"``), a boolean (``True`` → metrics), or
    ``None`` (off).
    """
    if isinstance(value, Telemetry):
        return value
    if value is None or value is False or value == MODE_OFF:
        return NULL_TELEMETRY
    if value is True:
        return Telemetry(MODE_METRICS)
    if isinstance(value, str):
        return Telemetry(value)
    raise ConfigurationError(
        f"telemetry must be a mode string, bool, or Telemetry; got {value!r}"
    )
