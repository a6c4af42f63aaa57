"""Error-detection latency analysis.

A classic measure of fault-injection studies of the paper's era (and of
the Thor evaluations the group published): how long after injection an
error-detection mechanism fires.  Latency matters because it bounds how
stale a detected-then-recovered computation can be — short latencies are
what make backward recovery cheap.

Input is a campaign's analysis view
(:func:`repro.analysis.classify.classify_campaign`): each detected
experiment carries the detection cycle in its termination record and
the injection cycle(s) in its ``experimentData``, which are decoded for
the detected rows only.  Latency is measured from the first applied
fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import AnalysisError
from ..db import ExperimentFacts
from .classify import CATEGORY_DETECTED, CampaignClassification


class MissingDetectionCycle(AnalysisError):
    """A detected experiment whose detection event carries no cycle —
    no latency can be computed for it.  Non-strict analysis skips (and
    counts) such records instead of fabricating zero-latency samples."""


@dataclass(frozen=True, slots=True)
class LatencySample:
    """Detection latency of one detected experiment."""

    experiment_name: str
    mechanism: str
    injection_cycle: int
    detection_cycle: int

    @property
    def latency(self) -> int:
        return self.detection_cycle - self.injection_cycle


@dataclass(slots=True)
class LatencyStatistics:
    """Distribution statistics of detection latencies (in cycles).

    Empty-set sentinels are consistently NaN across mean/median/
    percentile/maximum (``0`` would be indistinguishable from a real
    zero-cycle latency).  ``skipped`` counts detected records whose
    detection event carried no cycle.
    """

    samples: list[LatencySample] = field(default_factory=list)
    skipped: int = 0

    @property
    def count(self) -> int:
        return len(self.samples)

    def _sorted(self) -> list[float]:
        return sorted(float(s.latency) for s in self.samples)

    # The statistics follow numpy's formulas step for step (its median,
    # ``linear`` percentile and equal-width histogram), so stored
    # reports and gate verdicts read the same digits.
    @property
    def mean(self) -> float:
        if not self.samples:
            return float("nan")
        return sum(float(s.latency) for s in self.samples) / len(self.samples)

    @property
    def median(self) -> float:
        if not self.samples:
            return float("nan")
        values = self._sorted()
        middle = len(values) // 2
        if len(values) % 2:
            return values[middle]
        return (values[middle - 1] + values[middle]) / 2

    def percentile(self, q: float) -> float:
        """Linear interpolation between the closest ranks."""
        if not self.samples:
            return float("nan")
        if not 0 <= q <= 100:
            raise ValueError("percentiles must be in the range [0, 100]")
        values = self._sorted()
        position = (len(values) - 1) * (q / 100)
        below = int(position)
        if below >= len(values) - 1:
            return values[-1]
        a, b = values[below], values[below + 1]
        t = position - below
        # numpy's _lerp: from the nearer end, so t = 1 lands on b exactly.
        if t >= 0.5:
            return b - (b - a) * (1 - t)
        return a + (b - a) * t

    @property
    def maximum(self) -> float:
        if not self.samples:
            return float("nan")
        return float(max(s.latency for s in self.samples))

    def by_mechanism(self) -> dict[str, "LatencyStatistics"]:
        split: dict[str, LatencyStatistics] = {}
        for sample in self.samples:
            split.setdefault(sample.mechanism, LatencyStatistics()).samples.append(sample)
        return split

    def histogram(self, bins: int = 10) -> list[tuple[float, float, int]]:
        """(bin start, bin end, count) over latency values.

        Bin edges stay floats: truncating them to ints produces
        overlapping/duplicate boundaries for narrow distributions.
        """
        if not self.samples:
            return []
        if bins < 1:
            raise ValueError("bins must be positive")
        values = self._sorted()
        first, last = values[0], values[-1]
        if first == last:
            first, last = first - 0.5, last + 0.5
        step = (last - first) / bins
        edges = [i * step + first for i in range(bins)] + [last]
        counts = [0] * bins
        span = last - first
        for value in values:
            # The scaled index, corrected by one where rounding put the
            # value on the wrong side of an edge; the last bin is closed.
            index = min(int((value - first) / span * bins), bins - 1)
            if value < edges[index]:
                index -= 1
            elif value >= edges[index + 1] and index != bins - 1:
                index += 1
            counts[index] += 1
        return [(edges[i], edges[i + 1], counts[i]) for i in range(bins)]


def _latency_of(record: ExperimentFacts, strict: bool = False) -> LatencySample | None:
    """The latency sample of one experiment, or ``None`` for experiments
    that carry no latency (not detected, or no applied fault).  Reads
    ``experiment_name``, ``experiment_data`` and ``termination``, which
    :class:`~repro.db.ExperimentFacts` and an ``ExperimentRecord`` both
    carry.

    A detected record whose detection event has no cycle cannot yield a
    sample either: returning the injection cycle instead would fabricate
    a latency-0 sample.  Such records raise
    :class:`MissingDetectionCycle` under ``strict`` and are skipped
    (``None``) otherwise.
    """
    termination = record.termination
    if termination.get("outcome") != "error_detected":
        return None
    detection = termination.get("detection") or {}
    faults = [
        f for f in record.experiment_data.get("faults", []) if f.get("applied")
    ]
    if not faults:
        return None
    injection = min(int(f["injection_cycle"]) for f in faults)
    if detection.get("cycle") is None:
        if strict:
            raise MissingDetectionCycle(
                f"experiment {record.experiment_name!r} was detected but its "
                f"detection event carries no cycle; cannot compute a latency"
            )
        return None
    detection_cycle = int(detection["cycle"])
    if detection_cycle < injection:
        raise AnalysisError(
            f"experiment {record.experiment_name!r} detected at cycle "
            f"{detection_cycle}, before its injection at {injection}"
        )
    return LatencySample(
        experiment_name=record.experiment_name,
        mechanism=detection.get("mechanism", "unknown"),
        injection_cycle=injection,
        detection_cycle=detection_cycle,
    )


def detection_latencies(
    view: CampaignClassification, strict: bool = False
) -> LatencyStatistics:
    """Latency statistics over every detected experiment of a campaign's
    analysis view.

    Detected records without a detection cycle are counted in
    ``skipped`` (and reported) — or, under ``strict``, raise
    :class:`MissingDetectionCycle`.
    """
    statistics = LatencyStatistics()
    if not view.detected:
        return statistics
    for facts in view.facts(CATEGORY_DETECTED):
        try:
            sample = _latency_of(facts, strict=True)
        except MissingDetectionCycle:
            if strict:
                raise
            statistics.skipped += 1
            continue
        if sample is not None:
            statistics.samples.append(sample)
    return statistics


def format_latency_report(statistics: LatencyStatistics, title: str) -> str:
    """Plain-text latency table: overall and per mechanism."""
    lines = [
        title,
        f"{'mechanism':<18}{'n':>6}{'mean':>10}{'median':>10}{'p95':>10}{'max':>10}",
        "-" * 64,
    ]

    def row(label: str, stats: LatencyStatistics) -> str:
        if stats.count == 0:
            empty = "n/a"
            return (
                f"{label:<18}{stats.count:>6}{empty:>10}{empty:>10}"
                f"{empty:>10}{empty:>10}"
            )
        return (
            f"{label:<18}{stats.count:>6}{stats.mean:>10.1f}{stats.median:>10.1f}"
            f"{stats.percentile(95):>10.1f}{stats.maximum:>10.0f}"
        )

    lines.append(row("(all)", statistics))
    for mechanism, stats in sorted(statistics.by_mechanism().items()):
        lines.append(row(mechanism, stats))
    if statistics.skipped:
        lines.append(
            f"({statistics.skipped} detected record(s) skipped: "
            f"no detection cycle)"
        )
    return "\n".join(lines)
