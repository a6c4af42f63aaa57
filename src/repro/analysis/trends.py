"""Cross-run dependability trend tracking.

``goofi gate`` (PR-6) checks one run against *static* bounds; this
module turns the gate into a *regression detector*: every gated run
appends a compact dependability summary (coverage CI, latency
percentiles, outcome counts, phase timings, throughput) to the
``CampaignHistory`` table, and ``goofi gate --trend[=N]`` compares the
current run against the last N recorded runs of the same campaign —
flagging statistically meaningful degradations even when every static
bound still holds.  The ROADMAP names this open item verbatim
("compare against the last N gate reports, not just static bounds").

The comparison rules are deliberately conservative and direction-aware
— a trend gate that cries wolf on sampling noise would get disabled in
CI within a week:

* **coverage** regresses only when the current CI *upper* bound falls
  below the baseline mean estimate — i.e. even the optimistic end of
  the current interval cannot reach what previous runs averaged, so
  the drop is outside one-sided CI noise.
* **latency** (p95) regresses when the current p95 exceeds the *worst*
  baseline p95 by more than 25%.
* **throughput** regresses when experiments/s falls below half the
  *slowest* baseline — generous, because wall-clock throughput varies
  with machine load; it catches collapses, not jitter.
* **phase timings** regress when a phase takes more than twice its
  worst baseline (only phases above a small absolute floor, so
  microsecond phases cannot trip it).

Improvements never fail the gate; missing data (no telemetry, no
detected experiments) skips the corresponding check rather than
guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import AnalysisError
from ..db import GoofiDatabase, HistoryRecord
from .classify import classify_campaign
from .latency import detection_latencies
from .measures import detection_coverage
from .telemetry_report import phase_breakdown, throughput_summary

#: Latency percentile the trend check watches.
LATENCY_PERCENTILE = 95

#: Tolerated relative growth of the latency percentile over the worst
#: baseline before it counts as a regression.
LATENCY_TOLERANCE = 0.25

#: Fraction of the slowest baseline throughput below which the current
#: run counts as a regression.
THROUGHPUT_FLOOR = 0.5

#: Multiple of the worst baseline phase time that flags a phase.
PHASE_TOLERANCE = 2.0

#: Phases faster than this (seconds) in every baseline are never
#: flagged — doubling a microsecond phase is noise, not regression.
PHASE_MIN_SECONDS = 0.05


def _none_if_nan(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def run_summary(
    db: GoofiDatabase, campaign_name: str, pack: str | None = None
) -> dict:
    """The compact per-run dependability summary recorded into
    ``CampaignHistory`` and compared by :func:`evaluate_trend`.

    Works from the database only (classification, latency, telemetry
    snapshot), so it can summarise any completed run — telemetry-less
    runs simply record ``throughput: null`` and an empty ``phases``
    map, and the corresponding trend checks are skipped.
    """
    classification = classify_campaign(db, campaign_name)
    coverage = detection_coverage(classification)
    latency = detection_latencies(classification)
    summary: dict = {
        "campaign": campaign_name,
        "pack": pack,
        "coverage": {
            "successes": coverage.successes,
            "trials": coverage.trials,
            "estimate": _none_if_nan(coverage.estimate),
            "ci_low": coverage.ci_low,
            "ci_high": coverage.ci_high,
        },
        "latency": {
            "count": latency.count,
            "mean": _none_if_nan(latency.mean),
            "p50": _none_if_nan(latency.median),
            "p90": _none_if_nan(latency.percentile(90)),
            "p95": _none_if_nan(latency.percentile(95)),
            "p99": _none_if_nan(latency.percentile(99)),
            "max": _none_if_nan(latency.maximum),
        },
        "outcomes": {
            "total": classification.total,
            "detected": classification.detected,
            "escaped": classification.escaped,
            "latent": classification.latent,
            "overwritten": classification.overwritten,
            "effective": classification.effective,
        },
        "throughput": None,
        "phases": {},
    }
    try:
        snapshot = db.load_campaign_telemetry(campaign_name)
    except Exception:
        snapshot = None
    if snapshot is not None:
        try:
            summary["throughput"] = throughput_summary(snapshot)
        except AnalysisError:
            pass
        summary["phases"] = {
            phase: seconds for phase, seconds, _count in phase_breakdown(snapshot)
        }
    return summary


@dataclass(frozen=True, slots=True)
class TrendCheck:
    """One metric compared against the baseline population."""

    metric: str
    current: float | None
    baseline: float | None
    regressed: bool
    detail: str

    def __str__(self) -> str:
        marker = "REGRESSED" if self.regressed else "ok"
        return f"{self.metric:<24} {marker:<10} {self.detail}"


@dataclass(frozen=True, slots=True)
class TrendResult:
    """Verdict of one trend comparison."""

    campaign_name: str
    baseline_runs: int
    checks: tuple[TrendCheck, ...]

    @property
    def passed(self) -> bool:
        return not any(check.regressed for check in self.checks)

    @property
    def regressions(self) -> tuple[TrendCheck, ...]:
        return tuple(check for check in self.checks if check.regressed)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign_name,
            "baseline_runs": self.baseline_runs,
            "passed": self.passed,
            "checks": [
                {
                    "metric": check.metric,
                    "current": check.current,
                    "baseline": check.baseline,
                    "regressed": check.regressed,
                    "detail": check.detail,
                }
                for check in self.checks
            ],
        }


def _baseline_values(baselines: list[dict], *path: str) -> list[float]:
    values = []
    for summary in baselines:
        node = summary
        for key in path:
            if not isinstance(node, dict) or node.get(key) is None:
                node = None
                break
            node = node[key]
        if isinstance(node, (int, float)) and not (
            isinstance(node, float) and math.isnan(node)
        ):
            values.append(float(node))
    return values


def evaluate_trend(current: dict, baselines: list[dict]) -> TrendResult:
    """Compare one :func:`run_summary` against the baseline population
    (summaries of previous runs, any order).  Raises
    :class:`~repro.core.errors.AnalysisError` when there is no baseline
    to compare against."""
    if not baselines:
        raise AnalysisError(
            "trend comparison needs at least one recorded baseline run "
            "(record runs with goofi gate --trend)"
        )
    checks: list[TrendCheck] = []

    # Coverage: current CI upper bound vs baseline mean estimate.
    estimates = _baseline_values(baselines, "coverage", "estimate")
    ci_high = current.get("coverage", {}).get("ci_high")
    estimate = _none_if_nan(current.get("coverage", {}).get("estimate"))
    if estimates and ci_high is not None and estimate is not None:
        baseline_mean = sum(estimates) / len(estimates)
        regressed = ci_high < baseline_mean
        checks.append(
            TrendCheck(
                metric="coverage",
                current=estimate,
                baseline=baseline_mean,
                regressed=regressed,
                detail=(
                    f"estimate {estimate:.3f} (CI high {ci_high:.3f}) vs "
                    f"baseline mean {baseline_mean:.3f} over "
                    f"{len(estimates)} run(s)"
                ),
            )
        )

    # Latency: current p95 vs worst baseline p95 + tolerance.
    key = f"p{LATENCY_PERCENTILE}"
    baseline_p95 = _baseline_values(baselines, "latency", key)
    current_p95 = _none_if_nan(current.get("latency", {}).get(key))
    if baseline_p95 and current_p95 is not None:
        worst = max(baseline_p95)
        threshold = worst * (1.0 + LATENCY_TOLERANCE)
        regressed = current_p95 > threshold
        checks.append(
            TrendCheck(
                metric=f"latency_{key}",
                current=current_p95,
                baseline=worst,
                regressed=regressed,
                detail=(
                    f"{current_p95:.0f} cycles vs worst baseline "
                    f"{worst:.0f} (+{LATENCY_TOLERANCE:.0%} allowed)"
                ),
            )
        )

    # Throughput: current experiments/s vs slowest baseline.
    baseline_eps = _baseline_values(
        baselines, "throughput", "experiments_per_second"
    )
    throughput = current.get("throughput") or {}
    current_eps = _none_if_nan(throughput.get("experiments_per_second"))
    if baseline_eps and current_eps is not None:
        slowest = min(baseline_eps)
        threshold = slowest * THROUGHPUT_FLOOR
        regressed = current_eps < threshold
        checks.append(
            TrendCheck(
                metric="throughput",
                current=current_eps,
                baseline=slowest,
                regressed=regressed,
                detail=(
                    f"{current_eps:.1f} exp/s vs slowest baseline "
                    f"{slowest:.1f} (floor {THROUGHPUT_FLOOR:.0%})"
                ),
            )
        )

    # Phase timings: each current phase vs its worst baseline.
    for phase, seconds in sorted((current.get("phases") or {}).items()):
        baseline_phase = _baseline_values(baselines, "phases", phase)
        if not baseline_phase:
            continue
        worst = max(baseline_phase)
        if worst < PHASE_MIN_SECONDS:
            continue
        regressed = float(seconds) > worst * PHASE_TOLERANCE
        checks.append(
            TrendCheck(
                metric=f"phase.{phase}",
                current=float(seconds),
                baseline=worst,
                regressed=regressed,
                detail=(
                    f"{seconds:.2f}s vs worst baseline {worst:.2f}s "
                    f"(x{PHASE_TOLERANCE:.0f} allowed)"
                ),
            )
        )

    return TrendResult(
        campaign_name=str(current.get("campaign", "")),
        baseline_runs=len(baselines),
        checks=tuple(checks),
    )


def trend_against_history(
    db: GoofiDatabase,
    campaign_name: str,
    current: dict,
    window: int = 5,
) -> TrendResult | None:
    """Evaluate ``current`` against the last ``window`` recorded runs.
    Returns ``None`` when the campaign has no history yet (first
    recorded run — nothing to compare against)."""
    baselines = [
        record.summary for record in db.iter_history(campaign_name, limit=window)
    ]
    if not baselines:
        return None
    return evaluate_trend(current, baselines)


def record_run(
    db: GoofiDatabase,
    campaign_name: str,
    summary: dict,
    pack: str | None = None,
) -> int:
    """Append one run summary to ``CampaignHistory``; returns the
    assigned run id."""
    return db.save_history(
        HistoryRecord(campaign_name=campaign_name, summary=summary, pack=pack)
    )


def format_trend_report(result: TrendResult) -> str:
    lines = [
        f"Trend report: {result.campaign_name}",
        f"  baseline runs: {result.baseline_runs}",
    ]
    if not result.checks:
        lines.append("  no comparable metrics (baselines lack data)")
    for check in result.checks:
        lines.append(f"  {check}")
    lines.append(f"TREND {'PASSED' if result.passed else 'REGRESSED'}")
    return "\n".join(lines)


def _cell(value, spec: str, width: int) -> str:
    if value is None:
        return "-".rjust(width)
    return format(value, spec).rjust(width)


def format_history(records) -> str:
    """``goofi stats --history`` table: one line per recorded run,
    most recent first."""
    lines = [f"{'run':>4}  {'recorded':<19}  {'coverage':>8}  {'p95':>7}  {'exp/s':>8}"]
    for record in records:
        coverage = record.summary.get("coverage", {})
        latency = record.summary.get("latency", {})
        throughput = record.summary.get("throughput") or {}
        lines.append(
            f"{record.run_id:>4}  {record.created_at[:19]:<19}  "
            f"{_cell(_none_if_nan(coverage.get('estimate')), '.3f', 8)}  "
            f"{_cell(_none_if_nan(latency.get('p95')), '.0f', 7)}  "
            f"{_cell(_none_if_nan(throughput.get('experiments_per_second')), '.1f', 8)}"
        )
    return "\n".join(lines)
