"""Dependability gates: measured campaign results vs declared bounds.

A pack (:mod:`repro.core.packs`) declares the dependability envelope a
campaign is expected to stay within; this module measures the actual
campaign and renders the verdict.  ``goofi gate`` runs the pack's
campaign, calls :func:`evaluate_gate`, prints
:func:`format_gate_report`, and exits non-zero when any bound is
violated — a CI regression guard for error-detection coverage, detection
latency, and safety-envelope (critical-failure) budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import AnalysisError
from ..core.packs import DependabilityBounds
from ..db import GoofiDatabase
from .classify import classify_campaign
from .latency import LatencyStatistics, detection_latencies
from .measures import detection_coverage


@dataclass(frozen=True, slots=True)
class BoundCheck:
    """One bound's verdict: the declared limit, the measured value, and
    whether the measurement satisfies it."""

    bound: str  # e.g. "min_coverage", "max_latency.p95"
    limit: float
    measured: float
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return (
            f"{verdict}  {self.bound:<24} "
            f"limit {self.limit:g}  measured {self.measured:g}{suffix}"
        )


@dataclass(frozen=True, slots=True)
class GateResult:
    """Verdicts of every declared bound for one campaign."""

    campaign: str
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def violations(self) -> tuple[BoundCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def to_dict(self) -> dict:
        # NaN (no measurement) becomes None so the report stays strict
        # JSON.
        return {
            "campaign": self.campaign,
            "passed": self.passed,
            "checks": [
                {
                    "bound": check.bound,
                    "limit": check.limit,
                    "measured": (
                        None if math.isnan(check.measured) else check.measured
                    ),
                    "passed": check.passed,
                    "detail": check.detail,
                }
                for check in self.checks
            ],
        }


def _latency_statistic(statistics: LatencyStatistics, key: str) -> float:
    if key == "p50":
        return statistics.median
    if key == "p90":
        return statistics.percentile(90)
    if key == "p95":
        return statistics.percentile(95)
    if key == "p99":
        return statistics.percentile(99)
    if key == "mean":
        return statistics.mean
    if key == "max":
        return statistics.maximum
    raise AnalysisError(f"unknown latency statistic {key!r}")


def count_critical_failures(
    db: GoofiDatabase,
    campaign_name: str,
    environment: dict,
    replay,
    actuator_port: int = 1,
) -> int:
    """Experiments whose logged actuator sequence, replayed through the
    campaign's plant model, violated the safety envelope — plus timed-out
    experiments, whose behaviour past the watchdog is unknown and must
    be assumed unsafe.

    The analysis layer never touches plant models directly; ``replay``
    is the plant's replay function (``u_sequence, **params ->
    (trajectory, failed)``), resolved by the caller — e.g. via
    :func:`repro.core.packs.replay_function`.
    """
    # Plant parameters only: the replay fixes its own I/O addresses.
    params = {
        key: value
        for key, value in (environment.get("params") or {}).items()
        if key not in ("sensor_addr", "actuator_addr")
    }
    critical = 0
    for record in db.iter_experiments(campaign_name):
        if record.experiment_data.get("technique") == "reference":
            continue
        outputs = record.state_vector.get("final", {}).get("outputs", [])
        u_sequence = [value for _cycle, port, value in outputs if port == actuator_port]
        _trajectory, failed = replay(u_sequence, **params)
        timed_out = record.termination["outcome"] == "timeout"
        critical += bool(failed or timed_out)
    return critical


def evaluate_gate(
    db: GoofiDatabase,
    campaign_name: str,
    bounds: DependabilityBounds,
    environment: dict | None = None,
    replay=None,
) -> GateResult:
    """Measure a completed campaign and judge every declared bound.

    ``environment`` (the campaign's environment configuration) and
    ``replay`` (its plant replay function, e.g. from
    :func:`repro.core.packs.replay_function`) are needed only when
    ``bounds.max_critical_failures`` is set — they supply the plant
    model to replay actuator logs through.
    """
    checks: list[BoundCheck] = []
    view = (
        classify_campaign(db, campaign_name)
        if bounds.min_coverage is not None or bounds.max_latency
        else None
    )
    if bounds.min_coverage is not None:
        coverage = detection_coverage(view)
        basis = coverage.ci_low if bounds.coverage_basis == "ci_low" else coverage.estimate
        if math.isnan(basis):
            checks.append(
                BoundCheck(
                    bound="min_coverage",
                    limit=bounds.min_coverage,
                    measured=float("nan"),
                    passed=False,
                    detail="no effective errors to estimate coverage from",
                )
            )
        else:
            checks.append(
                BoundCheck(
                    bound="min_coverage",
                    limit=bounds.min_coverage,
                    measured=basis,
                    passed=basis >= bounds.min_coverage,
                    detail=(
                        f"{bounds.coverage_basis} of {coverage} "
                        f"at {coverage.confidence:.0%} confidence"
                    ),
                )
            )
    if bounds.max_latency:
        statistics = detection_latencies(view)
        for key in sorted(bounds.max_latency):
            ceiling = float(bounds.max_latency[key])
            measured = _latency_statistic(statistics, key)
            if math.isnan(measured):
                # Zero usable latency samples.  A latency ceiling bounds
                # how slow detections are allowed to be, so with no
                # detections nothing exceeded it: explicit PASS, with
                # the NaN surfaced in the report.  Whether detections
                # must exist at all is min_coverage's job (which fails
                # on the analogous NaN) — see docs/packs.md.
                checks.append(
                    BoundCheck(
                        bound=f"max_latency.{key}",
                        limit=ceiling,
                        measured=float("nan"),
                        passed=True,
                        detail="no detection latencies recorded",
                    )
                )
            else:
                checks.append(
                    BoundCheck(
                        bound=f"max_latency.{key}",
                        limit=ceiling,
                        measured=measured,
                        passed=measured <= ceiling,
                        detail=f"over {statistics.count} detections (cycles)",
                    )
                )
    if bounds.max_critical_failures is not None:
        if environment is None:
            raise AnalysisError(
                "max_critical_failures bound needs the campaign's "
                "environment configuration to replay the plant"
            )
        if replay is None:
            raise AnalysisError(
                "max_critical_failures bound needs the plant replay "
                "function; resolve it with repro.core.packs.replay_function"
            )
        critical = count_critical_failures(db, campaign_name, environment, replay)
        checks.append(
            BoundCheck(
                bound="max_critical_failures",
                limit=float(bounds.max_critical_failures),
                measured=float(critical),
                passed=critical <= bounds.max_critical_failures,
                detail=f"replayed through {environment.get('name')} plant model",
            )
        )
    if not checks:
        raise AnalysisError(
            f"campaign {campaign_name!r} gate has no bounds to evaluate; "
            "declare at least one of min_coverage, max_latency, "
            "max_critical_failures"
        )
    return GateResult(campaign=campaign_name, checks=tuple(checks))


def format_gate_report(result: GateResult) -> str:
    """Human-readable gate verdict, one line per bound."""
    verdict = "PASSED" if result.passed else "FAILED"
    lines = [
        f"dependability gate for campaign {result.campaign!r}: {verdict}",
        "-" * 64,
    ]
    lines.extend(str(check) for check in result.checks)
    if not result.passed:
        names = ", ".join(check.bound for check in result.violations)
        lines.append(f"violated bound(s): {names}")
    return "\n".join(lines)
