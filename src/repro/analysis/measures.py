"""Dependability measures derived from campaign classifications.

"The data in the database table LoggedSystemState is analysed in the
analysis phase in order to obtain various dependability measures" —
chiefly *error-detection coverage*, the probability that an effective
error is caught by the target's error-detection mechanisms.  Coverage
estimates from fault-injection sampling are proportions, so every
measure carries a Clopper–Pearson confidence interval.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from statistics import NormalDist

from ..core.errors import AnalysisError
from .classify import CampaignClassification


@dataclass(frozen=True, slots=True)
class Proportion:
    """A binomial proportion with a two-sided confidence interval."""

    successes: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95

    def __str__(self) -> str:
        return (
            f"{self.estimate:.3f} "
            f"[{self.ci_low:.3f}, {self.ci_high:.3f}] "
            f"({self.successes}/{self.trials})"
        )


def check_confidence(confidence: float) -> None:
    """Reject a confidence level outside the open interval (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), not {confidence}")


def proportion(successes: int, trials: int, confidence: float = 0.95) -> Proportion:
    """Clopper–Pearson (exact beta) interval for a binomial proportion."""
    check_confidence(confidence)
    if trials < 0 or successes < 0 or successes > trials:
        raise AnalysisError(f"bad proportion {successes}/{trials}")
    if trials == 0:
        return Proportion(0, 0, float("nan"), 0.0, 1.0, confidence)
    alpha = 1.0 - confidence
    estimate = successes / trials
    if successes == 0:
        low = 0.0
    else:
        low = _beta_ppf(alpha / 2, successes, trials - successes + 1)
    if successes == trials:
        high = 1.0
    else:
        high = _beta_ppf(1 - alpha / 2, successes + 1, trials - successes)
    return Proportion(successes, trials, estimate, low, high, confidence)


# ----------------------------------------------------------------------
# Beta-distribution quantile (the Clopper–Pearson bounds)
# ----------------------------------------------------------------------
_TINY = 1e-300  # keeps the Lentz recurrences away from a zero divisor
_NORMAL = NormalDist()


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta function (A&S 26.5.8),
    evaluated with the modified Lentz method.  Converges quickly for
    ``x < (a + 1) / (a + b + 2)``, in O(sqrt(max(a, b))) terms."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    m = 0
    while True:
        m += 1
        m2 = 2 * m
        # Even term, then odd term, of the fraction.
        for numerator in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            if abs(c) < _TINY:
                c = _TINY
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < 1e-15 or m > 100_000:
            return h


def _beta_ppf(q: float, a: float, b: float) -> float:
    """The ``q`` quantile of the Beta(a, b) distribution, ``a, b >= 1``.

    Solves ``I_x(a, b) = q`` for ``x``: Newton steps on the regularised
    incomplete beta ``I_x`` (whose derivative is the beta density),
    inside a ``[low, high]`` bracket that falls back to bisection
    whenever a step would leave it.
    """
    if q <= 0.0:
        return 0.0
    if q > 0.5:
        # Solve the smaller tail; I_x(a, b) = 1 - I_{1-x}(b, a).
        return 1.0 - _beta_ppf(1.0 - q, b, a)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    switch = (a + 1.0) / (a + b + 2.0)
    x = _beta_guess(q, a, b)
    low, high = 0.0, 1.0
    for _ in range(200):
        # x^a (1-x)^b / B(a, b): the continued fraction's prefactor, and
        # the density times x (1 - x).
        front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
        if x < switch:
            cdf = front * _beta_cf(x, a, b) / a
        else:
            cdf = 1.0 - front * _beta_cf(1.0 - x, b, a) / b
        error = cdf - q
        if error < 0.0:
            low = x
        else:
            high = x
        density = front / (x * (1.0 - x))
        step = error / density if density > 0.0 else math.inf
        if abs(step) <= 1e-9 * x:
            # Newton converges quadratically: the error left after a step
            # this small is far below double precision.
            return x - step
        x -= step
        if not low < x < high:
            x = 0.5 * (low + high)
    return x


def _beta_guess(q: float, a: float, b: float) -> float:
    """Starting point for :func:`_beta_ppf`: the normal approximation
    of A&S 26.5.22 (``a, b >= 1``)."""
    y = -_NORMAL.inv_cdf(q)
    lam = (y * y - 3.0) / 6.0
    ra, rb = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
    h = 2.0 / (ra + rb)
    w = y * math.sqrt(h + lam) / h - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = a / (a + b * math.exp(2.0 * w))
    # Keep the start strictly inside (0, 1) so its logs are finite.
    return min(max(x, 1e-300), 1.0 - 1e-16)


def detection_coverage(classification: CampaignClassification) -> Proportion:
    """Error-detection coverage: detected / effective errors."""
    return proportion(classification.detected, classification.effective)


def effectiveness(classification: CampaignClassification) -> Proportion:
    """Fraction of injected faults that produced an effective error."""
    return proportion(classification.effective, classification.total)


def failure_rate(classification: CampaignClassification) -> Proportion:
    """Fraction of injected faults that escaped detection and caused a
    failure (wrong output or timeliness violation)."""
    return proportion(classification.escaped, classification.total)


def mechanism_shares(classification: CampaignClassification) -> dict[str, Proportion]:
    """Per-mechanism share of all detected errors."""
    total_detected = classification.detected
    return {
        mechanism: proportion(count, total_detected)
        for mechanism, count in sorted(classification.by_mechanism().items())
    }


# ----------------------------------------------------------------------
# Per-location and per-time breakdowns
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class GroupBreakdown:
    """Outcome counts for one group of experiments (a location or a
    time bin)."""

    group: str
    total: int
    detected: int
    escaped: int
    latent: int
    overwritten: int

    @property
    def effective(self) -> int:
        return self.detected + self.escaped

    def coverage(self) -> Proportion:
        return proportion(self.detected, self.effective)


def _aggregate(pairs, label=str) -> list[GroupBreakdown]:
    """Aggregate (key, classification) pairs into per-group breakdowns.

    Groups are ordered by their *key* (string keys sort lexically, int
    keys numerically — which is what keeps time bins in order for
    campaigns of any length); ``label`` renders a key into the displayed
    group name.
    """
    groups: dict = defaultdict(Counter)
    for group, classification in pairs:
        groups[group][classification.category] += 1
    return [
        GroupBreakdown(
            group=label(group),
            total=sum(counts.values()),
            detected=counts["detected"],
            escaped=counts["escaped"],
            latent=counts["latent"],
            overwritten=counts["overwritten"],
        )
        for group, counts in sorted(groups.items())
    ]


def _location_pairs(view: CampaignClassification):
    """(first-fault element key, classification) per faulted experiment."""
    for verdict in view.classifications:
        if verdict.fault_element is not None:
            yield verdict.fault_element, verdict


def _location_group(key: str) -> str:
    """``memory`` for a memory word, else the element's first component
    (``internal:regs.R1`` -> ``regs``)."""
    if key.startswith("memory:"):
        return "memory"
    return key.partition(":")[2].split(".")[0]


def per_location_breakdown(view: CampaignClassification) -> list[GroupBreakdown]:
    """Outcome mix per injected location element (register, cache line,
    memory word, ...)."""
    return _aggregate(_location_pairs(view))


def per_group_breakdown(view: CampaignClassification) -> list[GroupBreakdown]:
    """Outcome mix per location *group* (``regs``, ``ctrl``, ``icache``,
    ``dcache``, ``pins``, ``memory``) — the granularity at which the
    paper's analysis examples speak."""
    return _aggregate(
        (_location_group(key), verdict) for key, verdict in _location_pairs(view)
    )


def per_time_breakdown(
    view: CampaignClassification, bins: int = 10
) -> list[GroupBreakdown]:
    """Outcome mix across the injection-time axis, in equal cycle bins."""
    cycles = [
        (verdict.fault_cycle, verdict)
        for verdict in view.classifications
        if verdict.fault_cycle is not None
    ]
    if not cycles:
        return []
    top = max(cycle for cycle, _ in cycles) + 1
    width = max(1, -(-top // bins))  # ceil
    # Group by the numeric bin index, not a formatted label: fixed-width
    # labels sort lexically, which scrambles bins once campaigns exceed
    # the label width (routine for >1e6-cycle runs).
    pairs = [(c // width, verdict) for c, verdict in cycles]
    return _aggregate(
        pairs, label=lambda index: f"[{index * width}, {(index + 1) * width})"
    )
