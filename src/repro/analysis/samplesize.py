"""Statistical campaign planning: how many faults to inject.

"The user also selects ... the number of fault injection experiments to
perform" (§3.2) — and the right number is a statistics question: how
many samples until the coverage estimate is tight enough?  This module
provides the standard answers used in fault-injection methodology:

* :func:`required_experiments` — the sample size for a target
  confidence-interval half-width (Wald planning formula, with the
  conservative p=0.5 default when no prior estimate exists);
* :func:`achieved_half_width` — the precision a finished campaign
  actually reached;
* :class:`SequentialPlan` — a simple group-sequential recipe: run in
  chunks, stop as soon as the exact (Clopper–Pearson) interval is
  narrow enough, with a hard cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from ..core.errors import AnalysisError, ConfigurationError
from .measures import Proportion, check_confidence, proportion


def _z(confidence: float) -> float:
    check_confidence(confidence)
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def required_experiments(
    half_width: float,
    confidence: float = 0.95,
    expected_proportion: float = 0.5,
) -> int:
    """Experiments needed so the coverage CI half-width is at most
    ``half_width``.

    ``expected_proportion`` is a prior guess of the measured proportion;
    0.5 (the default) is the worst case and therefore always safe.
    """
    # half_width <= 0 would divide by zero (or flip the formula's sign);
    # it is a planning-input mistake, not a data problem, hence
    # ConfigurationError rather than AnalysisError.
    if not 0.0 < half_width < 0.5:
        raise ConfigurationError(
            f"half_width must be in (0, 0.5), not {half_width}"
        )
    if not 0.0 < expected_proportion < 1.0:
        raise AnalysisError("expected_proportion must be in (0, 1)")
    z = _z(confidence)
    n = (z / half_width) ** 2 * expected_proportion * (1.0 - expected_proportion)
    return math.ceil(n)


def achieved_half_width(estimate: Proportion) -> float:
    """Half-width of a measured proportion's interval."""
    if estimate.trials == 0:
        return 0.5
    return (estimate.ci_high - estimate.ci_low) / 2.0


@dataclass(slots=True)
class SequentialPlan:
    """Run-until-precise campaign sizing.

    ``next_chunk`` *reserves* a batch; the budget is charged when the
    runner reports back with :meth:`record_run` (an aborted or partial
    chunk must not eat cap budget it never used).  A reservation left
    unreconciled is assumed fully run and committed by the next
    ``next_chunk`` call, so the simple loop below still works unchanged.

    Usage::

        plan = SequentialPlan(target_half_width=0.05, chunk=100, cap=5000)
        while True:
            ran = run_chunk(plan.next_chunk())    # plan.chunk experiments
            plan.record_run(ran)                  # optional if ran fully
            p = proportion(detected, effective)
            if plan.should_stop(p):
                break
    """

    target_half_width: float
    chunk: int = 100
    cap: int = 10_000
    confidence: float = 0.95
    spent: int = 0
    pending: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_half_width < 0.5:
            raise AnalysisError("target_half_width must be in (0, 0.5)")
        if self.chunk <= 0 or self.cap <= 0:
            raise AnalysisError("chunk and cap must be positive")

    def next_chunk(self) -> int:
        """Reserve the next batch (0 when the cap is exhausted)."""
        # An unreconciled reservation counts as fully run.
        self.spent += self.pending
        remaining = self.cap - self.spent
        self.pending = max(0, min(self.chunk, remaining))
        return self.pending

    def record_run(self, experiments: int) -> None:
        """Reconcile the last reservation with what actually ran."""
        if experiments < 0 or experiments > self.pending:
            raise AnalysisError(
                f"record_run({experiments}) does not match the pending "
                f"reservation of {self.pending}"
            )
        self.spent += experiments
        self.pending = 0

    def should_stop(self, estimate: Proportion) -> bool:
        """Stop when precise enough — or when the cap is spent."""
        if self.spent + self.pending >= self.cap:
            return True
        if estimate.trials == 0:
            return False
        return achieved_half_width(estimate) <= self.target_half_width

    def projected_total(self, estimate: Proportion) -> int:
        """Rough projection of the total experiments needed, scaling the
        planning formula by the observed effective-error rate when the
        estimate comes from a subset (coverage is measured on effective
        errors only)."""
        if estimate.trials == 0 or math.isnan(estimate.estimate):
            p = 0.5
        else:
            p = min(max(estimate.estimate, 0.05), 0.95)
        return required_experiments(
            self.target_half_width, self.confidence, expected_proportion=p
        )
