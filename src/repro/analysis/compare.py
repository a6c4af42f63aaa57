"""Paired campaign comparison.

The studies this tool exists for — "does mechanism X / protection Y
help?" — run the *same seeded fault list* against two system variants
and compare outcomes per experiment (paper ref [12] is exactly this
design; experiments E6 and E11 reproduce it).  This module does the
pairing: experiments are matched by plan index, their fault lists are
verified identical, and the result is an outcome *transition matrix*
("n faults that escaped on A were detected on B") — far more telling
than comparing two marginal tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.errors import AnalysisError
from ..db import GoofiDatabase
from .classify import CampaignClassification, classify_campaign

#: Outcome order used for matrix rendering.
OUTCOMES = ("detected", "escaped", "latent", "overwritten")


@dataclass(frozen=True, slots=True)
class PairedOutcome:
    """One experiment's verdicts under both variants."""

    index: int
    fault_labels: tuple[str, ...]
    outcome_a: str
    outcome_b: str

    @property
    def changed(self) -> bool:
        return self.outcome_a != self.outcome_b


@dataclass(slots=True)
class CampaignComparison:
    """The paired comparison of two campaigns."""

    campaign_a: str
    campaign_b: str
    pairs: list[PairedOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.pairs)

    def transitions(self) -> dict[tuple[str, str], int]:
        """(outcome on A, outcome on B) -> count."""
        return dict(Counter((p.outcome_a, p.outcome_b) for p in self.pairs))

    def changed(self) -> list[PairedOutcome]:
        return [p for p in self.pairs if p.changed]

    def improvement(self, bad: tuple[str, ...] = ("escaped",)) -> int:
        """Experiments bad on A but not on B, minus the reverse — the
        net number of failures the B variant removed."""
        fixed = sum(
            1 for p in self.pairs if p.outcome_a in bad and p.outcome_b not in bad
        )
        regressed = sum(
            1 for p in self.pairs if p.outcome_a not in bad and p.outcome_b in bad
        )
        return fixed - regressed


def _by_index(view: CampaignClassification) -> dict[int, tuple]:
    experiments: dict[int, tuple] = {}
    for verdict, facts in zip(view.classifications, view.facts(), strict=True):
        data = facts.experiment_data
        faults = tuple(
            f"{f['location']}@{f['injection_cycle']}" for f in data.get("faults", [])
        )
        experiments[int(data.get("index", -1))] = (faults, verdict.category)
    return experiments


def compare_campaigns(
    db: GoofiDatabase,
    campaign_a: str,
    campaign_b: str,
    require_identical_faults: bool = True,
) -> CampaignComparison:
    """Pair two campaigns experiment-by-experiment.

    With ``require_identical_faults`` (the default), a mismatch in any
    paired fault list raises: comparing different fault lists silently
    would invalidate the study design.  Pass ``False`` when comparing
    campaigns on *different targets* (same seed, different location
    spaces), where only the outcome marginals are meaningful.
    """
    by_index_a = _by_index(classify_campaign(db, campaign_a))
    by_index_b = _by_index(classify_campaign(db, campaign_b))
    common = sorted(set(by_index_a) & set(by_index_b))
    if not common:
        raise AnalysisError(
            f"campaigns {campaign_a!r} and {campaign_b!r} share no experiment indices"
        )
    comparison = CampaignComparison(campaign_a=campaign_a, campaign_b=campaign_b)
    for index in common:
        faults_a, outcome_a = by_index_a[index]
        faults_b, outcome_b = by_index_b[index]
        if require_identical_faults and faults_a != faults_b:
            raise AnalysisError(
                f"experiment index {index} has different fault lists in "
                f"{campaign_a!r} and {campaign_b!r}; run both variants from "
                f"the same seed, or pass require_identical_faults=False"
            )
        comparison.pairs.append(
            PairedOutcome(
                index=index,
                fault_labels=faults_a,
                outcome_a=outcome_a,
                outcome_b=outcome_b,
            )
        )
    return comparison


def format_comparison(comparison: CampaignComparison) -> str:
    """Render the transition matrix (rows: outcome on A; columns: B)."""
    transitions = comparison.transitions()
    width = max(len(o) for o in OUTCOMES) + 2
    corner = "A \\ B"
    header = f"{corner:<{width}}" + "".join(f"{o:>{width}}" for o in OUTCOMES)
    lines = [
        f"Paired comparison: {comparison.campaign_a!r} (A) vs "
        f"{comparison.campaign_b!r} (B), {comparison.total} paired experiments",
        header,
        "-" * len(header),
    ]
    for outcome_a in OUTCOMES:
        row = f"{outcome_a:<{width}}"
        for outcome_b in OUTCOMES:
            row += f"{transitions.get((outcome_a, outcome_b), 0):>{width}}"
        lines.append(row)
    lines.append("")
    lines.append(
        f"outcomes changed by variant B: {len(comparison.changed())} "
        f"({len(comparison.changed()) / comparison.total:.0%}); "
        f"net escaped-errors removed: {comparison.improvement()}"
    )
    return "\n".join(lines)
