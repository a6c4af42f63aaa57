"""Human-readable campaign reports.

Renders the analysis-phase results (classification counts, coverage
measures, per-mechanism and per-location breakdowns) as plain-text
tables — what the paper's user reads after a campaign, and what the
benches print when regenerating the experiment tables.
"""

from __future__ import annotations

from ..db import GoofiDatabase
from .classify import CampaignClassification, classify_campaign
from .latency import detection_latencies, format_latency_report
from .measures import (
    GroupBreakdown,
    detection_coverage,
    effectiveness,
    failure_rate,
    per_group_breakdown,
    per_time_breakdown,
)


def format_classification(classification: CampaignClassification) -> str:
    """The §3.4 outcome table for one campaign."""
    total = classification.total or 1
    lines = [
        f"Campaign {classification.campaign_name!r}: "
        f"{classification.total} experiments",
        "",
        f"{'outcome':<28}{'count':>8}{'share':>10}",
        "-" * 46,
    ]

    def row(label: str, count: int, indent: int = 0) -> str:
        return f"{' ' * indent}{label:<{28 - indent}}{count:>8}{count / total:>10.1%}"

    lines.append(row("Effective errors", classification.effective))
    lines.append(row("Detected errors", classification.detected, indent=2))
    for mechanism, count in sorted(
        classification.by_mechanism().items(), key=lambda kv: -kv[1]
    ):
        lines.append(row(mechanism, count, indent=4))
    lines.append(row("Escaped errors", classification.escaped, indent=2))
    for kind, count in sorted(classification.by_escape_kind().items(), key=lambda kv: -kv[1]):
        lines.append(row(kind, count, indent=4))
    lines.append(row("Non-effective errors", classification.non_effective))
    lines.append(row("Latent errors", classification.latent, indent=2))
    lines.append(row("Overwritten errors", classification.overwritten, indent=2))
    return "\n".join(lines)


def format_measures(classification: CampaignClassification) -> str:
    lines = [
        f"Dependability measures for {classification.campaign_name!r} "
        f"(95% Clopper-Pearson intervals):",
        f"  error-detection coverage : {detection_coverage(classification)}",
        f"  fault effectiveness      : {effectiveness(classification)}",
        f"  failure (escape) rate    : {failure_rate(classification)}",
    ]
    return "\n".join(lines)


def format_breakdowns(breakdowns: list[GroupBreakdown], title: str) -> str:
    lines = [
        title,
        f"{'group':<24}{'total':>7}{'det':>6}{'esc':>6}{'lat':>6}{'ovw':>6}  {'coverage':<30}",
        "-" * 87,
    ]
    for b in breakdowns:
        coverage = str(b.coverage()) if b.effective else "n/a (no effective)"
        lines.append(
            f"{b.group:<24}{b.total:>7}{b.detected:>6}{b.escaped:>6}"
            f"{b.latent:>6}{b.overwritten:>6}  {coverage:<30}"
        )
    return "\n".join(lines)


def campaign_report(db: GoofiDatabase, campaign_name: str, time_bins: int = 8) -> str:
    """The full analysis-phase report for one campaign."""
    view = classify_campaign(db, campaign_name)
    sections = [
        format_classification(view),
        "",
        format_measures(view),
        "",
        format_breakdowns(per_group_breakdown(view), "Outcome mix per location group:"),
        "",
        format_breakdowns(
            per_time_breakdown(view, bins=time_bins),
            "Outcome mix per injection-time bin (cycles):",
        ),
    ]
    if view.detected:
        statistics = detection_latencies(view)
        sections.extend(
            ["", format_latency_report(statistics, "Detection latency (cycles):")]
        )
    from .telemetry_report import telemetry_section

    telemetry = telemetry_section(db, campaign_name)
    if telemetry is not None:
        sections.extend(["", telemetry])
    return "\n".join(sections)
