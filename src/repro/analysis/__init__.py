"""Analysis phase: classification, dependability measures, propagation
analysis, report rendering, and auto-generated analysis software.

The package imports the modules a campaign's analysis phase runs
(classification, measures, latency, the campaign and telemetry
reports).  Every other tool loads on first use of one of its names,
through :data:`_LAZY` (see :mod:`repro.lazy`): the gate, HTML report,
trend, comparison, sensitivity, sample-size, export, trace-export,
generated-analysis, dependability and probe reports, and the
propagation analysis, which imports :mod:`networkx` (~0.2 s).
"""

from ..lazy import lazy_names as _lazy_names

from .classify import (
    CATEGORY_DETECTED,
    CATEGORY_ESCAPED,
    CATEGORY_LATENT,
    CATEGORY_OVERWRITTEN,
    CampaignClassification,
    Classification,
    classify_campaign,
    classify_experiment,
    state_difference,
)
from .latency import (
    LatencySample,
    LatencyStatistics,
    detection_latencies,
    format_latency_report,
)
from .measures import (
    GroupBreakdown,
    Proportion,
    detection_coverage,
    effectiveness,
    failure_rate,
    mechanism_shares,
    per_group_breakdown,
    per_location_breakdown,
    per_time_breakdown,
    proportion,
)
from .reports import campaign_report, format_classification, format_measures
from .telemetry_report import (
    format_stats_report,
    phase_breakdown,
    resource_summary,
    stats_report,
    throughput_summary,
)

#: Submodule → the names this package serves from it on first use.
_LAZY = {
    "autogen": ("generate_analysis_script", "generate_analysis_sql", "run_generated_sql"),
    "compare": (
        "CampaignComparison",
        "PairedOutcome",
        "compare_campaigns",
        "format_comparison",
    ),
    "dependability": (
        "DependabilityModel",
        "Interval",
        "format_dependability_report",
        "model_from_campaign",
    ),
    "export": ("COLUMNS", "export_csv", "export_csv_file", "export_rows"),
    "gates": (
        "BoundCheck",
        "GateResult",
        "count_critical_failures",
        "evaluate_gate",
        "format_gate_report",
    ),
    "htmlreport": (
        "render_campaign_report",
        "render_index",
        "write_campaign_report",
        "write_index",
    ),
    "probes_report": (
        "EdmCoverage",
        "edm_coverage",
        "format_propagation_report",
        "infection_percentiles",
        "propagation_report",
    ),
    "propagation": (
        "PropagationAnalysis",
        "TimelinePoint",
        "analyze_propagation",
        "propagation_summary",
    ),
    "samplesize": ("SequentialPlan", "achieved_half_width", "required_experiments"),
    "sensitivity": (
        "BitSensitivity",
        "band_rates",
        "bit_sensitivity",
        "format_sensitivity_map",
    ),
    "traceexport": ("build_trace", "validate_trace", "write_trace"),
    "trends": (
        "TrendCheck",
        "TrendResult",
        "evaluate_trend",
        "format_history",
        "format_trend_report",
        "record_run",
        "run_summary",
        "trend_against_history",
    ),
}

__getattr__, __all__ = _lazy_names(__name__, _LAZY, globals())
