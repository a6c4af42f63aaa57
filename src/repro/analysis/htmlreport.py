"""Self-contained HTML campaign dashboards — the ``goofi report`` surface.

The paper's analysis menu ends at text reports and generated SQL; this
module renders one **single-file** HTML page per campaign so a CI run
can attach a browsable artifact.  Everything is inlined — styles in a
``<style>`` block, every chart a hand-built inline ``<svg>`` — so the
file opens from disk with no network access, no external assets, and
no JavaScript.  Only the standard library is used.

Two modes:

* :func:`render_campaign_report` — one campaign: overview, detection
  coverage per fault class, latency histogram, probe infection curves,
  phase-time breakdown, per-worker resource timelines, cross-run trend
  sparklines, and profiler hotspots.  Sections whose data source was
  not recorded (no probes, no telemetry, no history, …) are skipped
  and listed in a footer note instead of rendering empty charts.
* :func:`render_index` — all campaigns in one database as a summary
  table, linking to per-campaign report files by naming convention.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

from ..db import GoofiDatabase
from .classify import CampaignClassification, classify_campaign
from .latency import detection_latencies
from .measures import detection_coverage
from .probes_report import edm_coverage, infection_percentiles, load_probe_payloads
from .telemetry_report import _fmt_bytes, _fmt_secs, phase_breakdown, resource_summary

#: Section ids in render order — also the anchor targets of the nav bar.
SECTION_IDS = (
    "overview",
    "coverage",
    "latency",
    "infection",
    "phases",
    "resources",
    "trends",
    "profile",
)

#: Colour cycle for multi-series charts (colour-blind friendly-ish).
_PALETTE = (
    "#2563eb", "#dc2626", "#059669", "#d97706",
    "#7c3aed", "#0891b2", "#be185d", "#4d7c0f",
)

#: Cap on overlaid probe infection curves — past this the plot is ink.
_MAX_CURVES = 40

#: Hotspot rows shown in the profile section.
_PROFILE_ROWS = 15

_STYLE = """
  body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
         margin: 0; background: #f3f4f6; color: #111827; }
  header { background: #111827; color: #f9fafb; padding: 18px 28px; }
  header h1 { margin: 0; font-size: 20px; }
  header .sub { color: #9ca3af; font-size: 13px; margin-top: 4px; }
  nav { background: #1f2937; padding: 8px 28px; }
  nav a { color: #d1d5db; text-decoration: none; margin-right: 16px;
          font-size: 13px; }
  main { max-width: 980px; margin: 0 auto; padding: 20px; }
  section { background: #ffffff; border-radius: 8px; padding: 18px 22px;
            margin-bottom: 18px; box-shadow: 0 1px 2px rgba(0,0,0,.08); }
  section h2 { margin-top: 0; font-size: 16px; }
  table { border-collapse: collapse; font-size: 13px; margin: 8px 0; }
  th, td { text-align: left; padding: 4px 14px 4px 0; }
  th { color: #6b7280; font-weight: 600; border-bottom: 1px solid #e5e7eb; }
  td.num, th.num { text-align: right; }
  .note { color: #6b7280; font-size: 12px; }
  footer { color: #6b7280; font-size: 12px; padding: 0 28px 24px;
           max-width: 980px; margin: 0 auto; }
  svg text { font-family: inherit; }
"""


# ----------------------------------------------------------------------
# Inline-SVG primitives
# ----------------------------------------------------------------------
def _svg_bars(rows: list[tuple[str, float, str]], width: int = 640) -> str:
    """Horizontal bar chart: ``(label, value, value_text)`` rows."""
    if not rows:
        return ""
    label_w, bar_h, gap = 200, 20, 6
    peak = max(value for _, value, _ in rows) or 1.0
    plot_w = width - label_w - 80
    height = len(rows) * (bar_h + gap)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
    ]
    for index, (label, value, text) in enumerate(rows):
        y = index * (bar_h + gap)
        w = max(1.0, plot_w * value / peak) if value > 0 else 0.0
        colour = _PALETTE[index % len(_PALETTE)]
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 6}" '
            f'text-anchor="end" font-size="12">{escape(label)}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" '
            f'height="{bar_h}" fill="{colour}" rx="2"/>'
        )
        parts.append(
            f'<text x="{label_w + w + 6:.1f}" y="{y + bar_h - 6}" '
            f'font-size="12" fill="#374151">{escape(text)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _svg_histogram(
    bins: list[tuple[float, float, int]], width: int = 640, height: int = 180
) -> str:
    """Vertical histogram over ``(start, end, count)`` bins."""
    if not bins:
        return ""
    pad_left, pad_bottom = 10, 34
    peak = max(count for _, _, count in bins) or 1
    plot_h = height - pad_bottom
    bar_w = (width - pad_left) / len(bins)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
    ]
    for index, (start, end, count) in enumerate(bins):
        x = pad_left + index * bar_w
        h = plot_h * count / peak
        parts.append(
            f'<rect x="{x + 1:.1f}" y="{plot_h - h:.1f}" '
            f'width="{bar_w - 2:.1f}" height="{h:.1f}" '
            f'fill="{_PALETTE[0]}" rx="2"/>'
        )
        if count:
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{plot_h - h - 4:.1f}" '
                f'text-anchor="middle" font-size="11" '
                f'fill="#374151">{count}</text>'
            )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{height - 18}" '
            f'text-anchor="middle" font-size="10" fill="#6b7280">'
            f"{start:,.0f}–{end:,.0f}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _svg_lines(
    series: list[tuple[str, list[tuple[float, float]]]],
    width: int = 640,
    height: int = 220,
    x_label: str = "",
    y_label: str = "",
    legend: bool = True,
) -> str:
    """Multi-series line chart.  Each series is ``(label, points)``
    with points as ``(x, y)``; points with ``None`` values must be
    filtered by the caller."""
    populated = [(label, pts) for label, pts in series if pts]
    if not populated:
        return ""
    xs = [x for _, pts in populated for x, _ in pts]
    ys = [y for _, pts in populated for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    pad_left, pad_bottom, pad_top = 10, 36, 10
    plot_w, plot_h = width - pad_left - 10, height - pad_bottom - pad_top

    def point(x: float, y: float) -> str:
        px = pad_left + plot_w * (x - x_min) / x_span
        py = pad_top + plot_h * (1.0 - (y - y_min) / y_span)
        return f"{px:.1f},{py:.1f}"

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">',
        f'<rect x="{pad_left}" y="{pad_top}" width="{plot_w}" '
        f'height="{plot_h}" fill="#f9fafb" stroke="#e5e7eb"/>',
    ]
    for index, (label, pts) in enumerate(populated):
        colour = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(point(x, y) for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{colour}" '
            f'stroke-width="1.5"/>'
        )
        if legend and len(populated) <= len(_PALETTE):
            lx = pad_left + 8 + index * 120
            parts.append(
                f'<rect x="{lx}" y="{height - 14}" width="10" height="10" '
                f'fill="{colour}"/>'
                f'<text x="{lx + 14}" y="{height - 5}" font-size="11" '
                f'fill="#374151">{escape(label)}</text>'
            )
    axis = []
    if x_label:
        axis.append(f"{x_label}: {x_min:,.2f}–{x_max:,.2f}")
    if y_label:
        axis.append(f"{y_label}: {y_min:,.2f}–{y_max:,.2f}")
    if axis:
        parts.append(
            f'<text x="{width - 10}" y="{pad_top + 12}" text-anchor="end" '
            f'font-size="11" fill="#6b7280">{escape(" | ".join(axis))}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _svg_sparkline(
    values: list[float], width: int = 140, height: int = 30
) -> str:
    """Tiny inline trend line (no axes), oldest value first."""
    points = [v for v in values if v is not None]
    if len(points) < 2:
        return '<span class="note">n/a</span>'
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    step = (width - 4) / (len(points) - 1)
    coords = " ".join(
        f"{2 + i * step:.1f},{2 + (height - 4) * (1 - (v - lo) / span):.1f}"
        for i, v in enumerate(points)
    )
    last_x = 2 + (len(points) - 1) * step
    last_y = 2 + (height - 4) * (1 - (points[-1] - lo) / span)
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
        f'<polyline points="{coords}" fill="none" stroke="{_PALETTE[0]}" '
        f'stroke-width="1.5"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" '
        f'fill="{_PALETTE[1]}"/></svg>'
    )


def _table(headers: list[str], rows: list[list[str]],
           numeric: set[int] = frozenset()) -> str:
    head = "".join(
        f'<th{" class=" + chr(34) + "num" + chr(34) if i in numeric else ""}>'
        f"{escape(h)}</th>"
        for i, h in enumerate(headers)
    )
    body = "".join(
        "<tr>" + "".join(
            f'<td{" class=" + chr(34) + "num" + chr(34) if i in numeric else ""}>'
            f"{cell}</td>"
            for i, cell in enumerate(row)
        ) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


# ----------------------------------------------------------------------
# Sections (each returns inner HTML, or raises to be skipped)
# ----------------------------------------------------------------------
def _section_overview(db: GoofiDatabase, view: CampaignClassification) -> str:
    name = view.campaign_name
    record = db.load_campaign(name)
    config = record.config
    coverage = detection_coverage(view)
    fault_model = config.get("fault_model", {})
    rows = [
        ["workload", escape(str(config.get("workload", "?")))],
        ["technique", escape(str(config.get("technique", "?")))],
        ["fault model", escape(str(fault_model.get("name", "?")))],
        ["locations", escape(", ".join(config.get("location_patterns", [])))],
        ["experiments logged", f"{db.count_experiments(name):,}"],
        ["status", escape(record.status)],
        ["seed", escape(str(config.get("seed", "?")))],
    ]
    estimate = coverage.estimate
    coverage_text = (
        f"{estimate:.1%} (95% CI {coverage.ci_low:.1%}–"
        f"{coverage.ci_high:.1%}, {coverage.trials} effective faults)"
        if coverage.trials
        else "no effective faults"
    )
    rows.append(["detection coverage", escape(coverage_text)])
    return _table(["property", "value"], rows)


def _section_coverage(db: GoofiDatabase, view: CampaignClassification) -> str:
    if not view.total:
        raise ValueError("no classified experiments")
    parts = ["<h3>Outcomes</h3>"]
    parts.append(_svg_bars([
        (category, float(count), f"{count} ({count / view.total:.1%})")
        for category, count in (
            ("detected", view.detected),
            ("escaped", view.escaped),
            ("latent", view.latent),
            ("overwritten", view.overwritten),
        )
    ]))
    mechanisms = view.by_mechanism()
    if mechanisms:
        parts.append("<h3>Detections per mechanism</h3>")
        parts.append(_svg_bars([
            (mechanism, float(count), str(count))
            for mechanism, count in sorted(
                mechanisms.items(), key=lambda item: -item[1]
            )
        ]))
    try:
        matrix = edm_coverage(load_probe_payloads(db, view.campaign_name))
    except Exception:
        matrix = None
    if matrix is not None and matrix.classes:
        parts.append("<h3>Coverage per injected fault class (probes)</h3>")
        parts.append(_svg_bars([
            (
                location_class,
                matrix.coverage(location_class),
                f"{matrix.coverage(location_class):.1%} "
                f"of {matrix.row_total(location_class)}",
            )
            for location_class in matrix.classes
        ]))
    return "".join(parts)


def _section_latency(db: GoofiDatabase, view: CampaignClassification) -> str:
    stats = detection_latencies(view)
    if not stats.count:
        raise ValueError("no detection latencies")
    rows = [[
        f"{stats.count}",
        f"{stats.mean:,.0f}",
        f"{stats.median:,.0f}",
        f"{stats.percentile(90):,.0f}",
        f"{stats.percentile(95):,.0f}",
        f"{stats.percentile(99):,.0f}",
        f"{stats.maximum:,.0f}",
    ]]
    table = _table(
        ["samples", "mean", "p50", "p90", "p95", "p99", "max"],
        rows, numeric=set(range(7)),
    )
    note = (
        f'<p class="note">{stats.skipped} detected experiment(s) carried '
        "no detection cycle and are excluded.</p>" if stats.skipped else ""
    )
    return (
        table
        + _svg_histogram(stats.histogram(bins=10))
        + '<p class="note">Detection latency in cycles from injection '
        "to the first detecting mechanism.</p>" + note
    )


def _section_infection(db: GoofiDatabase, view: CampaignClassification) -> str:
    payloads = load_probe_payloads(db, view.campaign_name)
    percentiles = infection_percentiles(payloads)
    curves = []
    for payload in payloads:
        curve = payload.get("infection_curve") or []
        points = [(float(cycle), float(count)) for cycle, count in curve]
        if points:
            curves.append((payload.get("experiment", ""), points))
        if len(curves) >= _MAX_CURVES:
            break
    chart = _svg_lines(
        curves, x_label="cycle", y_label="infected elements", legend=False
    )
    summary = _table(
        ["experiments probed", "diverged", "diverged share"],
        [[
            f"{percentiles['experiments']}",
            f"{percentiles['diverged']}",
            f"{percentiles['diverged_share']:.1%}",
        ]],
        numeric={0, 1, 2},
    )
    capped = (
        f'<p class="note">showing the first {_MAX_CURVES} of '
        f"{len(payloads)} probed experiments</p>"
        if len(payloads) > _MAX_CURVES else ""
    )
    return (
        summary + chart + capped
        + '<p class="note">Each line is one experiment’s infected '
        "scan-element count over time (propagation probes).</p>"
    )


def _section_phases(db: GoofiDatabase, view: CampaignClassification) -> str:
    snapshot = db.load_campaign_telemetry(view.campaign_name)
    phases = phase_breakdown(snapshot)
    if not phases:
        raise ValueError("no phase timers")
    total = sum(seconds for _, seconds, _ in phases) or 1.0
    chart = _svg_bars([
        (phase, seconds, f"{_fmt_secs(seconds)} ({seconds / total:.1%})")
        for phase, seconds, _ in phases
    ])
    table = _table(
        ["phase", "total", "calls", "mean"],
        [
            [
                escape(phase),
                _fmt_secs(seconds),
                f"{count:,}",
                _fmt_secs(seconds / count if count else 0.0),
            ]
            for phase, seconds, count in phases
        ],
        numeric={1, 2, 3},
    )
    return chart + table


def _section_resources(db: GoofiDatabase, view: CampaignClassification) -> str:
    samples = [record.sample for record in db.iter_resource_samples(view.campaign_name)]
    if not samples:
        raise ValueError("no resource samples")
    folded = resource_summary(samples)
    series = []
    for worker in sorted(folded["workers"]):
        timeline = [
            (float(uptime), rss / (1024 * 1024))
            for uptime, rss in folded["workers"][worker]["timeline"]
            if rss is not None
        ]
        label = "coordinator" if worker < 0 else f"worker {worker}"
        series.append((label, timeline))
    chart = _svg_lines(
        series, x_label="uptime (s)", y_label="RSS (MiB)"
    )
    table = _table(
        ["worker", "samples", "cpu user", "cpu system", "peak RSS",
         "peak shm", "source"],
        [
            [
                escape("coordinator" if worker < 0 else str(worker)),
                f"{entry['samples']:,}",
                _fmt_secs(entry["cpu_user_seconds"]),
                _fmt_secs(entry["cpu_system_seconds"]),
                _fmt_bytes(entry["peak_rss_bytes"]),
                _fmt_bytes(entry["peak_shm_bytes"]),
                escape(entry["source"] or "unavailable"),
            ]
            for worker, entry in sorted(folded["workers"].items())
        ],
        numeric={1, 2, 3, 4, 5},
    )
    return chart + table


def _section_trends(db: GoofiDatabase, view: CampaignClassification) -> str:
    records = list(db.iter_history(view.campaign_name))
    if not records:
        raise ValueError("no recorded history")
    records.reverse()  # chronological, oldest first
    summaries = [record.summary for record in records]

    def track(*path):
        values = []
        for summary in summaries:
            node = summary
            for key in path:
                node = node.get(key) if isinstance(node, dict) else None
                if node is None:
                    break
            values.append(node)
        return values

    metrics = [
        ("coverage estimate", track("coverage", "estimate"), "{:.1%}"),
        ("latency p95 (cycles)", track("latency", "p95"), "{:,.0f}"),
        ("experiments/s", track("throughput", "experiments_per_second"),
         "{:,.1f}"),
    ]
    rows = []
    for label, values, fmt in metrics:
        latest = next(
            (v for v in reversed(values) if v is not None), None
        )
        rows.append([
            escape(label),
            _svg_sparkline(values),
            escape(fmt.format(latest)) if latest is not None else "n/a",
        ])
    return (
        _table(["metric", f"last {len(records)} runs", "latest"], rows,
               numeric={2})
        + '<p class="note">History recorded by '
        "<code>goofi gate --trend</code>.</p>"
    )


def _section_profile(db: GoofiDatabase, view: CampaignClassification) -> str:
    snapshot = db.load_campaign_telemetry(view.campaign_name)
    profile = snapshot.get("profile")
    if not profile or not profile.get("hotspots"):
        raise ValueError("no profile recorded")
    table = _table(
        ["function", "calls", "tottime", "cumtime"],
        [
            [
                escape(spot["function"]),
                f"{spot['calls']:,}",
                _fmt_secs(spot["tottime"]),
                _fmt_secs(spot["cumtime"]),
            ]
            for spot in profile["hotspots"][:_PROFILE_ROWS]
        ],
        numeric={1, 2, 3},
    )
    return (
        f'<p class="note">{profile["functions"]:,} functions profiled '
        f'across {profile["workers"]} worker(s), '
        f'{profile["total_calls"]:,} calls, '
        f'{_fmt_secs(profile["total_tottime"])} total; '
        f"top {_PROFILE_ROWS} by own time.</p>" + table
    )


# ----------------------------------------------------------------------
# Page assembly
# ----------------------------------------------------------------------
_SECTION_TITLES = {
    "overview": "Overview",
    "coverage": "Detection coverage",
    "latency": "Detection latency",
    "infection": "Infection curves",
    "phases": "Phase-time breakdown",
    "resources": "Worker resources",
    "trends": "Cross-run trends",
    "profile": "Profiler hotspots",
}

_SECTION_BUILDERS = {
    "overview": _section_overview,
    "coverage": _section_coverage,
    "latency": _section_latency,
    "infection": _section_infection,
    "phases": _section_phases,
    "resources": _section_resources,
    "trends": _section_trends,
    "profile": _section_profile,
}


def _page(title: str, subtitle: str, nav: list[str], body: str,
          footer: str) -> str:
    nav_html = "".join(
        f'<a href="#{section}">{escape(_SECTION_TITLES[section])}</a>'
        for section in nav
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{escape(title)}</title>\n"
        f"<style>{_STYLE}</style></head>\n"
        f"<body><header><h1>{escape(title)}</h1>"
        f'<div class="sub">{escape(subtitle)}</div></header>\n'
        + (f"<nav>{nav_html}</nav>\n" if nav_html else "")
        + f"<main>{body}</main>\n"
        f"<footer>{footer}</footer></body></html>\n"
    )


def render_campaign_report(db: GoofiDatabase, campaign_name: str) -> str:
    """Render one campaign's dashboard as a self-contained HTML string.

    Sections are built independently; one whose data source is absent
    (campaign run without probes, telemetry, resources, …) is skipped
    and named in the footer, so the report never shows empty charts and
    never fails because an optional observability layer was off.  A row
    that cannot be classified fails the whole report.
    """
    # Fail loudly for an unknown campaign, and build the analysis view
    # before the sections: an unreadable row fails the report instead of
    # silently dropping the sections that read it.
    db.load_campaign(campaign_name)
    view = classify_campaign(db, campaign_name)
    rendered: list[tuple[str, str]] = []
    skipped: list[str] = []
    for section in SECTION_IDS:
        try:
            rendered.append((section, _SECTION_BUILDERS[section](db, view)))
        except Exception:
            skipped.append(section)
    body = "".join(
        f'<section id="{section}">'
        f"<h2>{escape(_SECTION_TITLES[section])}</h2>{inner}</section>"
        for section, inner in rendered
    )
    footer = "Generated by <code>goofi report</code>; single file, no external assets."
    if skipped:
        footer += (
            " Sections without recorded data were omitted: "
            + escape(", ".join(skipped)) + "."
        )
    return _page(
        f"GOOFI campaign report — {campaign_name}",
        "fault-injection campaign dashboard",
        [section for section, _ in rendered],
        body,
        footer,
    )


def render_index(db: GoofiDatabase) -> str:
    """Render the cross-campaign index: one summary row per stored
    campaign, linking to ``<campaign>.html`` next to the index file."""
    rows = []
    for name in db.list_campaigns():
        record = db.load_campaign(name)
        experiments = db.count_experiments(name)
        try:
            classification = classify_campaign(db, name)
            coverage = detection_coverage(classification)
            detected = (
                f"{coverage.estimate:.1%}" if coverage.trials else "n/a"
            )
        except Exception:
            detected = "n/a"
        history = [record.summary for record in db.iter_history(name)]
        history.reverse()
        trend = _svg_sparkline([
            (summary.get("coverage") or {}).get("estimate")
            for summary in history
        ])
        rows.append([
            f'<a href="{escape(name)}.html">{escape(name)}</a>',
            escape(record.status),
            f"{experiments:,}",
            detected,
            trend,
        ])
    if not rows:
        body = '<section id="overview"><h2>Overview</h2>' \
               "<p>No campaigns stored in this database.</p></section>"
    else:
        body = (
            '<section id="overview"><h2>Overview</h2>'
            + _table(
                ["campaign", "status", "experiments", "coverage",
                 "coverage trend"],
                rows, numeric={2, 3},
            )
            + '<p class="note">Per-campaign links expect reports '
            "generated as <code>&lt;campaign&gt;.html</code> next to "
            "this file.</p></section>"
        )
    return _page(
        "GOOFI campaign index",
        "all campaigns in this database",
        [],
        body,
        "Generated by <code>goofi report</code> (index mode).",
    )


def write_campaign_report(
    db: GoofiDatabase, campaign_name: str, out: str | Path
) -> Path:
    """Render and write one campaign's report; returns the path."""
    path = Path(out)
    path.write_text(render_campaign_report(db, campaign_name), encoding="utf-8")
    return path


def write_index(db: GoofiDatabase, out: str | Path) -> Path:
    """Render and write the cross-campaign index; returns the path."""
    path = Path(out)
    path.write_text(render_index(db), encoding="utf-8")
    return path
