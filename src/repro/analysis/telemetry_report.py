"""Render campaign telemetry snapshots — the ``goofi stats`` surface.

Works from the JSON-able snapshot a telemetered run stores in the
``CampaignTelemetry`` table (or streams to JSONL): phase-time
breakdown, throughput, fast-path and checkpoint hit rates, database
batch latency, and — when the run logged spans — the slowest
experiments.
"""

from __future__ import annotations

from ..core.errors import AnalysisError
from ..db import DatabaseError, GoofiDatabase


def _fmt_secs(seconds: float) -> str:
    """Adaptive duration formatting: µs/ms below a second, otherwise
    the compact minutes form used by the progress line."""
    if seconds < 0.001:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60:
        return f"{seconds:.2f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    return f"{minutes}m{secs:02d}s"


def _fmt_count(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.1f}"


def _fmt_bytes(value: float | None) -> str:
    if value is None:
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return f"{value:,.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:,.1f}GiB"  # pragma: no cover - loop always returns


def phase_breakdown(snapshot: dict) -> list[tuple[str, float, int]]:
    """``(phase, total_seconds, calls)`` for every ``phase.*`` timer,
    slowest first."""
    rows = []
    for name, stat in snapshot.get("timers", {}).items():
        if name.startswith("phase."):
            rows.append((name[len("phase."):], stat["seconds"], stat["count"]))
    rows.sort(key=lambda row: -row[1])
    return rows


def _ratio_line(label: str, hits: float, total: float) -> str:
    share = hits / total if total else 0.0
    return f"  {label:<22}: {_fmt_count(hits)} of {_fmt_count(total)} ({share:.1%})"


def resource_summary(samples: list[dict]) -> dict:
    """Fold ``ResourceSample`` rows (sample dicts, see
    :data:`repro.core.resources.RESOURCE_SAMPLE_KEYS`) into per-worker
    and campaign-wide totals.

    CPU counters inside a sample are *cumulative* for that process, so
    a worker's total is its last sample; campaign CPU is the sum of the
    per-worker totals.  RSS and shared-memory footprints are peaks
    (max over samples).
    """
    workers: dict[int, dict] = {}
    for sample in samples:
        worker = sample.get("worker", 0)
        entry = workers.setdefault(
            worker,
            {
                "samples": 0,
                "source": sample.get("source"),
                "cpu_user_seconds": 0.0,
                "cpu_system_seconds": 0.0,
                "peak_rss_bytes": None,
                "peak_shm_bytes": None,
                "timeline": [],
            },
        )
        entry["samples"] += 1
        if sample.get("cpu_user_seconds") is not None:
            entry["cpu_user_seconds"] = sample["cpu_user_seconds"]
        if sample.get("cpu_system_seconds") is not None:
            entry["cpu_system_seconds"] = sample["cpu_system_seconds"]
        for key, peak in (("rss_bytes", "peak_rss_bytes"),
                          ("shm_bytes", "peak_shm_bytes")):
            value = sample.get(key)
            if value is not None:
                current = entry[peak]
                entry[peak] = value if current is None else max(current, value)
        entry["timeline"].append(
            (sample.get("uptime_seconds", 0.0), sample.get("rss_bytes"))
        )
    peaks_rss = [w["peak_rss_bytes"] for w in workers.values()
                 if w["peak_rss_bytes"] is not None]
    peaks_shm = [w["peak_shm_bytes"] for w in workers.values()
                 if w["peak_shm_bytes"] is not None]
    return {
        "samples": len(samples),
        "workers": workers,
        "cpu_user_seconds": sum(w["cpu_user_seconds"] for w in workers.values()),
        "cpu_system_seconds": sum(
            w["cpu_system_seconds"] for w in workers.values()
        ),
        "peak_rss_bytes": max(peaks_rss) if peaks_rss else None,
        "peak_shm_bytes": max(peaks_shm) if peaks_shm else None,
    }


def _worker_label(worker: int) -> str:
    # The serial loop and the parallel coordinator sample as well;
    # COORDINATOR_WORKER (-1) reads better spelled out.
    return "coordinator" if worker < 0 else f"worker {worker}"


def format_stats_report(
    campaign_name: str, snapshot: dict, spans: list[dict] | None = None,
    span_count: int = 0, resources: list[dict] | None = None,
) -> str:
    """The full ``goofi stats`` report for one campaign.  ``spans`` are
    the slowest of the campaign's ``span_count`` spans, slowest first."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    timers = snapshot.get("timers", {})

    workers = int(gauges.get("workers", 1))
    elapsed = gauges.get("elapsed_seconds", 0.0)
    experiments = counters.get("experiments", 0)
    instructions = counters.get("instructions", 0)

    lines = [
        f"Telemetry for campaign {campaign_name!r} "
        f"({workers} worker{'s' if workers != 1 else ''}):",
    ]

    phases = phase_breakdown(snapshot)
    if phases:
        phase_total = sum(seconds for _, seconds, _ in phases)
        name_width = max(12, max(len(name) for name, _, _ in phases) + 1)
        lines += [
            "",
            "Phase-time breakdown (summed across workers):",
            f"  {'phase':<{name_width}}{'total':>10}{'calls':>8}{'mean':>10}{'share':>8}",
        ]
        for name, seconds, count in phases:
            mean = seconds / count if count else 0.0
            share = seconds / phase_total if phase_total else 0.0
            lines.append(
                f"  {name:<{name_width}}{_fmt_secs(seconds):>10}{count:>8}"
                f"{_fmt_secs(mean):>10}{share:>8.1%}"
            )

    lines += ["", "Throughput:"]
    lines.append(f"  {'experiments':<22}: {_fmt_count(experiments)}")
    if elapsed:
        lines.append(f"  {'wall-clock':<22}: {_fmt_secs(elapsed)}")
        lines.append(
            f"  {'experiments/s':<22}: {experiments / elapsed:,.1f}"
        )
    if instructions:
        lines.append(f"  {'instructions (cycles)':<22}: {_fmt_count(instructions)}")
        if elapsed:
            lines.append(
                f"  {'instructions/s':<22}: {instructions / elapsed:,.0f}"
            )

    startup = timers.get("phase.worker_startup")
    if startup and startup.get("count"):
        # Worker setup (building the target around the inherited
        # start-up state) is pure overhead of fanning out — called out
        # explicitly so it is visible at a glance.
        count = startup["count"]
        lines += ["", "Parallel workers:"]
        lines.append(
            f"  {'startup (per worker)':<22}: mean "
            f"{_fmt_secs(startup['seconds'] / count)} across "
            f"{_fmt_count(count)} workers"
        )

    fast = counters.get("engine.fast_segments", 0)
    ref = counters.get("engine.ref_segments", 0)
    if fast or ref:
        lines += ["", "Execution engine:"]
        lines.append(_ratio_line("fast-path segments", fast, fast + ref))

    restores = counters.get("checkpoint.restores", 0)
    misses = counters.get("checkpoint.misses", 0)
    if restores or misses:
        lines += ["", "Checkpointing:"]
        lines.append(_ratio_line("restored prefixes", restores, restores + misses))
        saves = counters.get("checkpoint.saves", 0)
        evictions = counters.get("checkpoint.cache.evictions", 0)
        lines.append(
            f"  {'cache':<22}: {_fmt_count(saves)} saves, "
            f"{_fmt_count(evictions)} evictions"
        )

    rows = counters.get("db.rows", 0)
    batches = counters.get("db.batches", 0)
    db_write = timers.get("phase.db_write")
    if batches:
        lines += ["", "Database:"]
        lines.append(
            f"  {'rows written':<22}: {_fmt_count(rows)} in "
            f"{_fmt_count(batches)} batches"
        )
        if db_write and db_write["count"]:
            lines.append(
                f"  {'batch write':<22}: mean "
                f"{_fmt_secs(db_write['seconds'] / db_write['count'])}, total "
                f"{_fmt_secs(db_write['seconds'])}"
            )

    histogram = snapshot.get("histograms", {}).get("experiment.seconds")
    if histogram and sum(histogram["counts"]):
        lines += ["", "Experiment duration distribution:"]
        buckets = []
        for bound, count in zip(histogram["bounds"], histogram["counts"]):
            if count:
                buckets.append(f"<={_fmt_secs(bound)}: {count}")
        overflow = histogram["counts"][len(histogram["bounds"])]
        if overflow:
            buckets.append(f">{_fmt_secs(histogram['bounds'][-1])}: {overflow}")
        lines.append("  " + "   ".join(buckets))

    if resources:
        folded = resource_summary(resources)
        lines += ["", f"Resources ({folded['samples']} samples):"]
        for worker in sorted(folded["workers"]):
            entry = folded["workers"][worker]
            cpu = entry["cpu_user_seconds"] + entry["cpu_system_seconds"]
            lines.append(
                f"  {_worker_label(worker):<22}: "
                f"{entry['samples']:>4} samples, cpu {_fmt_secs(cpu)}, "
                f"peak rss {_fmt_bytes(entry['peak_rss_bytes'])}, "
                f"peak shm {_fmt_bytes(entry['peak_shm_bytes'])} "
                f"[{entry['source'] or 'unavailable'}]"
            )
        total_cpu = folded["cpu_user_seconds"] + folded["cpu_system_seconds"]
        lines.append(
            f"  {'total cpu':<22}: {_fmt_secs(total_cpu)} "
            f"(user {_fmt_secs(folded['cpu_user_seconds'])}, "
            f"system {_fmt_secs(folded['cpu_system_seconds'])})"
        )
        lines.append(
            f"  {'peak rss (any worker)':<22}: "
            f"{_fmt_bytes(folded['peak_rss_bytes'])}"
        )
        if folded["peak_shm_bytes"] is not None:
            lines.append(
                f"  {'peak shared memory':<22}: "
                f"{_fmt_bytes(folded['peak_shm_bytes'])}"
            )

    if span_count:
        lines += ["", f"Slowest experiments (of {span_count} spans):"]
        for span in spans or ():
            span_phases = span.get("phases", {})
            dominant = max(span_phases, key=span_phases.get) if span_phases else "-"
            lines.append(
                f"  {span['experiment']:<32} "
                f"{_fmt_secs(span.get('duration_seconds', 0.0)):>10}  "
                f"{span.get('outcome') or '?':<16} dominant: {dominant}"
            )
    return "\n".join(lines)


def stats_report(
    db: GoofiDatabase, campaign_name: str, slowest: int = 5
) -> str:
    """Load a campaign's stored telemetry and render the report.

    Resource samples live in their own table and do not require a
    telemetry snapshot — a run with ``--resources`` but no
    ``--telemetry`` still gets a report (with just the Resources
    section)."""
    if slowest < 0:
        # SQLite reads a negative LIMIT as no limit at all.
        raise AnalysisError(f"slowest must be >= 0, got {slowest}")
    resources = [
        record.sample for record in db.iter_resource_samples(campaign_name)
    ]
    try:
        snapshot = db.load_campaign_telemetry(campaign_name)
    except DatabaseError:
        if not resources:
            raise
        snapshot = {}
    span_count = db.count_spans(campaign_name)
    spans = [record.span for record in db.slowest_spans(campaign_name, slowest)]
    return format_stats_report(
        campaign_name, snapshot, spans=spans, span_count=span_count,
        resources=resources or None,
    )


def telemetry_section(db: GoofiDatabase, campaign_name: str) -> str | None:
    """The stats report when the campaign has a stored snapshot, else
    ``None`` — lets :func:`repro.analysis.reports.campaign_report`
    append telemetry without requiring it."""
    try:
        return stats_report(db, campaign_name)
    except DatabaseError:  # no snapshot and no resource samples
        return None


def throughput_summary(snapshot: dict) -> dict:
    """Machine-readable headline numbers (used by benches and tests)."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    elapsed = gauges.get("elapsed_seconds", 0.0)
    experiments = counters.get("experiments", 0)
    instructions = counters.get("instructions", 0)
    if not experiments:
        raise AnalysisError("telemetry snapshot holds no finished experiments")
    return {
        "experiments": experiments,
        "instructions": instructions,
        "elapsed_seconds": elapsed,
        "experiments_per_second": experiments / elapsed if elapsed else None,
        "instructions_per_second": instructions / elapsed if elapsed else None,
        "workers": int(gauges.get("workers", 1)),
    }
