"""The ledger's metrics: end-to-end medians over untraced campaigns, and
per-layer numbers from traced ones.  Pure functions over the JSON
reports ``campaign.py`` prints; nothing here imports the program.
"""

from __future__ import annotations

import statistics

from tracer import ENGINE_SPANS

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("exp_per_s", "exp/s"),
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rows_ok_frac", "fraction"),
)

#: Per-campaign values run.py prints beside its result.
CAMPAIGN_KEYS = (
    "exp_per_s", "logged", "wall_s", "setup_s", "analysis_s", "peak_rss_mb",
    "failed", "planned", "host.calib_ms",
)

#: (name, unit) of every per-layer metric.
PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.session_s", "s"),
    ("setup.campaign_s", "s"),
    ("algorithms.reference_s", "s"),
    ("algorithms.cost_x_ref", "x"),
    ("algorithms.experiment_ms.p50", "ms"),
    ("algorithms.experiment_ms.p99", "ms"),
    ("algorithms.experiment_ms.n", "count"),
    ("algorithms.unattributed_share", "fraction"),
    ("plan.generate_s", "s"),
    ("prune.classify_s", "s"),
    ("prune.skipped", "count"),
    ("prune.spot_checks", "count"),
    ("prune.skip_ratio", "fraction"),
    ("checkpoint.restores", "count"),
    ("checkpoint.misses", "count"),
    ("checkpoint.evictions", "count"),
    ("checkpoint.hit_ratio", "fraction"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("target.run_s", "s"),
    ("target.sim_cycles", "count"),
    ("target.cycles_per_s", "cycles/s"),
    ("target.fast_segments", "count"),
    ("target.ref_segments", "count"),
    ("target.ref_share", "fraction"),
    ("target.scan_s", "s"),
    ("target.prepare_s", "s"),
    ("target.capture_s", "s"),
    ("env.exchanges", "count"),
    ("env.exchange_s", "s"),
    ("parallel.publish_s", "s"),
    ("parallel.first_result_s", "s"),
    ("parallel.coordinator_cpu_share", "fraction"),
    ("parallel.worker_util", "fraction"),
    ("parallel.worker_peak_rss_mb", "MB"),
    ("db.write_s", "s"),
    ("db.rows_written", "count"),
    ("db.batches", "count"),
    ("db.read_s", "s"),
    ("db.rows_read", "count"),
    ("db.file_mb", "MB"),
    ("events.records", "count"),
    ("events.emit_s", "s"),
    ("telemetry.spans", "count"),
    ("resources.samples", "count"),
    ("analysis.classify_s", "s"),
    ("analysis.report_s", "s"),
    ("analysis.stats_s", "s"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_share", "fraction"),
)

#: Layers of the self-time table, in campaign order.
LAYER_ORDER = (
    "algorithms", "campaign", "liveness", "checkpoint", "target", "envsim",
    "parallel", "db", "events", "telemetry", "resources", "progress",
)


def _median(reports: list[dict], key: str) -> float:
    return statistics.median(report[key] for report in reports)


def throughput(reports: list[dict]) -> float:
    """Logged experiments ÷ ``run_campaign`` wall, over all ``reports``."""
    return sum(report["logged"] for report in reports) / sum(
        report["wall_s"] for report in reports
    )


def end_to_end(reports: list[dict]) -> dict:
    """Each end-to-end metric over a run's untraced campaigns.

    Every campaign of a run does the same work, and their times differ
    by the host's drift alone, so the timings pool all of them: the
    run's throughput, and the mean set-up and analysis times.  On these
    workloads that is steadier from run to run than the median campaign
    (README.md, "Host noise").  Memory is the median campaign; the row
    check is the worst one."""
    values = {
        "exp_per_s": throughput(reports),
        "setup_s": statistics.fmean(report["setup_s"] for report in reports),
        "analysis_s": statistics.fmean(report["analysis_s"] for report in reports),
        "peak_rss_mb": _median(reports, "peak_rss_mb"),
        "rows_ok_frac": min(
            1 - report["failed"] / report["planned"] for report in reports
        ),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_values(report: dict) -> dict:
    """Per-layer values of one traced campaign."""
    trace = report["trace"]
    wall = report["wall_s"]
    processes = [trace["campaign"], trace["analysis"], *trace["workers"]]
    counts = trace["counts"]

    def total(name: str) -> float:
        return trace["campaign"].get(name, [0, 0.0, 0.0])[1]

    def own(*names: str) -> float:
        return sum(summary.get(name, [0, 0.0, 0.0])[2]
                   for summary in processes for name in names)

    def calls(name: str) -> int:
        return sum(summary.get(name, [0, 0.0, 0.0])[0] for summary in processes)

    prune = report["prune"] or {}
    planned = prune.get("planned") or report["planned"]
    checkpoint = report["checkpoint"] or {}
    restores = checkpoint.get("restores", 0)
    misses = checkpoint.get("misses", 0)
    segments = counts.get("target.fast_segments", 0) + counts.get(
        "target.ref_segments", 0
    )
    reference_s = total("algorithms.reference")
    run_s = own("target.run")
    values = {
        key: report[key]
        for key in (
            "setup.import_s", "setup.session_s", "setup.campaign_s",
            "algorithms.experiment_ms.p50", "algorithms.experiment_ms.p99",
            "algorithms.experiment_ms.n", "parallel.first_result_s",
            "parallel.coordinator_cpu_share", "parallel.worker_util",
            "parallel.worker_peak_rss_mb", "db.file_mb", "events.records",
            "telemetry.spans", "resources.samples", "analysis.classify_s",
            "analysis.report_s", "analysis.stats_s", "host.calib_ms",
        )
    }
    values.update(
        {
            "algorithms.reference_s": reference_s,
            "algorithms.cost_x_ref": wall / reference_s if reference_s else 0.0,
            "algorithms.unattributed_share": trace["unattributed_s"] / wall,
            "plan.generate_s": total("campaign.generate"),
            "prune.classify_s": total("liveness.build_prune_plan"),
            "prune.skipped": prune.get("skipped", 0),
            "prune.spot_checks": prune.get("spot_checks", 0),
            "prune.skip_ratio": prune.get("skipped", 0) / planned,
            "checkpoint.restores": restores,
            "checkpoint.misses": misses,
            "checkpoint.evictions": checkpoint.get("evictions", 0),
            "checkpoint.hit_ratio": (
                restores / (restores + misses) if restores + misses else 0.0
            ),
            "checkpoint.save_s": own("checkpoint.save_state"),
            "checkpoint.restore_s": own("checkpoint.restore_state"),
            "target.run_s": run_s,
            "target.sim_cycles": counts.get("target.sim_cycles", 0),
            "target.cycles_per_s": (
                counts.get("target.sim_cycles", 0) / run_s if run_s else 0.0
            ),
            "target.fast_segments": counts.get("target.fast_segments", 0),
            "target.ref_segments": counts.get("target.ref_segments", 0),
            "target.ref_share": (
                counts.get("target.ref_segments", 0) / segments if segments else 0.0
            ),
            "target.scan_s": own("target.scan"),
            "target.prepare_s": own("target.prepare"),
            "target.capture_s": own("target.capture"),
            "env.exchanges": calls("envsim.exchange"),
            "env.exchange_s": own("envsim.exchange"),
            "parallel.publish_s": total("parallel.publish"),
            "db.write_s": own("db.write"),
            "db.rows_written": counts.get("db.rows_written", 0),
            "db.batches": counts.get("db.batches", 0),
            "db.read_s": own("db.read"),
            "db.rows_read": counts.get("db.rows_read", 0),
            "events.emit_s": own("events.emit", "events.close"),
        }
    )
    return values


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Median of each per-layer metric over traced campaigns, plus the
    tracing overhead against the untraced ones run beside them."""
    samples = [_layer_values(report) for report in traced]
    values = {
        name: statistics.median(sample[name] for sample in samples)
        for name, _unit in PER_LAYER
        if name != "trace.overhead_share"
    }
    values["trace.overhead_share"] = 1 - throughput(traced) / throughput(untraced)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ----------------------------------------------------------------------
# Human-readable output
# ----------------------------------------------------------------------
def format_campaigns(workload: str, seed: int, reports: list[dict]) -> str:
    lines = [
        f"workload {workload}, seed {seed}: {len(reports)} untraced campaigns of "
        f"{reports[0]['planned']} planned experiments",
        f"  {'exp_per_s':>10} {'setup_s':>8} {'analysis_s':>10} {'rss_mb':>7} "
        f"{'failed_frac':>11} {'calib_ms':>8}",
    ]
    for report in reports:
        lines.append(
            f"  {report['exp_per_s']:10.1f} {report['setup_s']:8.3f} "
            f"{report['analysis_s']:10.3f} {report['peak_rss_mb']:7.1f} "
            f"{report['failed'] / report['planned']:11.4f} "
            f"{report['host.calib_ms']:8.2f}"
        )
    return "\n".join(lines)


def format_trace(workload: str, report: dict, metrics: dict) -> str:
    """The per-layer self-time table of one traced campaign, and the
    per-layer metrics."""
    trace = report["trace"]
    wall = report["wall_s"]

    def layer_self(summary: dict) -> dict:
        layers: dict[str, float] = {}
        for name, (_calls, _total, own) in summary.items():
            if name in ENGINE_SPANS:
                continue  # their self time is the unattributed row
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    coordinator = layer_self(trace["campaign"])
    workers: dict[str, float] = {}
    for summary in trace["workers"]:
        for layer, own in layer_self(summary).items():
            workers[layer] = workers.get(layer, 0.0) + own
    lines = [
        f"traced campaign of {workload}: {wall:.3f} s campaign wall, "
        f"{report['analysis_s']:.3f} s analysis",
        f"  {'layer':<12} {'self_s':>9} {'share':>7} {'workers_s':>10}",
    ]
    for layer in LAYER_ORDER:
        if layer in coordinator or layer in workers:
            own = coordinator.get(layer, 0.0)
            lines.append(
                f"  {layer:<12} {own:9.4f} {own / wall:7.1%} "
                f"{workers.get(layer, 0.0):10.4f}"
            )
    lines.append(
        f"  {'unattributed':<12} {trace['unattributed_s']:9.4f} "
        f"{trace['unattributed_s'] / wall:7.1%}"
    )
    lines.append("  (self_s: coordinator self time during the run_campaign call; "
                 "share: of its wall)")
    if trace["missing"]:
        lines.append("  boundaries not found: " + ", ".join(trace["missing"]))
    lines.append(
        f"tracing overhead: {metrics['trace.overhead_share']['value']:.1%} of "
        "untraced exp_per_s"
    )
    for name, metric in metrics.items():
        lines.append(f"  {name:<34} {metric['value']:14.6g} {metric['unit']}")
    return "\n".join(lines)
