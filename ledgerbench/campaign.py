"""Run one ledger campaign in this (fresh) interpreter and print one JSON
object describing it.

    python3 ledgerbench/campaign.py --root . --workdir DIR \\
        --workload sm_swifi_workers2_observed --seed 2001 --experiments 4000 \\
        --mode timed --expected ledgerbench/expected/sm_swifi_workers2_observed.json

Modes:

``timed``
    The campaign as the workload defines it, untraced.  Reports set-up
    time (from before ``import repro``), experiments/s of the single
    ``run_campaign`` call, the analysis phase, peak RSS, and how many
    logged rows differ from the expected digests.
``traced``
    The same, with :mod:`tracer` wrappers on every layer; adds the
    per-layer numbers.
``reference``
    The plain serial loop on the reference execution engine
    (:data:`specs.REFERENCE_RUN`); writes the expected digests to
    ``--expected``.

Called by ``run.py``, ``selftest.py`` and ``make_expected.py``.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--experiments", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "reference"), required=True)
    parser.add_argument("--expected", type=Path, required=True)
    return parser.parse_args(argv)


def row_digest(record) -> str:
    payload = json.dumps([record.experiment_data, record.state_vector], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def logged_digests(db, campaign: str) -> dict[str, str]:
    """Experiment name → digest of every logged row (the fault-free
    reference row under ``"reference"``)."""
    digests = {}
    for record in db.iter_experiments(campaign):
        if record.experiment_data.get("technique") == "reference":
            digests["reference"] = row_digest(record)
        else:
            digests[record.experiment_name] = row_digest(record)
    return digests


def classification_counts(classification) -> dict[str, int]:
    return {
        "detected": classification.detected,
        "escaped": classification.escaped,
        "latent": classification.latent,
        "overwritten": classification.overwritten,
    }


def count_failed(expected: dict, logged: dict[str, str]) -> int:
    """Planned experiments whose logged row is missing or differs from
    the expected row."""
    return sum(
        1 for name, digest in expected["rows"].items() if logged.get(name) != digest
    )


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def main(argv=None) -> int:
    args = parse_args(argv)

    started = time.perf_counter()
    import repro

    imported = time.perf_counter()
    source = (args.root / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2

    from repro import GoofiSession, ProgressReporter
    from repro import analysis

    import specs
    import tracer as tracing

    workload = specs.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(args.workdir)
        tracing.install(tracer)

    completions: list[float] = []
    # An in-memory database: every batch commit to a file would fsync,
    # and a shared host's disk latency is noise, not the program.
    session = GoofiSession(
        ":memory:",
        target_name=workload.target,
        progress=ProgressReporter(
            observers=[lambda _event: completions.append(time.perf_counter())]
        ),
    )
    opened = time.perf_counter()
    config = specs.build(session, workload, args.seed, args.experiments)
    stored = time.perf_counter()

    run_kwargs = (
        specs.REFERENCE_RUN
        if args.mode == "reference"
        else workload.run_kwargs(args.workdir)
    )
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run_started = time.perf_counter()
    result = session.run_campaign(config.name, **run_kwargs)
    wall = time.perf_counter() - run_started
    campaign_spans = len(tracer.spans) if tracer is not None else 0
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    # The analysis phase (§3.4): classification, the campaign report,
    # and the telemetry report when the run recorded telemetry.
    analysis_started = time.perf_counter()
    classification = analysis.classify_campaign(session.db, config.name)
    classified = time.perf_counter()
    analysis.campaign_report(session.db, config.name)
    reported = time.perf_counter()
    if "telemetry" in run_kwargs:
        analysis.stats_report(session.db, config.name)
    analysis_done = time.perf_counter()

    trace = None
    if tracer is not None:
        # Summarised before the row check below, whose reads are not
        # part of the campaign.
        tracer.collect_workers()
        tracer.write(args.workdir / "spans.json")
        trace = {
            "campaign": tracing.summarise(tracer.spans[:campaign_spans]),
            "analysis": tracing.summarise(tracer.spans[campaign_spans:], campaign_spans),
            "workers": [tracing.summarise(spans) for spans in tracer.worker_spans],
            "counts": dict(tracer.counts),
            "unattributed_s": tracing.unattributed(tracer.spans, wall),
            "missing": tracer.missing,
        }

    counts = classification_counts(classification)
    logged = logged_digests(session.db, config.name)
    if args.mode == "reference":
        reference = {
            "workload": args.workload,
            "seed": args.seed,
            "experiments": args.experiments,
            "reference": logged.pop("reference"),
            "classification": counts,
            "rows": dict(sorted(logged.items())),
        }
        args.expected.write_text(json.dumps(reference, indent=0) + "\n")
        session.close()
        print(json.dumps({"planned": result.experiments_planned}))
        return 0

    expected = json.loads(args.expected.read_text())
    failed = count_failed(expected, logged)
    # Planned experiments with a logged row, equal to the expected row or not.
    logged_planned = sum(1 for name in expected["rows"] if name in logged)
    gaps = [
        (later - earlier) * 1e3
        for earlier, later in zip(completions, completions[1:])
    ]

    def cpu(usage):
        return usage.ru_utime + usage.ru_stime

    report = {
        "setup_s": stored - started,
        "setup.import_s": imported - started,
        "setup.session_s": opened - imported,
        "setup.campaign_s": stored - opened,
        "wall_s": wall,
        "planned": args.experiments,
        "logged": logged_planned,
        "exp_per_s": logged_planned / wall,
        "analysis_s": analysis_done - analysis_started,
        "analysis.classify_s": classified - analysis_started,
        "analysis.report_s": reported - classified,
        "analysis.stats_s": analysis_done - reported,
        "peak_rss_mb": self_after.ru_maxrss / 1024,
        "failed": failed,
        "correct": (
            failed == 0
            and logged.get("reference") == expected["reference"]
            and counts == expected["classification"]
        ),
        "classification": counts,
        "aborted": result.aborted,
        "algorithms.experiment_ms.p50": percentile(gaps, 0.50) if gaps else 0.0,
        "algorithms.experiment_ms.p99": percentile(gaps, 0.99) if gaps else 0.0,
        "algorithms.experiment_ms.n": len(gaps),
        "parallel.first_result_s": (
            completions[0] - run_started if completions else wall
        ),
        "parallel.coordinator_cpu_share": (cpu(self_after) - cpu(self_before)) / wall,
        "parallel.worker_util": (
            (cpu(children_after) - cpu(children_before)) / (workload.workers * wall)
            if workload.workers > 1
            else 0.0
        ),
        "parallel.worker_peak_rss_mb": (
            children_after.ru_maxrss / 1024 if workload.workers > 1 else 0.0
        ),
        "prune": result.prune,
        "checkpoint": result.checkpoint_stats,
    }
    [(size,)] = session.db.execute_sql(
        "SELECT page_count * page_size FROM pragma_page_count(), pragma_page_size()"
    )
    report["db.file_mb"] = size / 2**20
    report["telemetry.spans"] = session.db.count_spans(config.name)
    report["resources.samples"] = session.db.count_resource_samples(config.name)
    events_path = args.workdir / "events.jsonl"
    report["events.records"] = (
        len(events_path.read_text().splitlines()) if events_path.exists() else 0
    )
    if trace is not None:
        report["trace"] = trace
    session.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
