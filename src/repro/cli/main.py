"""The ``goofi`` command line — the paper's GUI, headless.

Every window of the original tool maps to a subcommand:

* Figure 5 (target configuration)  → ``goofi target describe/list``
* Figure 6 (campaign definition)   → ``goofi campaign create/show/merge``
* Figure 7 (progress window)       → ``goofi run`` (live progress ticker),
                                     ``goofi watch``
* analysis menu                    → ``goofi analyze``, ``goofi autogen``,
                                     ``goofi rerun`` (detail-mode re-run)

All state lives in the GOOFI SQLite database given with ``--db``.
"""

from __future__ import annotations

import argparse
import os
import json
import sys
from pathlib import Path

from .. import (
    CampaignConfig,
    GoofiSession,
    IntermittentBitFlip,
    StuckAt,
    Termination,
    TransientBitFlip,
)
from ..analysis import campaign_report, stats_report
from ..logconfig import setup_logging
from ..core import (
    DEFAULT_CHECKPOINT_CAPACITY,
    DEFAULT_PROBE_PERIOD,
    DEFAULT_RESOURCE_PERIOD,
    DEFAULT_SPOT_CHECK_RATE,
    THOR_RD,
    registered_targets,
    registered_techniques,
)
from ..core.errors import GoofiError
from ..db import DatabaseError, GoofiDatabase


def _add_db_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db",
        default="goofi.db",
        help="GOOFI database file (default: goofi.db)",
    )


def _session(args: argparse.Namespace, target: str | None = None) -> GoofiSession:
    """A session on ``target`` (default: the default target)."""
    return GoofiSession(args.db, target_name=target or THOR_RD)


def _campaign_session(args: argparse.Namespace, campaign: str | None) -> GoofiSession:
    """A session on the target the stored ``campaign`` was made for, so
    that it runs and is analysed where it was set up.  Without such a
    campaign (none named, or not in the database) the session opens on
    the default target and the command reports what is missing."""
    target = None
    if campaign:
        with GoofiDatabase(args.db) as db:
            try:
                target = db.load_campaign(campaign).target_name
            except DatabaseError:
                pass
    return _session(args, target)


def _campaign_bus(args: argparse.Namespace):
    """The event bus of a CLI campaign run: the ``--events`` sink and,
    unless ``--quiet``, the progress ticker drawing on stderr.  The
    command owns the bus and closes it."""
    from ..core.events import resolve_events
    from .watch import ProgressTicker

    bus = resolve_events(args.events)
    if not args.quiet:
        bus.sinks.append(ProgressTicker())
    return bus


# ----------------------------------------------------------------------
# target
# ----------------------------------------------------------------------
def cmd_target_list(args: argparse.Namespace) -> int:
    for name in registered_targets():
        print(name)
    return 0


def cmd_target_describe(args: argparse.Namespace) -> int:
    with _session(args, args.target) as session:
        record = session.db.load_target(args.target)
        if args.json:
            print(json.dumps(record.config, indent=2))
            return 0
        print(f"target      : {record.target_name}")
        print(f"test card   : {record.test_card_name}")
        print(f"techniques  : {', '.join(record.config.get('techniques', []))}")
        print(f"fault models: {', '.join(record.config.get('fault_models', []))}")
        print(f"workloads   : {', '.join(record.config.get('workloads', []))}")
        print("scan chains :")
        for chain, elements in record.config.get("scan_chains", {}).items():
            width = sum(e["width"] for e in elements)
            writable = sum(1 for e in elements if e["writable"])
            print(
                f"  {chain:<10} {len(elements)} elements, {width} bits, "
                f"{writable} writable elements"
            )
    return 0


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def _parse_fault_model(args: argparse.Namespace):
    if args.model == "transient":
        return TransientBitFlip()
    if args.model == "stuck_at_0":
        return StuckAt(0)
    if args.model == "stuck_at_1":
        return StuckAt(1)
    if args.model == "intermittent":
        return IntermittentBitFlip(duration=args.intermittent_duration)
    raise GoofiError(f"unknown fault model {args.model!r}")


def cmd_campaign_create(args: argparse.Namespace) -> int:
    with _session(args, args.target) as session:
        termination = (
            Termination(max_cycles=args.max_cycles, max_iterations=args.max_iterations)
            if args.max_cycles
            else session.default_termination(
                args.workload, max_iterations=args.max_iterations or 200
            )
        )
        observation = session.default_observation(args.workload)
        environment = None
        if args.environment:
            environment = {
                "name": args.environment,
                "params": {
                    "sensor_addr": session.workload_symbol(args.workload, "sensor"),
                    "actuator_addr": session.workload_symbol(args.workload, "actuator"),
                },
            }
        task_switch_address = None
        if args.time_strategy == "task_switch":
            task_switch_address = session.workload_symbol(
                args.workload, args.task_switch_symbol
            )
        config = CampaignConfig(
            name=args.name,
            target=args.target,
            technique=args.technique,
            workload=args.workload,
            location_patterns=tuple(args.locations.split(",")),
            num_experiments=args.experiments,
            termination=termination,
            observation=observation,
            fault_model=_parse_fault_model(args),
            flips_per_experiment=args.flips,
            multiplicity_model="adjacent" if args.mbu else "independent",
            time_strategy=args.time_strategy,
            task_switch_address=task_switch_address,
            logging_mode=args.logging,
            seed=args.seed,
            use_preinjection_analysis=args.preinjection,
            environment=environment,
        )
        session.setup_campaign(config)
        print(f"campaign {args.name!r} stored in {args.db}")
    return 0


def cmd_campaign_list(args: argparse.Namespace) -> int:
    with _session(args) as session:
        for name in session.db.list_campaigns():
            record = session.db.load_campaign(name)
            count = session.db.count_experiments(name)
            print(f"{name:<30} {record.status:<12} {count:>6} experiments logged")
    return 0


def cmd_campaign_show(args: argparse.Namespace) -> int:
    with _campaign_session(args, args.name) as session:
        record = session.db.load_campaign(args.name)
        print(json.dumps(record.config, indent=2))
    return 0


def cmd_campaign_merge(args: argparse.Namespace) -> int:
    with _session(args) as session:
        merged = session.merge_into_campaign(args.names.split(","), args.new_name)
        print(
            f"merged {args.names} into {merged.name!r} "
            f"({merged.num_experiments} experiments, "
            f"{len(merged.location_patterns)} location patterns)"
        )
    return 0


# ----------------------------------------------------------------------
# packs / gate
# ----------------------------------------------------------------------
def _setup_pack_campaign(session: GoofiSession, pack, args: argparse.Namespace):
    """Derive ``pack``'s campaign (with the optional ``--experiments``
    override) on a session opened on the pack's target, and store it."""
    config = pack.resolve_campaign(session, name=getattr(args, "name", None))
    experiments = getattr(args, "experiments", None)
    if experiments:
        config = CampaignConfig.from_dict(
            {**config.to_dict(), "num_experiments": experiments}
        )
    session.setup_campaign(config)
    return config


def cmd_pack_validate(args: argparse.Namespace) -> int:
    from ..core import load_pack

    pack = load_pack(args.pack)
    declared = pack.bounds.to_dict()
    print(
        f"pack {pack.name!r} is valid: target {pack.target!r}, "
        f"workload {pack.campaign['workload']!r}, "
        f"technique {pack.campaign['technique']!r}, "
        f"{pack.sample_plan.resolve()} experiments, "
        f"{len(declared)} bound group(s) declared"
    )
    return 0


def cmd_pack_show(args: argparse.Namespace) -> int:
    from ..core import load_pack

    print(json.dumps(load_pack(args.pack).to_dict(), indent=2))
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    from ..analysis import evaluate_gate, format_gate_report
    from ..core import load_pack

    pack = load_pack(args.pack)
    with _session(args, pack.target) as session:
        config = _setup_pack_campaign(session, pack, args)
        if pack.bounds.empty:
            print(
                f"goofi: error: pack {pack.name!r} declares no dependability "
                "bounds; nothing to gate on",
                file=sys.stderr,
            )
            return 1
        # The gate owns the bus (not run_campaign) so the gate_verdict
        # record lands on the same stream as the campaign events.
        bus = _campaign_bus(args)
        try:
            result = session.run_campaign(
                config.name,
                workers=args.workers,
                telemetry="metrics" if args.trend is not None else None,
                events=bus,
            )
            if result.aborted:
                print(
                    f"goofi: error: campaign {config.name!r} aborted",
                    file=sys.stderr,
                )
                return 1
            replay = None
            if pack.bounds.max_critical_failures is not None:
                from ..core.packs import replay_function

                replay = replay_function(config.environment)
            gate = evaluate_gate(
                session.db,
                config.name,
                pack.bounds,
                environment=config.environment,
                replay=replay,
            )
            report = format_gate_report(gate)
            print(report)
            bus.emit(
                "gate_verdict",
                campaign=config.name,
                pack=pack.name,
                passed=gate.passed,
                violations=[str(check) for check in gate.violations],
            )
            if args.report:
                Path(args.report).write_text(
                    json.dumps(gate.to_dict(), indent=2) + "\n"
                )
                print(f"gate report written to {args.report}")
            exit_code = 0 if gate.passed else 2
            if args.trend is not None:
                exit_code = max(
                    exit_code, _gate_trend(session, config.name, pack, args.trend)
                )
        finally:
            bus.close()
    return exit_code


def _gate_trend(session: GoofiSession, campaign_name: str, pack, window: int) -> int:
    """Compare the finished run against recorded history, print the
    trend report, and append this run to the history.  Returns the
    trend contribution to the exit code (0 pass / 2 regression)."""
    from ..analysis import (
        format_trend_report,
        record_run,
        run_summary,
        trend_against_history,
    )

    summary = run_summary(session.db, campaign_name, pack=pack.name)
    trend = trend_against_history(session.db, campaign_name, summary, window=window)
    exit_code = 0
    if trend is None:
        print(
            f"trend: no recorded history for {campaign_name!r} yet; "
            "this run becomes the first baseline"
        )
    else:
        print(format_trend_report(trend))
        if not trend.passed:
            exit_code = 2
    run_id = record_run(session.db, campaign_name, summary, pack=pack.name)
    print(f"trend: recorded this run as history entry {run_id}")
    return exit_code


# ----------------------------------------------------------------------
# run / watch / analyze / rerun / autogen
# ----------------------------------------------------------------------
def _cmd_watch(args: argparse.Namespace) -> int:
    from .watch import cmd_watch

    return cmd_watch(args)


def cmd_run(args: argparse.Namespace) -> int:
    pack = None
    if args.pack:
        from ..core import load_pack

        pack = load_pack(args.pack)
        session = _session(args, pack.target)
    else:
        session = _campaign_session(args, args.campaign)
    with session:
        campaign_name = args.campaign
        if pack is not None:
            campaign_name = _setup_pack_campaign(session, pack, args).name
        elif campaign_name is None:
            print(
                "goofi: error: give a stored campaign name or --pack FILE",
                file=sys.stderr,
            )
            return 1
        session.algorithms.checkpoint_capacity = args.checkpoint_capacity
        bus = _campaign_bus(args)
        try:
            result = session.run_campaign(
                campaign_name,
                resume=args.resume,
                workers=args.workers,
                checkpoints=args.checkpoints,
                fast=args.fast,
                telemetry=args.telemetry,
                probes=args.probes,
                prune=args.prune,
                events=bus,
                resources=args.resources,
                profile=args.profile,
            )
        finally:
            bus.close()
        # With --events=- the event JSONL owns stdout; the human
        # summary moves to stderr so piped output stays parseable.
        out = sys.stderr if args.events == "-" else sys.stdout
        status = "aborted" if result.aborted else "completed"
        rate = (
            result.experiments_run / result.elapsed_seconds
            if result.elapsed_seconds
            else float("inf")
        )
        print(
            f"campaign {result.campaign_name!r} {status}: "
            f"{result.experiments_run}/{result.experiments_planned} experiments "
            f"in {result.elapsed_seconds:.1f}s ({rate:.1f}/s)",
            file=out,
        )
        if result.prune is not None:
            prune = result.prune
            print(
                f"prune: {prune['pruned']}/{prune['planned']} experiments "
                f"synthesised ({prune['latent']} latent), "
                f"{prune['skipped']} skipped, "
                f"{prune['spot_checks']} spot-checked "
                f"({prune['divergences']} divergences)",
                file=out,
            )
        if result.resource_samples is not None:
            print(
                f"resources: {result.resource_samples} samples recorded",
                file=out,
            )
        if result.profile is not None:
            print(
                f"profile: {result.profile['functions']} functions "
                f"recorded; inspect with: goofi stats "
                f"{result.campaign_name} --profile --db {args.db}",
                file=out,
            )
        if result.telemetry is not None:
            print(
                f"telemetry recorded; inspect with: "
                f"goofi stats {result.campaign_name} --db {args.db}",
                file=out,
            )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    with _campaign_session(args, args.campaign) as session:
        if args.profile:
            from ..core import format_profile_report

            snapshot = session.db.load_campaign_telemetry(args.campaign)
            profile = snapshot.get("profile")
            if not profile:
                print(
                    f"goofi: error: campaign {args.campaign!r} recorded no "
                    "profile — run it with 'goofi run --profile'",
                    file=sys.stderr,
                )
                return 1
            print(format_profile_report(args.campaign, profile))
            return 0
        if args.history:
            from ..analysis import format_history

            records = list(session.db.iter_history(args.campaign))
            if not records:
                print(
                    f"no recorded history for campaign {args.campaign!r} "
                    f"(record runs with goofi gate --trend)"
                )
                return 0
            print(format_history(records))
            return 0
        if args.json:
            print(
                json.dumps(
                    session.db.load_campaign_telemetry(args.campaign),
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(stats_report(session.db, args.campaign, slowest=args.slowest))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from ..analysis import write_campaign_report, write_index

    with _campaign_session(args, args.campaign) as session:
        if args.campaign is None:
            path = write_index(session.db, args.out)
            count = len(session.db.list_campaigns())
            print(f"wrote index of {count} campaign(s) to {path}")
        else:
            path = write_campaign_report(session.db, args.campaign, args.out)
            print(
                f"wrote report for campaign {args.campaign!r} to {path} "
                f"(self-contained; open in any browser)"
            )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    with _campaign_session(args, args.campaign) as session:
        if args.sql:
            from ..analysis import generate_analysis_sql, run_generated_sql

            sql = generate_analysis_sql(args.campaign)
            for rows in run_generated_sql(session.db, sql):
                for row in rows:
                    print("\t".join(str(column) for column in row))
                print()
            return 0
        if args.summary:
            print(json.dumps(session.classify(args.campaign).summary(), indent=2))
            return 0
        if args.sensitivity:
            from ..analysis import bit_sensitivity, format_sensitivity_map

            table = bit_sensitivity(session.db, args.campaign)
            print(format_sensitivity_map(table))
            return 0
        if args.propagation:
            from ..analysis import propagation_report

            print(propagation_report(session.db, args.campaign))
            return 0
        if args.latency:
            from ..analysis import detection_latencies, format_latency_report

            statistics = detection_latencies(session.classify(args.campaign))
            print(
                format_latency_report(
                    statistics,
                    f"Detection latency for campaign {args.campaign!r} (cycles):",
                )
            )
            return 0
        print(campaign_report(session.db, args.campaign))
        if args.fault_rate is not None:
            from ..analysis import format_dependability_report, model_from_campaign

            model = model_from_campaign(
                session.classify(args.campaign), fault_rate=args.fault_rate
            )
            print()
            print(format_dependability_report(model, args.mission_hours))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from ..analysis import export_csv, export_csv_file

    with _campaign_session(args, args.campaign) as session:
        if args.out:
            count = export_csv_file(session.db, args.campaign, args.out)
            print(f"wrote {count} experiment rows to {args.out}")
        else:
            print(export_csv(session.db, args.campaign), end="")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from ..analysis import compare_campaigns, format_comparison

    with _session(args) as session:
        comparison = compare_campaigns(
            session.db,
            args.campaign_a,
            args.campaign_b,
            require_identical_faults=not args.loose,
        )
        print(format_comparison(comparison))
    return 0


def cmd_campaign_plan(args: argparse.Namespace) -> int:
    """Preview the first experiments of a campaign's (deterministic)
    plan without injecting anything."""
    from ..core.campaign import PlanGenerator

    with _campaign_session(args, args.name) as session:
        config = session.algorithms.read_campaign_data(args.name)
        trace = session.algorithms.make_reference_run(config)
        plan = PlanGenerator(
            config, session.target.location_space(), trace
        ).generate()
        print(
            f"campaign {args.name!r}: {len(plan)} experiments planned "
            f"(reference run: {trace.duration} cycles); first {args.limit}:"
        )
        for spec in plan[: args.limit]:
            for fault in spec.faults:
                cycle = fault.trigger.resolve(trace)
                print(
                    f"  {spec.name}  {fault.location.label():<32} "
                    f"cycle {cycle:>7}  {fault.model.name}"
                )
    return 0


def cmd_rerun(args: argparse.Namespace) -> int:
    with _campaign_session(args, args.experiment.split("/")[0]) as session:
        record = session.algorithms.rerun_experiment_detailed(args.experiment)
        steps = len(record.state_vector.get("steps", []))
        print(
            f"re-ran {args.experiment!r} in detail mode as "
            f"{record.experiment_name!r} ({steps} logged steps, parent "
            f"tracked via parentExperiment)"
        )
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    from ..analysis import build_trace, validate_trace, write_trace

    with _campaign_session(args, args.campaign) as session:
        if args.out:
            trace = write_trace(session.db, args.campaign, args.out)
            print(
                f"wrote {len(trace['traceEvents'])} trace events to "
                f"{args.out} (open in ui.perfetto.dev)"
            )
        else:
            trace = build_trace(session.db, args.campaign)
            validate_trace(trace)
            print(json.dumps(trace, indent=1))
    return 0


def cmd_autogen(args: argparse.Namespace) -> int:
    from ..analysis import generate_analysis_script, generate_analysis_sql

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sql_path = out_dir / f"analyze_{args.campaign}.sql"
    py_path = out_dir / f"analyze_{args.campaign}.py"
    sql_path.write_text(generate_analysis_sql(args.campaign))
    py_path.write_text(generate_analysis_script(args.campaign))
    print(f"wrote {sql_path} and {py_path}")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from ..workloads import is_loop_workload, workload_names

    for name in workload_names():
        kind = "loop" if is_loop_workload(name) else "self-terminating"
        print(f"{name:<24} {kind}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goofi",
        description="GOOFI: generic object-oriented fault injection (DSN 2001 reproduction)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        dest="log_verbose",
        help="library log verbosity: -v = INFO, -vv = DEBUG",
    )
    parser.add_argument(
        "-q",
        action="store_true",
        dest="log_quiet",
        help="log errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    target = sub.add_parser("target", help="target-system configuration")
    target_sub = target.add_subparsers(dest="target_command", required=True)
    t_list = target_sub.add_parser("list", help="registered target systems")
    t_list.set_defaults(func=cmd_target_list)
    t_desc = target_sub.add_parser("describe", help="show a target's configuration")
    _add_db_argument(t_desc)
    t_desc.add_argument("--target", default=THOR_RD)
    t_desc.add_argument("--json", action="store_true")
    t_desc.set_defaults(func=cmd_target_describe)

    workloads = sub.add_parser("workloads", help="list available workloads")
    workloads.set_defaults(func=cmd_workloads)

    campaign = sub.add_parser("campaign", help="campaign set-up phase")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    create = campaign_sub.add_parser("create", help="define and store a campaign")
    _add_db_argument(create)
    create.add_argument("--name", required=True)
    create.add_argument("--target", default=THOR_RD)
    create.add_argument(
        "--technique", default="scifi", choices=sorted(registered_techniques()) or None
    )
    create.add_argument("--workload", required=True)
    create.add_argument(
        "--locations",
        default="internal:regs.*",
        help="comma-separated location patterns (e.g. internal:regs.*,memory:data)",
    )
    create.add_argument("--experiments", type=int, default=100)
    create.add_argument(
        "--model",
        default="transient",
        choices=["transient", "stuck_at_0", "stuck_at_1", "intermittent"],
    )
    create.add_argument("--intermittent-duration", type=int, default=500)
    create.add_argument("--flips", type=int, default=1, help="bit flips per experiment")
    create.add_argument(
        "--mbu", action="store_true",
        help="place multi-flips as one multiple-bit upset (adjacent bits, "
             "same instant) instead of independent flips",
    )
    create.add_argument(
        "--time-strategy",
        default="uniform",
        choices=["uniform", "branch", "call", "data_access", "clock", "task_switch"],
    )
    create.add_argument(
        "--task-switch-symbol", default="task_switch",
        help="workload symbol of the dispatcher instruction "
             "(task_switch strategy)",
    )
    create.add_argument("--logging", default="normal", choices=["normal", "detail"])
    create.add_argument("--seed", type=int, default=1)
    create.add_argument("--max-cycles", type=int, default=0, help="0 = derive from workload")
    create.add_argument("--max-iterations", type=int, default=None)
    create.add_argument(
        "--preinjection", action="store_true", help="enable pre-injection liveness analysis"
    )
    create.add_argument(
        "--environment", default=None, help="environment simulator name (e.g. dc_motor)"
    )
    create.set_defaults(func=cmd_campaign_create)

    c_list = campaign_sub.add_parser("list", help="stored campaigns")
    _add_db_argument(c_list)
    c_list.set_defaults(func=cmd_campaign_list)

    show = campaign_sub.add_parser("show", help="show a stored campaign configuration")
    _add_db_argument(show)
    show.add_argument("name")
    show.set_defaults(func=cmd_campaign_show)

    merge = campaign_sub.add_parser("merge", help="merge stored campaigns into a new one")
    _add_db_argument(merge)
    merge.add_argument("--names", required=True, help="comma-separated campaign names")
    merge.add_argument("--new-name", required=True)
    merge.set_defaults(func=cmd_campaign_merge)

    plan = campaign_sub.add_parser(
        "plan", help="preview a campaign's deterministic experiment plan"
    )
    _add_db_argument(plan)
    plan.add_argument("name")
    plan.add_argument("--limit", type=int, default=10)
    plan.set_defaults(func=cmd_campaign_plan)

    pack = sub.add_parser("pack", help="declarative fault-pack documents")
    pack_sub = pack.add_subparsers(dest="pack_command", required=True)
    p_validate = pack_sub.add_parser(
        "validate", help="parse and schema-check a pack document"
    )
    p_validate.add_argument("pack", help="pack YAML/JSON file")
    p_validate.set_defaults(func=cmd_pack_validate)
    p_show = pack_sub.add_parser(
        "show", help="print a pack's normalised document as JSON"
    )
    p_show.add_argument("pack", help="pack YAML/JSON file")
    p_show.set_defaults(func=cmd_pack_show)

    gate = sub.add_parser(
        "gate",
        help="run a pack's campaign and judge it against its declared "
             "dependability bounds (exit 2 on regression)",
    )
    _add_db_argument(gate)
    gate.add_argument("pack", help="pack YAML/JSON file with a bounds section")
    gate.add_argument("--name", default=None, help="campaign name override")
    gate.add_argument(
        "--experiments",
        type=int,
        default=None,
        help="override the pack's sample plan (quick/smoke runs)",
    )
    gate.add_argument("--workers", type=int, default=1)
    gate.add_argument("--quiet", action="store_true")
    gate.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the gate verdict as JSON to PATH",
    )
    gate.add_argument(
        "--trend",
        nargs="?",
        const=5,
        default=None,
        type=int,
        metavar="N",
        help="also compare this run against the last N recorded runs of "
             "the same campaign (default N: 5) and record it into the "
             "history table; a statistically meaningful regression exits "
             "2 even when every static bound holds (inspect history with "
             "'goofi stats --history')",
    )
    gate.add_argument(
        "--events",
        nargs="?",
        const="-",
        default=None,
        metavar="DEST",
        help="stream campaign events (and the gate verdict) to DEST — "
             "see 'goofi run --events'",
    )
    gate.set_defaults(func=cmd_gate)

    run = sub.add_parser("run", help="fault-injection phase")
    _add_db_argument(run)
    run.add_argument(
        "campaign",
        nargs="?",
        default=None,
        help="stored campaign name (omit when using --pack)",
    )
    run.add_argument(
        "--pack",
        default=None,
        metavar="FILE",
        help="set up and run the campaign declared by a fault-pack document",
    )
    run.add_argument("--name", default=None, help="campaign name override (--pack)")
    run.add_argument(
        "--experiments",
        type=int,
        default=None,
        help="override the pack's sample plan (--pack)",
    )
    run.add_argument("--quiet", action="store_true")
    run.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign, keeping logged experiments",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes running experiments (default: 1, the serial "
             "loop; results are identical for any worker count)",
    )
    run.add_argument(
        "--checkpoints",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reuse cached fault-free prefix state between experiments "
             "(default: off; logged rows are identical either way)",
    )
    run.add_argument(
        "--checkpoint-capacity",
        type=int,
        default=DEFAULT_CHECKPOINT_CAPACITY,
        help="LRU size of the checkpoint cache (snapshots kept per "
             f"process; default: {DEFAULT_CHECKPOINT_CAPACITY})",
    )
    run.add_argument(
        "--fast",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="use the target's fused fast execution loop (default: on; "
             "--no-fast forces the reference step loop — logged rows "
             "are bit-identical either way)",
    )
    run.add_argument(
        "--telemetry",
        nargs="?",
        const="metrics",
        default=None,
        choices=["off", "metrics", "spans"],
        help="record campaign telemetry: --telemetry (= metrics) keeps "
             "aggregate phase timers and counters; --telemetry=spans "
             "also logs one structured record per experiment "
             "(inspect with 'goofi stats'; with --events the spans and "
             "the final metrics snapshot stream too; logged rows are "
             "identical either way)",
    )
    run.add_argument(
        "--probes",
        nargs="?",
        const=DEFAULT_PROBE_PERIOD,
        default=None,
        type=int,
        metavar="PERIOD",
        help="take periodic propagation probes during every experiment "
             f"(default period: {DEFAULT_PROBE_PERIOD} cycles) and store "
             "a fault-effect summary per experiment (inspect with "
             "'goofi analyze --propagation' or 'goofi trace export'; "
             "logged rows are identical either way)",
    )
    run.add_argument(
        "--prune",
        nargs="?",
        const=DEFAULT_SPOT_CHECK_RATE,
        default=None,
        type=float,
        metavar="RATE",
        help="skip experiments whose rows liveness analysis of the "
             "fault-free trace can predict (the fault is overwritten unread, "
             "or never read again), logging synthesised rows with a "
             "'pruned' provenance flag instead of simulating them; RATE "
             f"(default: {DEFAULT_SPOT_CHECK_RATE}) of pruned experiments "
             "are re-simulated anyway and the campaign hard-fails if any "
             "diverge from the synthesized row",
    )
    run.add_argument(
        "--resources",
        nargs="?",
        const=DEFAULT_RESOURCE_PERIOD,
        default=None,
        type=float,
        metavar="PERIOD",
        help="sample each worker's CPU time, resident set, and "
             "shared-memory footprint every PERIOD seconds (default: "
             f"{DEFAULT_RESOURCE_PERIOD}) plus at phase boundaries, into "
             "the ResourceSample table (inspect with 'goofi stats' or "
             "'goofi report'; logged rows are identical either way)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="wrap every worker's experiment loop in cProfile and store "
             "the merged hotspot summary with the campaign telemetry "
             "(inspect with 'goofi stats --profile'; logged rows are "
             "identical either way)",
    )
    run.add_argument(
        "--events",
        nargs="?",
        const="-",
        default=None,
        metavar="DEST",
        help="stream versioned campaign events as JSON lines: --events "
             "(= '-') writes to stdout (the run summary moves to "
             "stderr), a PATH appends a JSONL recording (replay with "
             "'goofi watch --replay'), a *.sock path or udp://host:port "
             "sends datagrams to a live 'goofi watch' listener; logged "
             "rows are identical either way",
    )
    run.set_defaults(func=cmd_run)

    watch = sub.add_parser(
        "watch",
        help="live campaign monitor: attach to a run's --events socket "
             "or replay a recorded event JSONL",
    )
    watch.add_argument(
        "destination",
        help="unix-domain socket path or udp://host:port to listen on "
             "(start watch first, then 'goofi run --events=DEST'); with "
             "--replay, a recorded event JSONL file",
    )
    watch.add_argument(
        "--replay",
        action="store_true",
        help="read a recorded JSONL instead of listening on a socket "
             "(follows the growing file until the campaign ends)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="with --replay: process the file in one pass and exit "
             "(deterministic final summary; CI-friendly)",
    )
    watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="live mode: exit after this many seconds without events",
    )
    watch.set_defaults(func=_cmd_watch)

    stats = sub.add_parser(
        "stats", help="telemetry report for a campaign run with --telemetry"
    )
    _add_db_argument(stats)
    stats.add_argument("campaign")
    stats.add_argument(
        "--json", action="store_true", help="raw metrics snapshot as JSON"
    )
    stats.add_argument(
        "--slowest",
        type=int,
        default=5,
        metavar="N",
        help="spans mode: list the N slowest experiments (default: 5)",
    )
    stats.add_argument(
        "--history",
        action="store_true",
        help="list the campaign's recorded runs (coverage, p95 latency, "
             "throughput) from the history table written by "
             "'goofi gate --trend'",
    )
    stats.add_argument(
        "--profile",
        action="store_true",
        help="print the profiler hotspot table from a campaign run with "
             "'goofi run --profile'",
    )
    stats.set_defaults(func=cmd_stats)

    report = sub.add_parser(
        "report",
        help="write a self-contained HTML dashboard for one campaign "
             "(or, without a campaign, a cross-campaign index)",
    )
    _add_db_argument(report)
    report.add_argument(
        "campaign",
        nargs="?",
        default=None,
        help="campaign to render (omit for the cross-campaign index)",
    )
    report.add_argument(
        "--out",
        default="goofi-report.html",
        metavar="PATH",
        help="output HTML file (default: goofi-report.html); single "
             "file, inline SVG charts, no external assets",
    )
    report.set_defaults(func=cmd_report)

    analyze = sub.add_parser("analyze", help="analysis phase")
    _add_db_argument(analyze)
    analyze.add_argument("campaign")
    analyze.add_argument("--summary", action="store_true", help="JSON summary")
    analyze.add_argument("--sql", action="store_true", help="run the generated SQL analysis")
    analyze.add_argument(
        "--latency", action="store_true", help="detection-latency distribution"
    )
    analyze.add_argument(
        "--sensitivity", action="store_true",
        help="per-location, per-bit fault-sensitivity heat map",
    )
    analyze.add_argument(
        "--propagation", action="store_true",
        help="EDM coverage matrix and infection-curve percentiles from a "
             "campaign run with --probes",
    )
    analyze.add_argument(
        "--fault-rate", type=float, default=None,
        help="faults/hour: also print the analytical reliability/availability model",
    )
    analyze.add_argument("--mission-hours", type=float, default=1000.0)
    analyze.set_defaults(func=cmd_analyze)

    export = sub.add_parser("export", help="flat CSV export of a campaign")
    _add_db_argument(export)
    export.add_argument("campaign")
    export.add_argument("--out", default=None, help="CSV path (default: stdout)")
    export.set_defaults(func=cmd_export)

    compare = sub.add_parser(
        "compare", help="paired comparison of two same-seed campaigns"
    )
    _add_db_argument(compare)
    compare.add_argument("campaign_a")
    compare.add_argument("campaign_b")
    compare.add_argument(
        "--loose", action="store_true",
        help="allow differing fault lists (cross-target comparisons)",
    )
    compare.set_defaults(func=cmd_compare)

    trace = sub.add_parser(
        "trace", help="Chrome/Perfetto trace export of campaign observability"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export",
        help="export spans (--telemetry=spans) and probes (--probes) as "
             "Trace Event JSON for ui.perfetto.dev",
    )
    _add_db_argument(trace_export)
    trace_export.add_argument("campaign")
    trace_export.add_argument(
        "--out", default=None, help="trace JSON path (default: stdout)"
    )
    trace_export.set_defaults(func=cmd_trace_export)

    rerun = sub.add_parser("rerun", help="re-run an experiment in detail mode")
    _add_db_argument(rerun)
    rerun.add_argument("experiment")
    rerun.set_defaults(func=cmd_rerun)

    autogen = sub.add_parser("autogen", help="generate analysis software for a campaign")
    _add_db_argument(autogen)
    autogen.add_argument("campaign")
    autogen.add_argument("--out", default=".", help="output directory")
    autogen.set_defaults(func=cmd_autogen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(-1 if args.log_quiet else args.log_verbose)
    try:
        return args.func(args)
    except (GoofiError, DatabaseError) as exc:
        print(f"goofi: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Reports piped into head/less close stdout early; exit quietly
        # (and give the interpreter a closed fd so its shutdown flush
        # doesn't raise again).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
