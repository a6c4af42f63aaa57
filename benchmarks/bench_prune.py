"""BENCH_prune — liveness-based experiment pruning.

Regenerates: skip rate and end-to-end wall-clock speedup of
``run_campaign(prune=...)`` over the plain serial loop on an E11-style
late-injection campaign (every trigger in the last quartile of the
workload, where dead written-before-read windows are widest and most
registers see their last access), plus the correctness bar: a
``--prune`` run with spot-check rate 1.0 re-simulates every pruned
experiment and must confirm all of them (zero divergences), and both
pruned runs must log rows bit-identical to the unpruned run.  Pruned
rows are synthesised two ways: overwritten flips reuse the reference
row, latent-tail flips (no access after the injection) carry the flip
in the final scan capture; the latent count is reported.

Timed unit: one full campaign run (reference run + plan generation +
classification + all experiments + logging).  The skip-rate floor
(>= 20% of planned experiments synthesised) holds at any size;
the speedup assertion fires only in full mode — ``GOOFI_BENCH_QUICK=1``
(the CI smoke step) shrinks the campaign, where fixed costs dominate.
"""

from __future__ import annotations

import os
import time

from conftest import build_campaign, write_result

from repro import Termination

QUICK = os.environ.get("GOOFI_BENCH_QUICK") == "1"
EXPERIMENTS = 24 if QUICK else 150
WORKLOAD = "task_executive"


def _rows(db, campaign: str) -> dict:
    return {
        record.experiment_name.split("/", 1)[1]: (
            record.experiment_data,
            record.state_vector,
        )
        for record in db.iter_experiments(campaign)
    }


def _late_injection_campaign(session, name: str, duration: int):
    """Every fault triggers in the last quartile of the fault-free run:
    the register working set is coldest there, so the dead-window
    classifier has the most to prune."""
    return build_campaign(
        session,
        name,
        workload=WORKLOAD,
        num_experiments=EXPERIMENTS,
        injection_window=(3 * duration // 4, duration),
        termination=Termination(
            max_cycles=int(duration * 1.25), max_iterations=80
        ),
        seed=11,
    )


def _timed_run(session, name: str, **kwargs):
    started = time.perf_counter()
    result = session.run_campaign(name, **kwargs)
    elapsed = time.perf_counter() - started
    assert not result.aborted
    return result, elapsed


def test_bench_prune(bench_session):
    bench_session.target.init_test_card()
    bench_session.target.load_workload(WORKLOAD)
    info, _trace = bench_session.target.record_trace(
        Termination(max_cycles=2_000_000, max_iterations=80)
    )
    duration = info.cycle

    _late_injection_campaign(bench_session, "prune-plain", duration)
    plain_result, plain_seconds = _timed_run(bench_session, "prune-plain")
    assert plain_result.experiments_run == EXPERIMENTS
    plain_rows = _rows(bench_session.db, "prune-plain")

    # Correctness bar: spot-check rate 1.0 re-simulates every pruned
    # experiment; any divergence from the synthesised row hard-fails.
    _late_injection_campaign(bench_session, "prune-verify", duration)
    verify_result, _ = _timed_run(bench_session, "prune-verify", prune=1.0)
    verify = verify_result.prune
    assert verify["divergences"] == 0
    assert verify["spot_checks"] == verify["pruned"] > 0
    assert _rows(bench_session.db, "prune-verify") == plain_rows, (
        "fully spot-checked pruned rows differ from the plain run"
    )

    # Performance: spot-check rate 0 actually skips the simulations.
    _late_injection_campaign(bench_session, "prune-skip", duration)
    skip_result, skip_seconds = _timed_run(bench_session, "prune-skip", prune=0.0)
    prune = skip_result.prune
    assert _rows(bench_session.db, "prune-skip") == plain_rows, (
        "synthesised pruned rows differ from the plain run"
    )

    skip_rate = prune["skipped"] / prune["planned"]
    speedup = plain_seconds / skip_seconds
    lines = [
        "BENCH_prune: liveness-based experiment pruning",
        f"  workload            : {WORKLOAD} ({EXPERIMENTS} experiments, "
        f"injections in [{3 * duration // 4}, {duration}) of {duration} cycles)",
        f"  mode                : {'quick (CI smoke)' if QUICK else 'full'}",
        f"  serial, plain       : {plain_seconds:7.2f}s "
        f"({EXPERIMENTS / plain_seconds:6.1f} exp/s)",
        f"  prune, spot-check 1 : pruned={verify['pruned']} "
        f"spot_checks={verify['spot_checks']} divergences=0, rows identical",
        f"  prune, spot-check 0 : {skip_seconds:7.2f}s "
        f"({EXPERIMENTS / skip_seconds:6.1f} exp/s, {speedup:4.2f}x, "
        f"skipped {prune['skipped']}/{prune['planned']} = {skip_rate:.0%}, "
        f"{prune['latent']} latent, rows identical)",
        "  note                : the skip rate is the fraction of planned "
        "experiments whose flip is provably overwritten before being read "
        "or never read again; speedup approaches 1/(1 - skip rate) as "
        "fixed costs shrink",
    ]
    write_result(
        "BENCH_prune",
        "\n".join(lines),
        data={
            "workload": WORKLOAD,
            "experiments": EXPERIMENTS,
            "duration_cycles": duration,
            "injection_window": [3 * duration // 4, duration],
            "quick": QUICK,
            "plain_seconds": round(plain_seconds, 3),
            "pruned_seconds": round(skip_seconds, 3),
            "speedup": round(speedup, 3),
            "planned": prune["planned"],
            "pruned": prune["pruned"],
            "skipped": prune["skipped"],
            "latent": prune["latent"],
            "skip_rate": round(skip_rate, 4),
            "spot_check_divergences": verify["divergences"],
            "spot_checked": verify["spot_checks"],
        },
    )

    assert skip_rate >= 0.20, (
        f"expected the late-injection campaign to prune >= 20% of planned "
        f"experiments, got {skip_rate:.0%}"
    )
    if not QUICK:
        assert speedup >= 1.15, (
            f"expected an end-to-end speedup from skipping {skip_rate:.0%} "
            f"of simulations, got {speedup:.2f}x"
        )
