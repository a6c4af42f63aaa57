"""Zero-copy state engine: save/restore latency, worker startup, and
batched probe-diff throughput.

Regenerates two measurements, the measured worker startup, and the
row-identity matrix:

* **save/restore latency** — the array-backed ``save_state`` /
  ``restore_state`` (one ``tobytes()`` memcpy / one ``memoryview``
  slice assign) against the legacy list-of-boxed-ints copy the targets
  used before, on both simulator targets;
* **probe diff throughput** — packed ``array('Q')`` chain comparison
  (one memcmp, walk only on difference) against the legacy per-element
  boxed-tuple comparison.

Worker startup is the campaign's measured ``phase.worker_startup``
(target construction around the start-up state each worker inherits from
the coordinator), reported without a bound.

The ≥ 2x save/restore assertions fire only in full mode; ``GOOFI_BENCH_QUICK=1`` (the CI smoke step) shrinks everything
and keeps only the identity assertions, which must hold at any size.
"""

from __future__ import annotations

import os
import time

from conftest import build_campaign, write_result

QUICK = os.environ.get("GOOFI_BENCH_QUICK") == "1"
EXPERIMENTS = 16 if QUICK else 80
SAVE_ITERATIONS = 30 if QUICK else 300
DIFF_ITERATIONS = 200 if QUICK else 5_000
WORKLOAD = "bubble_sort"


def _rows(db, campaign: str) -> dict:
    return {
        record.experiment_name.split("/", 1)[1]: (
            record.experiment_data,
            record.state_vector,
        )
        for record in db.iter_experiments(campaign)
    }


def _best_of(repeats: int, iterations: int, fn) -> float:
    """Per-call seconds, best of ``repeats`` timed batches."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - started) / iterations)
    return best


# ----------------------------------------------------------------------
# 1. save/restore latency: array engine vs legacy boxed-int lists
# ----------------------------------------------------------------------
def _save_restore_latency():
    from repro.targets.stack.machine import StackMachine
    from repro.targets.thor.memory import Memory

    results = {}
    for label, obj, words in (
        ("thor-rd", Memory(), lambda m: m._words),
        ("thor-sm", StackMachine(), lambda m: m.memory),
    ):
        backing = words(obj)
        # Deterministic non-trivial contents.
        for address in range(0, len(backing), 7):
            backing[address] = (address * 2654435761) & 0xFFFFFFFF

        # Legacy representation: the same words as a list of boxed ints,
        # saved with list() and restored with a per-word slice assign —
        # exactly what save_state/restore_state compiled down to before
        # the array migration.
        legacy_words = list(backing)
        legacy_scratch = list(backing)
        legacy_save = _best_of(3, SAVE_ITERATIONS, lambda: list(legacy_words))
        saved_list = list(legacy_words)

        def legacy_restore():
            legacy_scratch[:] = saved_list

        legacy_restore_s = _best_of(3, SAVE_ITERATIONS, legacy_restore)

        new_save = _best_of(3, SAVE_ITERATIONS, obj.save_state)
        saved_state = obj.save_state()

        def new_restore():
            obj.restore_state(saved_state)

        new_restore_s = _best_of(3, SAVE_ITERATIONS, new_restore)
        results[label] = {
            "words": len(backing),
            "legacy_save_us": legacy_save * 1e6,
            "legacy_restore_us": legacy_restore_s * 1e6,
            "save_us": new_save * 1e6,
            "restore_us": new_restore_s * 1e6,
            "save_speedup": legacy_save / new_save,
            "restore_speedup": legacy_restore_s / new_restore_s,
        }
    return results


# ----------------------------------------------------------------------
# 2. probe diff throughput: packed buffer compare vs boxed-tuple compare
# ----------------------------------------------------------------------
def _probe_diff_throughput():
    """Time the golden-comparison step of probe readout on captured
    snapshots.  The overwhelmingly common case during sampling is a
    chain that matches its golden image, so that is what is timed: the
    legacy path compares two tuples of boxed ints element-by-element
    (falling back to the zip walk on difference), the packed path
    compares two ``'Q'``-typed buffers with one C-level memcmp."""
    from repro.core.plugins import create_target

    target = create_target("thor-rd-sim")
    target.init_test_card()
    target.load_workload(WORKLOAD)
    golden_tuple = target.probe_scan_chain("internal")
    golden_packed = target.probe_scan_chain_packed("internal")
    snapshot_tuple = target.probe_scan_chain("internal")
    snapshot_packed = target.probe_scan_chain_packed("internal")
    names = tuple(target.probe_element_names("internal"))
    assert golden_packed is not None
    assert snapshot_tuple == golden_tuple, "expected a matching snapshot"

    def legacy_diff():
        if snapshot_tuple == golden_tuple:
            return []
        return [
            name
            for name, value, golden_value in zip(
                names, snapshot_tuple, golden_tuple
            )
            if value != golden_value
        ]

    def packed_diff():
        if snapshot_packed == golden_packed:
            return []
        return [
            name
            for name, value, golden_value in zip(
                names, snapshot_tuple, golden_tuple
            )
            if value != golden_value
        ]

    legacy = _best_of(3, DIFF_ITERATIONS, legacy_diff)
    packed = _best_of(3, DIFF_ITERATIONS, packed_diff)
    return {
        "elements": len(names),
        "legacy_us": legacy * 1e6,
        "packed_us": packed * 1e6,
        "legacy_per_s": 1.0 / legacy,
        "packed_per_s": 1.0 / packed,
        "speedup": legacy / packed,
    }


# ----------------------------------------------------------------------
# 3. campaign-level: worker startup + the row-identity matrix
# ----------------------------------------------------------------------
def test_state_engine(bench_session):
    session = bench_session
    save_restore = _save_restore_latency()
    diff = _probe_diff_throughput()

    # Row-identity matrix: serial vs parallel vs checkpointed (serial
    # and parallel) — asserted at any size.
    build_campaign(session, "st-serial", num_experiments=EXPERIMENTS, seed=31)
    session.run_campaign("st-serial", probes=True)
    reference_rows = _rows(session.db, "st-serial")
    matrix = {
        "st-par": dict(workers=2, probes=True),
        "st-ckpt": dict(checkpoints=True, probes=True),
        "st-par-ckpt": dict(workers=2, checkpoints=True, probes=True),
    }
    for name, kwargs in matrix.items():
        build_campaign(session, name, num_experiments=EXPERIMENTS, seed=31)
        result = session.run_campaign(name, **kwargs)
        assert result.experiments_run == EXPERIMENTS
        assert _rows(session.db, name) == reference_rows, (
            f"{name} rows differ from the serial run"
        )

    # Worker startup as the campaign measures it: target construction
    # around the start-up state each worker inherits from the coordinator.
    build_campaign(session, "st-startup", num_experiments=EXPERIMENTS, seed=31)
    result = session.run_campaign(
        "st-startup", workers=2, probes=True, checkpoints=True,
        telemetry="metrics",
    )
    startup = result.telemetry["timers"]["phase.worker_startup"]
    startup_mean_s = startup["seconds"] / startup["count"]

    data = {
        "mode": "quick" if QUICK else "full",
        "experiments": EXPERIMENTS,
        "save_restore": save_restore,
        "probe_diff": diff,
        "worker_startup": {
            "workers": startup["count"],
            "measured_mean_ms": startup_mean_s * 1e3,
        },
        "rows_identical": sorted(matrix) + ["st-serial"],
    }

    lines = [
        "State engine: array memory, worker startup, batched probe diffs",
        f"  mode                : {'quick (CI smoke)' if QUICK else 'full'}",
        "  save/restore latency (per call):",
    ]
    for label, stats in save_restore.items():
        lines.append(
            f"    {label:<8} ({stats['words']:>6} words) : "
            f"save {stats['legacy_save_us']:7.1f}us -> {stats['save_us']:6.1f}us "
            f"({stats['save_speedup']:5.1f}x), "
            f"restore {stats['legacy_restore_us']:7.1f}us -> "
            f"{stats['restore_us']:6.1f}us ({stats['restore_speedup']:5.1f}x)"
        )
    lines += [
        f"  probe chain diff    : {diff['elements']} elements, "
        f"{diff['legacy_us']:5.2f}us boxed-tuple compare -> "
        f"{diff['packed_us']:5.2f}us packed compare ({diff['speedup']:4.2f}x, "
        f"{diff['packed_per_s']:,.0f} diffs/s)",
        f"  worker startup      : phase.worker_startup mean "
        f"{startup_mean_s * 1e3:.1f}ms across {startup['count']} workers "
        f"(target construction; start-up state inherited)",
        f"  row identity        : serial == 2 workers == checkpointed == "
        f"2 workers + ckpt ({EXPERIMENTS} experiments)",
    ]
    write_result("BENCH_state", "\n".join(lines), data)

    if not QUICK:
        for label, stats in save_restore.items():
            assert stats["save_speedup"] >= 2.0, (
                f"{label}: expected >= 2x faster save_state, "
                f"got {stats['save_speedup']:.2f}x"
            )
            assert stats["restore_speedup"] >= 2.0, (
                f"{label}: expected >= 2x faster restore_state, "
                f"got {stats['restore_speedup']:.2f}x"
            )
        assert diff["speedup"] > 1.0, (
            "expected the packed chain compare to beat the zip walk"
        )
