"""Engineering bench: hot-loop execution engine (fast path vs reference).

Regenerates the before/after table for the fused execution engine: raw
simulator throughput on both targets with the fast path on and with the
reference observable step loop forced (``fast=False``), campaign
experiments/second in both modes, and the full internal-chain scan
dump+restore cost.  Writes ``BENCH_hotloop.json`` next to the text table
(machine-readable, via :func:`conftest.write_result`).

Identity assertions run at any size: the fast-path campaign rows must be
bit-identical to the reference-loop rows, the fast path must actually
have engaged (``execution_stats()["fast_segments"] > 0``), and the
thor-sm fused loop must leave the same ``save_state()`` as the
reference loop on every stack workload.
Timing assertions (>= 3x the recorded pre-fast-path baseline, chain
dump+restore < 200 us) fire only in full mode; ``GOOFI_BENCH_QUICK=1``
(the CI smoke step) shrinks the workload and keeps identity only.
"""

from __future__ import annotations

import os
import time

from conftest import build_campaign, write_result

from repro.targets.stack import StackMachine, s_load
from repro.targets.thor import TestCard, TerminationCondition
from repro.workloads import load

QUICK = os.environ.get("GOOFI_BENCH_QUICK") == "1"

#: instr/s of the thor-rd-sim plain crc32 run recorded by
#: ``bench_simulator`` on the pre-fast-path engine (the seed tree's
#: ``benchmarks/results/simulator_throughput.txt``).  The >= 3x
#: acceptance bound is measured against this number.
BASELINE_INSTR_S = 167_047

RUNS = 2 if QUICK else 10
#: The stack workloads finish in a few hundred cycles, so many runs are
#: batched per timing to keep per-run noise out of the rate.
STACK_RUNS = 40 if QUICK else 400
CHAIN_REPS = 200 if QUICK else 2000
EXPERIMENTS = 12 if QUICK else 60


def thor_rate(fast: bool) -> float:
    """Simulated instructions/second for the crc32 workload."""
    card = TestCard()
    card.init_target()
    card.cpu.fast = fast
    program = load("crc32")
    card.load_workload(program)
    card.run(TerminationCondition(max_cycles=2_000_000))  # warm-up
    cycles = 0
    seconds = 0.0
    for _ in range(RUNS):
        card.load_workload(program)
        started = time.perf_counter()
        card.run(TerminationCondition(max_cycles=2_000_000))
        seconds += time.perf_counter() - started
        cycles += card.cpu.cycle
    return cycles / seconds


STACK_WORKLOADS = ("s_fib", "s_checksum", "s_sumvec")


def stack_machine(workload: str, fast: bool) -> StackMachine:
    machine = StackMachine()
    machine.fast = fast
    program = s_load(workload)
    machine.load_image(0, program.program)
    machine.load_image(program.data_base, program.data)
    machine.reset(program.entry_point)
    return machine


def assert_stack_states_identical() -> None:
    """Fast vs reference ``save_state()`` on every stack workload."""
    for workload in STACK_WORKLOADS:
        fast = stack_machine(workload, fast=True)
        ref = stack_machine(workload, fast=False)
        assert fast.run(2_000_000) == ref.run(2_000_000) == "halted", workload
        assert fast.fast_segments == 1 and ref.fast_segments == 0, workload
        assert fast.save_state() == ref.save_state(), (
            f"thor-sm fused loop state differs from the reference on {workload}"
        )


def stack_rate(fast: bool) -> float:
    """Simulated instructions/second for the s_fib workload."""
    machine = StackMachine()
    machine.fast = fast
    program = s_load("s_fib")

    def one_run() -> int:
        machine.load_image(0, program.program)
        machine.load_image(program.data_base, program.data)
        machine.reset(program.entry_point)
        machine.run(2_000_000)
        return machine.cycle

    one_run()  # warm-up
    cycles = 0
    started = time.perf_counter()
    for _ in range(STACK_RUNS):
        cycles += one_run()
    seconds = time.perf_counter() - started
    return cycles / seconds


def chain_roundtrip_us() -> tuple[float, int]:
    """Mean cost of one full internal-chain dump+restore, in us."""
    card = TestCard()
    card.init_target()
    card.load_workload(load("crc32"))
    card.run(TerminationCondition(max_cycles=50_000))
    chain = card.scan_chain("internal")
    started = time.perf_counter()
    for _ in range(CHAIN_REPS):
        chain.write(chain.read())
    seconds = (time.perf_counter() - started) / CHAIN_REPS
    return seconds * 1e6, chain.width


def _rows(db, campaign: str) -> dict:
    return {
        record.experiment_name.split("/", 1)[1]: (
            record.experiment_data,
            record.state_vector,
        )
        for record in db.iter_experiments(campaign)
    }


def test_hotloop_speedup(bench_session):
    session = bench_session
    assert_stack_states_identical()

    # Raw core throughput, both engines.
    thor_fast = thor_rate(fast=True)
    thor_ref = thor_rate(fast=False)
    stack_fast = stack_rate(fast=True)
    stack_ref = stack_rate(fast=False)
    chain_us, chain_bits = chain_roundtrip_us()

    # Campaign throughput: identical configs, fast vs reference loop.
    build_campaign(session, "hot-fast", num_experiments=EXPERIMENTS)
    started = time.perf_counter()
    result_fast = session.run_campaign("hot-fast")
    fast_seconds = time.perf_counter() - started
    assert result_fast.experiments_run == EXPERIMENTS
    assert not result_fast.aborted
    stats = session.target.execution_stats()
    assert stats.get("fast_segments", 0) > 0, "fast path never engaged"

    build_campaign(session, "hot-ref", num_experiments=EXPERIMENTS)
    started = time.perf_counter()
    result_ref = session.run_campaign("hot-ref", fast=False)
    ref_seconds = time.perf_counter() - started
    assert result_ref.experiments_run == EXPERIMENTS
    assert not result_ref.aborted

    assert _rows(session.db, "hot-fast") == _rows(session.db, "hot-ref"), (
        "fast-path campaign rows differ from the reference loop"
    )

    fast_exp_s = EXPERIMENTS / fast_seconds
    ref_exp_s = EXPERIMENTS / ref_seconds
    data = {
        "mode": "quick" if QUICK else "full",
        "baseline_instr_s": BASELINE_INSTR_S,
        "thor_fast_instr_s": round(thor_fast),
        "thor_reference_instr_s": round(thor_ref),
        "thor_speedup_vs_baseline": round(thor_fast / BASELINE_INSTR_S, 2),
        "stack_fast_instr_s": round(stack_fast),
        "stack_reference_instr_s": round(stack_ref),
        "campaign_fast_exp_s": round(fast_exp_s, 1),
        "campaign_reference_exp_s": round(ref_exp_s, 1),
        "chain_dump_restore_us": round(chain_us, 1),
        "chain_bits": chain_bits,
        "fast_segments": stats["fast_segments"],
        "rows_identical": True,
        "stack_states_identical": list(STACK_WORKLOADS),
    }
    lines = [
        "Hot-loop execution engine: fast path vs reference loop",
        f"  mode                      : {'quick (CI smoke)' if QUICK else 'full'}",
        f"  recorded baseline (seed)  : {BASELINE_INSTR_S:>12,} instr/s "
        "(thor-rd-sim, plain crc32)",
        f"  thor-rd-sim, fast path    : {thor_fast:>12,.0f} instr/s "
        f"({thor_fast / BASELINE_INSTR_S:.1f}x baseline)",
        f"  thor-rd-sim, reference    : {thor_ref:>12,.0f} instr/s",
        f"  thor-sm, fast path        : {stack_fast:>12,.0f} instr/s",
        f"  thor-sm, reference        : {stack_ref:>12,.0f} instr/s",
        f"  campaign, fast path       : {fast_exp_s:>12,.1f} exp/s "
        f"({EXPERIMENTS} scifi experiments)",
        f"  campaign, reference       : {ref_exp_s:>12,.1f} exp/s",
        f"  chain dump+restore        : {chain_us:>12,.1f} us "
        f"({chain_bits} bits)",
        f"  fast segments (campaign)  : {stats['fast_segments']:>12,}",
        "  rows fast vs reference    : identical",
        "  thor-sm states fast vs ref: identical "
        f"({', '.join(STACK_WORKLOADS)})",
    ]
    write_result("BENCH_hotloop", "\n".join(lines), data=data)

    if not QUICK:
        assert thor_fast >= 3 * BASELINE_INSTR_S, (
            f"expected >= 3x the recorded {BASELINE_INSTR_S:,} instr/s "
            f"baseline, got {thor_fast:,.0f}"
        )
        assert chain_us < 200, (
            f"expected < 200 us full-chain dump+restore, got {chain_us:.1f} us"
        )
