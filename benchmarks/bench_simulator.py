"""Engineering bench: raw simulator throughput.

Not a paper experiment — the baseline that makes every experiment's
cost intelligible: how many simulated instructions per second each
target core executes (plain run, traced run, detail-stepped run), and
the cost of a whole-chain scan dump/restore.
"""

from __future__ import annotations

import time

from conftest import write_result
from repro.targets.stack import StackMachine, s_load
from repro.targets.thor import TestCard, TerminationCondition
from repro.workloads import load


def thor_run(workload: str, trace: bool = False) -> tuple[int, float]:
    card = TestCard()
    card.init_target()
    card.load_workload(load(workload))
    if trace:
        sink: list = []
        card.cpu.trace_hook = lambda c, p, i: sink.append(c)
        card.cpu.mem_hook = lambda a: sink.append(a)
    started = time.perf_counter()
    card.run(TerminationCondition(max_cycles=2_000_000))
    elapsed = time.perf_counter() - started
    return card.cpu.cycle, elapsed


def stack_run(workload: str) -> tuple[int, float]:
    machine = StackMachine()
    program = s_load(workload)
    machine.load_image(0, program.program)
    machine.load_image(program.data_base, program.data)
    machine.reset(entry_point=program.entry_point)
    started = time.perf_counter()
    machine.run(2_000_000)
    elapsed = time.perf_counter() - started
    return machine.cycle, elapsed


def repeat_rate(run, times: int = 40) -> float:
    cycles = 0
    seconds = 0.0
    for _ in range(times):
        c, s = run()
        cycles += c
        seconds += s
    return cycles / seconds


def test_simulator_throughput(benchmark):
    card = TestCard()
    card.init_target()
    program = load("crc32")

    def one_run():
        card.load_workload(program)
        card.run(TerminationCondition(max_cycles=2_000_000))
        return card.cpu.cycle

    cycles = benchmark(one_run)
    assert cycles > 2000

    rows = [
        "Simulator throughput (simulated instructions/second):",
        f"{'configuration':<38}{'instr/s':>12}",
        "-" * 52,
    ]
    configurations = [
        ("thor-rd-sim, plain run (crc32)", lambda: thor_run("crc32")),
        ("thor-rd-sim, traced run (crc32)", lambda: thor_run("crc32", trace=True)),
        ("thor-rd-sim, plain run (bubble_sort)", lambda: thor_run("bubble_sort")),
        ("thor-sm, plain run (s_fib)", lambda: stack_run("s_fib")),
    ]
    rates = {}
    for label, run in configurations:
        rate = repeat_rate(run)
        rates[label] = rate
        rows.append(f"{label:<38}{rate:>12,.0f}")

    # Scan dump/restore cost for a full internal chain.
    chain = card.scan_chain("internal")
    started = time.perf_counter()
    for _ in range(2000):
        chain.write(chain.read())
    scan_seconds = (time.perf_counter() - started) / 2000
    rows.append("")
    rows.append(
        f"full internal-chain dump+restore: {scan_seconds * 1e6:,.0f} us "
        f"({chain.width} bits)"
    )
    assert rates["thor-rd-sim, plain run (crc32)"] > 50_000  # sanity floor
    write_result("simulator_throughput", "\n".join(rows))
