"""E5 — pre-injection liveness analysis efficiency (§4 future work).

"Injecting a fault into a location that does not hold live data serves
no purpose, since the fault will be overwritten."  Regenerates the
efficiency table: effective-error yield and overwritten share with and
without the liveness filter, per workload, plus the fraction of the
(location × time) space the analysis marks live.

Timed unit: generating a 100-experiment liveness-filtered plan.
"""

from __future__ import annotations

import pytest

from conftest import build_campaign, write_result
from repro.analysis import classify_campaign
from repro.core.campaign import PlanGenerator, live_windows
from repro.core.locations import Location

WORKLOADS = ["bubble_sort", "crc32"]


@pytest.fixture(scope="module")
def campaigns(bench_session):
    table = {}
    for i, workload in enumerate(WORKLOADS):
        for filtered in (False, True):
            name = f"e5_{workload}_{'live' if filtered else 'plain'}"
            build_campaign(
                bench_session,
                name,
                workload=workload,
                locations=("internal:regs.*",),
                num_experiments=120,
                use_preinjection_analysis=filtered,
                seed=500 + i,
            )
            bench_session.run_campaign(name)
            table[(workload, filtered)] = name
    return table


def test_e5_preinjection_efficiency(benchmark, bench_session, campaigns):
    config = bench_session.algorithms.read_campaign_data("e5_bubble_sort_live")
    trace = bench_session.algorithms.make_reference_run(config)
    space = bench_session.target.location_space()

    def generate_plan():
        return PlanGenerator(config, space, trace).generate()

    plan = benchmark(generate_plan)
    assert len(plan) == 120

    live_fractions = [
        sum(
            end - start
            for start, end in live_windows(
                trace,
                Location(kind="scan", chain="internal", element=f"regs.R{i}", bit=0),
                0,
                trace.duration,
            )
        )
        / trace.duration
        for i in range(16)
    ]
    mean_live = sum(live_fractions) / len(live_fractions)

    lines = [
        "E5: pre-injection analysis efficiency (120 register faults each)",
        f"{'workload':<14}{'filter':>8}{'effective':>11}{'overwritten':>13}"
        f"{'effective%':>12}",
        "-" * 58,
    ]
    gains = []
    for workload in WORKLOADS:
        rates = {}
        for filtered in (False, True):
            c = classify_campaign(bench_session.db, campaigns[(workload, filtered)])
            rates[filtered] = c.effective / c.total
            lines.append(
                f"{workload:<14}{'on' if filtered else 'off':>8}{c.effective:>11}"
                f"{c.overwritten:>13}{c.effective / c.total:>11.1%}"
            )
        gains.append(rates[True] / max(rates[False], 1e-9))
    lines.append("")
    lines.append(
        f"mean live fraction of register bits over the bubble_sort run: "
        f"{mean_live:.1%}"
    )
    lines.append(
        f"effective-error yield gain from filtering: "
        + ", ".join(f"{w}: {g:.1f}x" for w, g in zip(WORKLOADS, gains))
    )
    assert all(g > 1.0 for g in gains), "liveness filtering must raise the yield"
    write_result("E5_preinjection", "\n".join(lines))
