"""E12 — detection latency and the analytical dependability model (§1).

"Fault injection can also be used to obtain dependability measures such
as the error coverage of a system.  The coverage can then be used in an
analytical model to calculate the system's availability and
reliability."  Regenerates both halves of that sentence:

* the detection-latency distribution per mechanism (how fast each EDM
  fires after injection), and
* the reliability/availability predictions the measured coverage feeds,
  with uncertainty propagated from the coverage confidence interval.

Timed unit: computing latency statistics for a whole campaign.
"""

from __future__ import annotations

import pytest

from conftest import build_campaign, write_result
from repro.analysis import (
    classify_campaign,
    detection_latencies,
    format_dependability_report,
    format_latency_report,
    model_from_campaign,
)

#: A plausible transient-fault arrival rate for a rad-hard space CPU
#: (order of magnitude only; the model's inputs are user-supplied).
FAULT_RATE_PER_HOUR = 1e-3
REPAIR_RATE_PER_HOUR = 2.0
MISSION_HOURS = 8760.0  # one year


@pytest.fixture(scope="module")
def campaign(bench_session):
    build_campaign(
        bench_session,
        "e12",
        workload="bubble_sort",
        locations=(
            "internal:icache.line*.data",
            "internal:dcache.line*.data",
            "internal:ctrl.PC",
        ),
        num_experiments=150,
        injection_window=(10, 1200),
        seed=1200,
    )
    bench_session.run_campaign("e12")
    return "e12"


def test_e12_latency_and_dependability(benchmark, bench_session, campaign):
    classification = classify_campaign(bench_session.db, campaign)
    statistics = benchmark(detection_latencies, classification)
    assert statistics.count > 20

    model = model_from_campaign(
        classification,
        fault_rate=FAULT_RATE_PER_HOUR,
        repair_rate=REPAIR_RATE_PER_HOUR,
    )
    sections = [
        format_latency_report(
            statistics, "E12a: detection latency (cycles after injection):"
        ),
        "",
        "latency histogram (cycles -> detections):",
    ]
    for low, high, count in statistics.histogram(bins=8):
        bar = "#" * count
        sections.append(f"  [{low:8.1f}, {high:8.1f})  {count:4d} {bar}")
    sections.append("")
    sections.append(
        format_dependability_report(model, MISSION_HOURS).replace(
            "Analytical dependability prediction",
            "E12b: analytical dependability prediction",
        )
    )
    reliability = model.reliability(MISSION_HOURS)
    assert 0.0 < reliability.low <= reliability.estimate <= reliability.high <= 1.0
    write_result("E12_latency_dependability", "\n".join(sections))
