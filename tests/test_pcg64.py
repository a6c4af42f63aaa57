"""numpy is the oracle of the plain-Python random streams and latency
statistics.

Campaign plans, intermittent activations and environment faults were
first drawn from ``np.random.default_rng``, and stored rows and the
ledger's digests carry those draws; the latency tables were numpy's
median, percentile and histogram.  These properties hold the stdlib
code to numpy's values, bit for bit.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.latency import LatencySample, LatencyStatistics
from repro.core.rng import campaign_rng

#: Range sizes at every branch of ``integers``: one value, 32-bit
#: Lemire, exactly 2**32, 64-bit Lemire, and int64's largest ``high``.
BOUNDS = (1, 2, 3, 10, 4096, 2**32 - 1, 2**32, 2**32 + 1, 2**63)

calls = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("integers"), st.sampled_from(BOUNDS) | st.integers(1, 2**63)),
        st.tuples(
            st.just("range"),
            st.integers(-(2**63), 2**63 - 1),
            st.sampled_from(BOUNDS + (2**64,)),
        ),
    ),
    max_size=60,
)

EVERY_CALL = [
    ("random",),
    *[("integers", bound) for bound in BOUNDS],
    ("range", -(2**63), 2**64),
    ("range", 5, 1),
    ("range", -7, 2**32),
    ("random",),
]


def draw(generator, call):
    if call[0] == "random":
        return float(generator.random())
    if call[0] == "integers":
        return int(generator.integers(call[1]))
    low = call[1]
    return int(generator.integers(low, min(low + call[2], 2**63)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**130), calls=calls, cut=st.integers(0, 60))
@example(seed=0, calls=EVERY_CALL, cut=3)
@example(seed=2**32 - 1, calls=EVERY_CALL, cut=5)
@example(seed=2**32, calls=EVERY_CALL, cut=0)
@example(seed=2**64, calls=EVERY_CALL, cut=9)
@example(seed=2**128 + 1, calls=EVERY_CALL, cut=12)
def test_property_stream_matches_numpy(seed, calls, cut):
    """Every value is ``default_rng(seed)``'s, whatever the mix of calls
    (``random`` leaves the kept 32-bit half alone, ``integers`` below
    2**32 consumes it), and a copy taken mid-stream continues alike."""
    ours = campaign_rng(seed)
    oracle = np.random.default_rng(seed)
    cut = min(cut, len(calls))
    values = []
    twin = None
    for position, call in enumerate(calls):
        if position == cut:
            twin = copy.deepcopy(ours)
        values.append(draw(ours, call))
        assert values[-1] == draw(oracle, call), (position, call)
    if twin is not None:
        assert [draw(twin, call) for call in calls[cut:]] == values[cut:]


@pytest.mark.parametrize("low, high", [(0, 0), (5, 5), (5, 4)])
def test_empty_range_raises_like_numpy(low, high):
    with pytest.raises(ValueError):
        np.random.default_rng(1).integers(low, high)
    with pytest.raises(ValueError):
        campaign_rng(1).integers(low, high)


def test_one_value_range_consumes_nothing():
    generator = campaign_rng(9)
    assert generator.integers(41, 42) == 41
    assert generator.random() == np.random.default_rng(9).random()


latencies = st.one_of(
    st.lists(st.integers(0, 10**12), min_size=1, max_size=80),
    st.builds(lambda value, n: [value] * n, st.integers(0, 10**6), st.integers(1, 20)),
)


@settings(max_examples=200, deadline=None)
@given(values=latencies, q=st.floats(0, 100), bins=st.integers(1, 30))
@example(values=[7], q=95.0, bins=10)
@example(values=[3, 3, 3, 3], q=50.0, bins=10)
@example(values=[0, 1], q=50.0, bins=10)
@example(values=list(range(0, 1000, 7)), q=95.0, bins=13)
# Values whose scaled bin index lands one bin too high, then too low.
@example(values=[0, 27, 36], q=95.0, bins=28)
@example(values=[0, 15, 22], q=95.0, bins=22)
def test_property_latency_statistics_match_numpy(values, q, bins):
    statistics = LatencyStatistics(
        [LatencySample(f"e{i}", "m", 0, value) for i, value in enumerate(values)]
    )
    array = np.array(values, dtype=float)
    assert statistics.mean == float(array.mean())
    assert statistics.median == float(np.median(array))
    for quantile in (q, 0, 50, 90, 95, 99, 100):
        assert statistics.percentile(quantile) == float(np.percentile(array, quantile))
    counts, edges = np.histogram(array, bins=bins)
    assert statistics.histogram(bins) == [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)
    ]


GUARD = """
import sys

from repro import CampaignConfig, GoofiSession, analysis
from repro.core.faultmodels import IntermittentBitFlip

with GoofiSession(":memory:", target_name="thor-sm") as session:
    intermittent = IntermittentBitFlip(duration=200, activity=0.1)
    for name, model in (("transient", None), ("intermittent", intermittent)):
        config = CampaignConfig(
            name=name, target="thor-sm", technique="swifi_preruntime",
            workload="s_checksum", location_patterns=("memory:data",),
            num_experiments=40, seed=2001,
            termination=session.default_termination("s_checksum"),
            observation=session.default_observation("s_checksum"),
            **({} if model is None else {"fault_model": model}),
        )
        session.setup_campaign(config)
        session.run_campaign(name, workers=2, telemetry="spans")
        analysis.classify_campaign(session.db, name)
        analysis.campaign_report(session.db, name)
        analysis.stats_report(session.db, name)
assert "numpy" not in sys.modules, "numpy was imported"
print("ok")
"""


def test_campaign_and_analysis_run_without_numpy():
    """A fresh interpreter runs thor-sm campaigns on two workers (one
    drawing intermittent activations from the seeded stream) and the
    analysis phase without importing numpy, so no change quietly brings
    back its import cost."""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(GUARD)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
