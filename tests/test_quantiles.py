"""The analysis phase's two quantiles — the Clopper–Pearson beta bounds
and the normal z-value — computed with the standard library only.

scipy is not a dependency of the package; where it is installed, it
serves as the reference the stdlib implementations are checked against.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.measures import proportion
from repro.analysis.samplesize import _z
from repro.core.errors import AnalysisError

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
TRIALS = (*range(1, 61), 100, 900, 4000, 100_000)


class TestAgainstScipy:
    def test_clopper_pearson_bounds(self):
        stats = pytest.importorskip("scipy.stats")
        for n in TRIALS:
            for k in sorted({0, 1, n // 2, n - 1, n}):
                for confidence in CONFIDENCES:
                    p = proportion(k, n, confidence)
                    alpha = 1.0 - confidence
                    low = 0.0 if k == 0 else stats.beta.ppf(alpha / 2, k, n - k + 1)
                    high = (
                        1.0
                        if k == n
                        else stats.beta.ppf(1 - alpha / 2, k + 1, n - k)
                    )
                    where = (k, n, confidence)
                    assert p.ci_low == pytest.approx(low, abs=1e-10), where
                    assert p.ci_high == pytest.approx(high, abs=1e-10), where

    def test_z_value(self):
        stats = pytest.importorskip("scipy.stats")
        for step in range(1, 1000):
            confidence = step / 1000
            expected = stats.norm.ppf(0.5 + confidence / 2)
            assert _z(confidence) == pytest.approx(expected, abs=1e-12), confidence


class TestIntervalProperties:
    @given(
        trials=st.integers(1, 10_000),
        fraction=st.floats(0.0, 1.0),
        confidence=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_interval_brackets_estimate(self, trials, fraction, confidence):
        p = proportion(round(fraction * trials), trials, confidence)
        assert 0.0 <= p.ci_low <= p.estimate <= p.ci_high <= 1.0

    @given(
        trials=st.integers(1, 10_000),
        fraction=st.floats(0.0, 1.0),
        confidences=st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=2,
            max_size=2,
        ),
    )
    def test_higher_confidence_never_narrower(self, trials, fraction, confidences):
        lower, higher = sorted(confidences)
        successes = round(fraction * trials)
        narrow = proportion(successes, trials, lower)
        wide = proportion(successes, trials, higher)
        # Both bounds move outward; the slack absorbs rounding when the
        # two confidences are a few ulps apart.
        assert wide.ci_low <= narrow.ci_low + 1e-12
        assert wide.ci_high >= narrow.ci_high - 1e-12


class TestConfidenceChecked:
    @pytest.mark.parametrize("bad", [1.5, 0.0, 1.0, -0.1])
    def test_proportion_rejects_confidence_outside_unit_interval(self, bad):
        """Regression: 1.5 gave [nan, nan], and 0.0 an interval that
        excluded its own estimate."""
        with pytest.raises(AnalysisError, match="confidence"):
            proportion(3, 10, bad)


GUARDED_SCRIPT = textwrap.dedent(
    """
    import sys
    import types

    # Any import of scipy (or a submodule) now raises ImportError.
    sys.modules["scipy"] = None

    import repro, repro.cli.main
    from repro import GoofiSession
    from repro.analysis import campaign_report, render_campaign_report
    from repro.analysis.measures import proportion
    from repro.analysis.samplesize import SequentialPlan, required_experiments
    from tests.conftest import make_campaign

    assert str(proportion(30, 100)) == "0.300 [0.212, 0.400] (30/100)"
    assert required_experiments(0.05) == 385
    plan = SequentialPlan(target_half_width=0.05)
    plan.next_chunk()
    assert not plan.should_stop(proportion(5, 10))
    assert plan.projected_total(proportion(5, 10)) == 385

    with GoofiSession(":memory:") as session:
        make_campaign(session, "guarded", num_experiments=20)
        session.run_campaign("guarded")
        assert "guarded" in campaign_report(session.db, "guarded")
        assert "<html" in render_campaign_report(session.db, "guarded")

    loaded = [
        name
        for name, module in sys.modules.items()
        if (name == "scipy" or name.startswith("scipy."))
        and isinstance(module, types.ModuleType)
    ]
    assert not loaded, loaded
    print("ok")
    """
)


def test_product_runs_without_scipy():
    """The package, the CLI and the analysis phase never import scipy."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", GUARDED_SCRIPT],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
