"""Tests for the analysis phase: classification and measures."""

from __future__ import annotations

import pytest

from repro.analysis.classify import (
    CATEGORY_DETECTED,
    CATEGORY_ESCAPED,
    CATEGORY_LATENT,
    CATEGORY_OVERWRITTEN,
    ESCAPE_TIMELINESS,
    ESCAPE_WRONG_OUTPUT,
    CampaignClassification,
    Classification,
    classify_campaign,
    classify_experiment,
    state_difference,
)
from repro.analysis.measures import (
    detection_coverage,
    effectiveness,
    failure_rate,
    mechanism_shares,
    per_group_breakdown,
    per_location_breakdown,
    per_time_breakdown,
    proportion,
)
from repro.core.errors import AnalysisError
from repro.db import ExperimentRecord

REFERENCE_STATE = {
    "termination": {"outcome": "workload_end", "cycle": 100, "iteration": 0},
    "final": {
        "scan": {"internal:regs.R1": 10, "internal:regs.R2": 20},
        "memory": {"16384": 5},
        "outputs": [[90, 1, 42]],
        "cycle": 100,
    },
}


def experiment(name: str, outcome: str = "workload_end", *, scan=None, memory=None,
               outputs=None, detection=None, location=None, cycle=50) -> ExperimentRecord:
    final = {
        "scan": scan if scan is not None else dict(REFERENCE_STATE["final"]["scan"]),
        "memory": memory if memory is not None else dict(REFERENCE_STATE["final"]["memory"]),
        "outputs": outputs if outputs is not None else [[90, 1, 42]],
        "cycle": 101,
    }
    fault = {
        "location": location
        or {"kind": "scan", "chain": "internal", "element": "regs.R1", "bit": 0},
        "trigger": {"trigger": "time", "cycle": cycle},
        "model": {"model": "transient_bitflip"},
        "injection_cycle": cycle,
        "applied": True,
    }
    return ExperimentRecord(
        experiment_name=name,
        campaign_name="camp",
        experiment_data={"technique": "scifi", "faults": [fault]},
        state_vector={
            "termination": {"outcome": outcome, "cycle": 100, "iteration": 0,
                            "detection": detection},
            "final": final,
        },
    )


class TestStateDifference:
    def test_identical_states_no_diff(self):
        assert state_difference(REFERENCE_STATE["final"], REFERENCE_STATE["final"]) == ()

    def test_scan_and_memory_diffs_found(self):
        observed = {
            "scan": {"internal:regs.R1": 11, "internal:regs.R2": 20},
            "memory": {"16384": 6},
        }
        diff = state_difference(REFERENCE_STATE["final"], observed)
        assert diff == ("mem:16384", "scan:internal:regs.R1")

    def test_missing_key_counts_as_diff(self):
        observed = {"scan": {"internal:regs.R1": 10}, "memory": {"16384": 5}}
        assert "scan:internal:regs.R2" in state_difference(
            REFERENCE_STATE["final"], observed
        )

    def test_cycle_differences_ignored(self):
        observed = dict(REFERENCE_STATE["final"], cycle=999)
        assert state_difference(REFERENCE_STATE["final"], observed) == ()


class TestClassifyExperiment:
    def test_detected(self):
        record = experiment(
            "e1",
            outcome="error_detected",
            detection={"mechanism": "icache_parity", "cycle": 60, "pc": 3},
        )
        verdict = classify_experiment(REFERENCE_STATE, record)
        assert verdict.category == CATEGORY_DETECTED
        assert verdict.mechanism == "icache_parity"
        assert verdict.effective

    def test_timeout_is_escaped_timeliness(self):
        verdict = classify_experiment(REFERENCE_STATE, experiment("e1", outcome="timeout"))
        assert verdict.category == CATEGORY_ESCAPED
        assert verdict.escape_kind == ESCAPE_TIMELINESS

    def test_wrong_output_is_escaped(self):
        record = experiment("e1", outputs=[[90, 1, 43]])
        verdict = classify_experiment(REFERENCE_STATE, record)
        assert verdict.category == CATEGORY_ESCAPED
        assert verdict.escape_kind == ESCAPE_WRONG_OUTPUT

    def test_missing_output_is_escaped(self):
        verdict = classify_experiment(REFERENCE_STATE, experiment("e1", outputs=[]))
        assert verdict.category == CATEGORY_ESCAPED

    def test_output_timing_shift_alone_not_escaped(self):
        verdict = classify_experiment(
            REFERENCE_STATE, experiment("e1", outputs=[[95, 1, 42]])
        )
        assert verdict.category == CATEGORY_OVERWRITTEN

    def test_latent(self):
        record = experiment("e1", scan={"internal:regs.R1": 10, "internal:regs.R2": 99})
        verdict = classify_experiment(REFERENCE_STATE, record)
        assert verdict.category == CATEGORY_LATENT
        assert verdict.differing_keys == ("scan:internal:regs.R2",)
        assert not verdict.effective

    def test_overwritten(self):
        verdict = classify_experiment(REFERENCE_STATE, experiment("e1"))
        assert verdict.category == CATEGORY_OVERWRITTEN

    def test_malformed_record_rejected(self):
        record = ExperimentRecord(
            experiment_name="bad",
            campaign_name="camp",
            experiment_data={},
            state_vector={"nope": 1},
        )
        with pytest.raises(AnalysisError, match="malformed"):
            classify_experiment(REFERENCE_STATE, record)

    def test_unknown_outcome_rejected(self):
        record = experiment("e1", outcome="vaporised")
        with pytest.raises(AnalysisError, match="unknown outcome"):
            classify_experiment(REFERENCE_STATE, record)


class TestCampaignClassification:
    def make(self) -> CampaignClassification:
        return CampaignClassification(
            campaign_name="camp",
            classifications=[
                Classification("e0", CATEGORY_DETECTED, mechanism="icache_parity"),
                Classification("e1", CATEGORY_DETECTED, mechanism="icache_parity"),
                Classification("e2", CATEGORY_DETECTED, mechanism="mem_violation"),
                Classification("e3", CATEGORY_ESCAPED, escape_kind=ESCAPE_WRONG_OUTPUT),
                Classification("e4", CATEGORY_LATENT),
                Classification("e5", CATEGORY_OVERWRITTEN),
                Classification("e6", CATEGORY_OVERWRITTEN),
            ],
        )

    def test_counts(self):
        c = self.make()
        assert (c.detected, c.escaped, c.latent, c.overwritten) == (3, 1, 1, 2)
        assert c.effective == 4
        assert c.non_effective == 3
        assert c.total == 7

    def test_mechanism_breakdown(self):
        assert self.make().by_mechanism() == {"icache_parity": 2, "mem_violation": 1}

    def test_escape_breakdown(self):
        assert self.make().by_escape_kind() == {ESCAPE_WRONG_OUTPUT: 1}

    def test_summary_is_serialisable(self):
        import json

        summary = self.make().summary()
        assert json.loads(json.dumps(summary)) == summary


class TestProportions:
    def test_point_estimate(self):
        p = proportion(30, 100)
        assert p.estimate == pytest.approx(0.3)
        assert 0 < p.ci_low < 0.3 < p.ci_high < 1

    def test_extremes(self):
        assert proportion(0, 50).ci_low == 0.0
        assert proportion(50, 50).ci_high == 1.0

    def test_zero_trials(self):
        p = proportion(0, 0)
        assert (p.ci_low, p.ci_high) == (0.0, 1.0)

    def test_interval_narrows_with_samples(self):
        narrow = proportion(300, 1000)
        wide = proportion(3, 10)
        assert narrow.ci_high - narrow.ci_low < wide.ci_high - wide.ci_low

    def test_interval_contains_truth_mostly(self):
        """Clopper-Pearson is exact: coverage is at least nominal."""
        import numpy as np

        rng = np.random.default_rng(0)
        truth = 0.3
        hits = 0
        trials = 200
        for _ in range(trials):
            successes = rng.binomial(60, truth)
            p = proportion(int(successes), 60)
            hits += p.ci_low <= truth <= p.ci_high
        assert hits / trials >= 0.93

    def test_invalid_proportions_rejected(self):
        with pytest.raises(AnalysisError):
            proportion(5, 3)
        with pytest.raises(AnalysisError):
            proportion(-1, 3)

    def test_measures_on_classification(self):
        c = TestCampaignClassification().make()
        assert detection_coverage(c).estimate == pytest.approx(3 / 4)
        assert effectiveness(c).estimate == pytest.approx(4 / 7)
        assert failure_rate(c).estimate == pytest.approx(1 / 7)
        shares = mechanism_shares(c)
        assert shares["icache_parity"].estimate == pytest.approx(2 / 3)


class TestEndToEndClassification:
    def test_campaign_classification_from_db(self, session):
        from tests.conftest import make_campaign

        make_campaign(session, "c", workload="bubble_sort", num_experiments=40,
                      locations=("internal:regs.*", "internal:icache.*"), seed=5)
        session.run_campaign("c")
        classification = classify_campaign(session.db, "c")
        assert classification.total == 40
        total = (classification.detected + classification.escaped
                 + classification.latent + classification.overwritten)
        assert total == 40
        # Cache faults exist in the plan, so some parity detections are
        # all but certain with 40 experiments across icache lines.
        assert classification.detected > 0

    def test_breakdowns_cover_all_experiments(self, session):
        from tests.conftest import make_campaign

        make_campaign(session, "c", num_experiments=30, seed=6)
        session.run_campaign("c")
        by_location = per_location_breakdown(classify_campaign(session.db, "c"))
        assert sum(b.total for b in by_location) == 30
        by_group = per_group_breakdown(classify_campaign(session.db, "c"))
        assert sum(b.total for b in by_group) == 30
        assert all(b.group == "regs" for b in by_group)
        by_time = per_time_breakdown(classify_campaign(session.db, "c"), bins=4)
        assert sum(b.total for b in by_time) == 30
        assert len(by_time) <= 4


class TestLazyPropagationImport:
    def test_networkx_not_imported_eagerly(self):
        """``repro.analysis.propagation`` pulls in networkx (~0.2 s) —
        every ``goofi run`` would pay that if the package imported it
        eagerly.  It must load only when a propagation name is touched."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        source_root = Path(repro.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "import repro\n"
            "import repro.analysis\n"
            "assert 'networkx' not in sys.modules, 'networkx imported eagerly'\n"
            "assert 'repro.analysis.propagation' not in sys.modules\n"
            "from repro.analysis import analyze_propagation\n"
            "assert 'networkx' in sys.modules\n"
        )
        subprocess.run(
            [sys.executable, "-c", script], check=True,
            env={**os.environ, "PYTHONPATH": str(source_root)},
        )

    def test_lazy_names_still_exported(self):
        import repro.analysis as analysis

        for name in ("PropagationAnalysis", "TimelinePoint",
                     "analyze_propagation", "propagation_summary"):
            assert name in analysis.__all__
            assert getattr(analysis, name) is not None

    def test_unknown_attribute_still_raises(self):
        import repro.analysis as analysis

        with pytest.raises(AttributeError, match="no attribute"):
            analysis.does_not_exist


class TestTimeBreakdownBinOrdering:
    def test_bins_numerically_ordered_for_long_campaigns(self):
        """Regression: bin labels used to be fixed-width formatted and
        lexicographically sorted, which scrambles the time axis once
        injection cycles exceed the label width (">1e6-cycle campaigns:
        '[10000000, ...' sorts before '[2000000, ...')."""
        from repro.db import (
            CampaignRecord,
            GoofiDatabase,
            TargetSystemRecord,
            reference_name,
        )

        db = GoofiDatabase(":memory:")
        db.save_target(
            TargetSystemRecord(target_name="t", test_card_name="c", config={})
        )
        db.save_campaign(
            CampaignRecord(campaign_name="camp", target_name="t", config={})
        )
        db.save_experiment(
            ExperimentRecord(
                experiment_name=reference_name("camp"),
                campaign_name="camp",
                experiment_data={"technique": "reference", "workload": "w"},
                state_vector=REFERENCE_STATE,
            )
        )
        cycles = [500_000, 2_000_000, 4_500_000, 7_000_000, 9_900_000, 12_000_000]
        for index, cycle in enumerate(cycles):
            db.save_experiment(experiment(f"e{index}", cycle=cycle))
        breakdown = per_time_breakdown(classify_campaign(db, "camp"), bins=10)
        starts = [int(b.group[1:].split(",")[0]) for b in breakdown]
        assert starts == sorted(starts)
        assert sum(b.total for b in breakdown) == len(cycles)
        # Every label is a plain half-open range with no alignment padding.
        for entry in breakdown:
            assert entry.group == entry.group.replace(" ,", ",")
            start, end = entry.group.strip("[)").split(", ")
            assert int(end) - int(start) > 0
