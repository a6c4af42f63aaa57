"""Tests for detection-latency analysis."""

from __future__ import annotations

import math

import pytest

from tests.conftest import make_campaign
from repro.analysis import classify_campaign, detection_latencies, format_latency_report
from repro.analysis.classify import ReferenceState
from repro.analysis.latency import (
    LatencySample,
    LatencyStatistics,
    MissingDetectionCycle,
    _latency_of,
)
from repro.core.errors import AnalysisError
from repro.db import (
    CampaignRecord,
    ExperimentRecord,
    GoofiDatabase,
    TargetSystemRecord,
    reference_name,
)


def detected_record(name: str, injected: int, detected: int,
                    mechanism: str = "icache_parity") -> ExperimentRecord:
    return ExperimentRecord(
        experiment_name=name,
        campaign_name="camp",
        experiment_data={
            "technique": "scifi",
            "faults": [
                {
                    "location": {"kind": "scan", "chain": "internal",
                                 "element": "regs.R0", "bit": 0},
                    "trigger": {"trigger": "time", "cycle": injected},
                    "model": {"model": "transient_bitflip"},
                    "injection_cycle": injected,
                    "applied": True,
                }
            ],
        },
        state_vector={
            "termination": {
                "outcome": "error_detected",
                "cycle": detected,
                "iteration": 0,
                "detection": {"mechanism": mechanism, "cycle": detected, "pc": 0},
            },
            "final": {"scan": {}, "memory": {}},
        },
    )


class TestSampleExtraction:
    def test_latency_computed_from_first_applied_fault(self):
        sample = _latency_of(detected_record("e", injected=100, detected=140))
        assert sample.latency == 40
        assert sample.mechanism == "icache_parity"

    def test_non_detected_records_skipped(self):
        record = detected_record("e", 1, 2)
        record.state_vector["termination"]["outcome"] = "workload_end"
        assert _latency_of(record) is None

    def test_unapplied_faults_skipped(self):
        record = detected_record("e", 1, 2)
        record.experiment_data["faults"][0]["applied"] = False
        assert _latency_of(record) is None

    def test_detection_before_injection_rejected(self):
        record = detected_record("e", injected=100, detected=50)
        with pytest.raises(AnalysisError, match="before its injection"):
            _latency_of(record)

    def test_missing_detection_cycle_yields_no_sample(self):
        """A detected record without a detection cycle must not fabricate
        a latency-0 sample from the injection cycle."""
        record = detected_record("e", injected=100, detected=140)
        record.state_vector["termination"]["detection"]["cycle"] = None
        assert _latency_of(record) is None
        with pytest.raises(MissingDetectionCycle, match="no cycle"):
            _latency_of(record, strict=True)


class TestSkippedRecords:
    def store(self, records) -> GoofiDatabase:
        db = GoofiDatabase(":memory:")
        db.save_target(TargetSystemRecord("t", "card", config={}))
        db.save_campaign(CampaignRecord("camp", "t", config={}))
        reference = ExperimentRecord(
            experiment_name=reference_name("camp"),
            campaign_name="camp",
            experiment_data={"technique": "reference"},
            state_vector={
                "termination": {"outcome": "workload_end", "cycle": 200},
                "final": {"scan": {}, "memory": {}},
            },
        )
        db.replace_experiment(reference)
        state = ReferenceState.of(reference.state_vector)
        db.save_experiment_rows([state.row(record) for record in records])
        return db

    def test_skipped_counted_not_sampled(self):
        broken = detected_record("camp/exp_0001", injected=100, detected=140)
        broken.state_vector["termination"]["detection"]["cycle"] = None
        good = detected_record("camp/exp_0002", injected=100, detected=150)
        db = self.store([broken, good])
        statistics = detection_latencies(classify_campaign(db, "camp"))
        assert statistics.count == 1
        assert statistics.samples[0].latency == 50
        assert statistics.skipped == 1
        report = format_latency_report(statistics, "latency:")
        assert "1 detected record(s) skipped" in report

    def test_strict_mode_raises(self):
        broken = detected_record("camp/exp_0001", injected=100, detected=140)
        broken.state_vector["termination"]["detection"]["cycle"] = None
        db = self.store([broken])
        with pytest.raises(MissingDetectionCycle):
            detection_latencies(classify_campaign(db, "camp"), strict=True)


class TestStatistics:
    def make(self) -> LatencyStatistics:
        stats = LatencyStatistics()
        for i, (latency, mechanism) in enumerate(
            [(2, "a"), (4, "a"), (10, "b"), (100, "b")]
        ):
            stats.samples.append(
                LatencySample(f"e{i}", mechanism, 0, latency)
            )
        return stats

    def test_moments(self):
        stats = self.make()
        assert stats.count == 4
        assert stats.mean == pytest.approx(29.0)
        assert stats.median == pytest.approx(7.0)
        assert stats.maximum == 100

    def test_by_mechanism_split(self):
        split = self.make().by_mechanism()
        assert split["a"].count == 2
        assert split["b"].maximum == 100

    def test_histogram_covers_all_samples(self):
        histogram = self.make().histogram(bins=5)
        assert sum(count for _lo, _hi, count in histogram) == 4

    def test_empty_statistics(self):
        stats = LatencyStatistics()
        assert math.isnan(stats.mean)
        assert math.isnan(stats.median)
        assert math.isnan(stats.percentile(95))
        assert math.isnan(stats.maximum)
        assert stats.histogram() == []

    def test_histogram_keeps_float_edges(self):
        """Narrow distributions must not collapse to overlapping
        integer-truncated bin boundaries."""
        stats = LatencyStatistics()
        for i, latency in enumerate([3, 4, 5]):
            stats.samples.append(LatencySample(f"e{i}", "a", 0, latency))
        histogram = stats.histogram(bins=4)
        for low, high, _count in histogram:
            assert isinstance(low, float) and isinstance(high, float)
            assert high > low
        for (_lo, prev_hi, _c), (next_lo, _hi, _c2) in zip(histogram, histogram[1:]):
            assert prev_hi == next_lo  # contiguous, no overlap
        assert sum(count for _lo, _hi, count in histogram) == 3

    def test_empty_report_renders_na(self):
        report = format_latency_report(LatencyStatistics(), "latency:")
        assert "n/a" in report
        assert "nan" not in report


class TestEndToEnd:
    def test_campaign_latencies(self, session):
        """Cache-parity latencies are bounded by the time to the next
        access of the corrupted line — small for a cache-busy loop."""
        make_campaign(
            session,
            "lat",
            workload="bubble_sort",
            locations=("internal:icache.line*.data", "internal:dcache.line*.data"),
            num_experiments=60,
            injection_window=(10, 700),
            seed=29,
        )
        session.run_campaign("lat")
        statistics = detection_latencies(classify_campaign(session.db, "lat"))
        assert statistics.count > 10
        assert 0 <= statistics.median < 500
        report = format_latency_report(statistics, "latency:")
        assert "icache_parity" in report or "dcache_parity" in report
        assert "(all)" in report
