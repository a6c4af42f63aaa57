"""Tests for the pin-level fault-injection technique (paper §2.1)."""

from __future__ import annotations

import pytest

from tests.conftest import make_campaign
from repro.analysis import classify_campaign
from repro.core.campaign import PlanGenerator, experiment_name
from repro.core.errors import ConfigurationError


def pin_campaign(session, name: str, **overrides):
    return make_campaign(
        session,
        name,
        workload="adc_filter",
        technique="pinlevel",
        locations=("boundary:pins.IN0",),
        num_experiments=overrides.pop("num_experiments", 30),
        **overrides,
    )


class TestValidation:
    def test_memory_locations_rejected(self, session):
        config = make_campaign(
            session, "bad1", technique="pinlevel", locations=("memory:data",)
        )
        with pytest.raises(ConfigurationError, match="pins only"):
            session.run_campaign("bad1")

    def test_internal_chain_rejected(self, session):
        config = make_campaign(
            session, "bad2", technique="pinlevel", locations=("internal:regs.*",)
        )
        with pytest.raises(ConfigurationError, match="boundary"):
            session.run_campaign("bad2")


class TestPinCampaign:
    def test_campaign_completes(self, session):
        pin_campaign(session, "pins")
        result = session.run_campaign("pins")
        assert result.experiments_run == 30
        record = session.db.load_experiment(experiment_name("pins", 0))
        location = record.experiment_data["faults"][0]["location"]
        assert location["chain"] == "boundary"
        assert location["element"] == "pins.IN0"

    def test_input_pin_faults_corrupt_the_sampled_average(self, session):
        """adc_filter averages 64 reads of IN0: a latch flip mid-run
        must often change the emitted result (escaped errors)."""
        pin_campaign(session, "pins", num_experiments=40, seed=17)
        session.run_campaign("pins")
        classification = classify_campaign(session.db, "pins")
        assert classification.escaped > 10

    def test_late_pin_faults_average_away(self, session):
        """A flip in the last few samples shifts the sum by less than
        one LSB of the >>6 average: overwhelmingly non-effective for low
        bits — injection time matters on pins too."""
        pin_campaign(
            session,
            "late",
            num_experiments=20,
            injection_window=(315, 322),  # inside the final samples (run is ~328 cycles)
            seed=18,
        )
        session.run_campaign("late")
        classification = classify_campaign(session.db, "late")
        # low-order bit flips this late cannot move the average;
        # high-order ones still can, so just require a majority.
        assert classification.non_effective + classification.escaped == 20

    def test_boundary_output_pins_are_selectable(self, session):
        make_campaign(
            session,
            "outs",
            workload="adc_filter",
            technique="pinlevel",
            locations=("boundary:pins.OUT*",),
            num_experiments=10,
        )
        result = session.run_campaign("outs")
        assert result.experiments_run == 10

    def test_plan_restricted_to_boundary(self, session):
        config = pin_campaign(session, "plan")
        trace = session.algorithms.make_reference_run(config)
        plan = PlanGenerator(config, session.target.location_space(), trace).generate()
        assert all(f.location.chain == "boundary" for spec in plan for f in spec.faults)
