"""Tests for campaign configuration and experiment-plan generation."""

from __future__ import annotations

import pytest

from repro.core.campaign import (
    TECHNIQUE_SCIFI,
    TECHNIQUE_SWIFI_PRERUNTIME,
    TECHNIQUE_SWIFI_RUNTIME,
    TIME_BRANCH,
    TIME_CALL,
    TIME_CLOCK,
    TIME_DATA_ACCESS,
    CampaignConfig,
    PlanGenerator,
    PlannedFault,
    experiment_name,
    merge_campaigns,
)
from repro.core.errors import ConfigurationError
from repro.core.faultmodels import StuckAt
from repro.core.framework import ObservationSpec, Termination
from repro.core.locations import (
    LocationSpace,
    MemoryRegionInfo,
    ScanElementInfo,
)
from repro.core.triggers import (
    BranchTrigger,
    CallTrigger,
    ClockTrigger,
    DataAccessTrigger,
    ReferenceTrace,
    TimeTrigger,
)


def make_config(**overrides) -> CampaignConfig:
    defaults = dict(
        name="camp",
        target="thor-rd-sim",
        technique=TECHNIQUE_SCIFI,
        workload="fibonacci",
        location_patterns=("internal:regs.*",),
        num_experiments=10,
        termination=Termination(max_cycles=1000),
        observation=ObservationSpec(),
        seed=7,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def make_space() -> LocationSpace:
    return LocationSpace(
        scan_elements=[
            ScanElementInfo("internal", "regs.R0", 32, True),
            ScanElementInfo("internal", "regs.R1", 32, True),
            ScanElementInfo("internal", "ctrl.PC", 16, True),
        ],
        memory_regions=[
            MemoryRegionInfo("program", 0, 8),
            MemoryRegionInfo("data", 0x4000, 0x4004),
        ],
    )


def make_trace() -> ReferenceTrace:
    instructions = []
    for cycle in range(100):
        opname = "BEQ" if cycle % 10 == 5 else ("CALL" if cycle % 25 == 20 else "ADD")
        instructions.append((cycle, cycle % 30, opname))
    return ReferenceTrace(
        instructions=instructions,
        mem_accesses=[(c, "read" if c % 2 else "write", 0x4000 + c % 4) for c in range(0, 100, 7)],
        reg_accesses=[(c, "write", c % 3) for c in range(100)],
        duration=100,
    )


class TestConfigValidation:
    def test_positive_experiments_required(self):
        with pytest.raises(ConfigurationError):
            make_config(num_experiments=0)

    def test_positive_flips_required(self):
        with pytest.raises(ConfigurationError):
            make_config(flips_per_experiment=0)

    def test_known_time_strategy_required(self):
        with pytest.raises(ConfigurationError):
            make_config(time_strategy="sometimes")

    def test_known_logging_mode_required(self):
        with pytest.raises(ConfigurationError):
            make_config(logging_mode="verbose")

    def test_location_patterns_required(self):
        with pytest.raises(ConfigurationError):
            make_config(location_patterns=())

    def test_detail_period_positive(self):
        with pytest.raises(ConfigurationError):
            make_config(detail_period=0)

    def test_fault_model_must_be_a_fault_model(self):
        # A name is not enough: it used to fail only later, in to_dict.
        with pytest.raises(ConfigurationError, match="fault_model must be a FaultModel"):
            make_config(fault_model="transient_bitflip")


class TestConfigSerialisation:
    def test_roundtrip_defaults(self):
        config = make_config()
        assert CampaignConfig.from_dict(config.to_dict()) == config

    def test_roundtrip_full(self):
        config = make_config(
            fault_model=StuckAt(1),
            flips_per_experiment=3,
            time_strategy=TIME_CLOCK,
            injection_window=(10, 90),
            clock_period=25,
            logging_mode="detail",
            detail_period=5,
            use_preinjection_analysis=True,
            environment={"name": "dc_motor", "params": {"sensor_addr": 1, "actuator_addr": 2}},
            termination=Termination(max_cycles=5000, max_iterations=50),
        )
        assert CampaignConfig.from_dict(config.to_dict()) == config


class TestPlanGeneration:
    def test_plan_size_and_names(self):
        plan = PlanGenerator(make_config(), make_space(), make_trace()).generate()
        assert len(plan) == 10
        assert plan[0].name == experiment_name("camp", 0)
        assert plan[9].name == "camp/exp00009"

    def test_plan_is_deterministic_per_seed(self):
        config = make_config(seed=99)
        plan_a = PlanGenerator(config, make_space(), make_trace()).generate()
        plan_b = PlanGenerator(config, make_space(), make_trace()).generate()
        assert plan_a == plan_b

    def test_different_seeds_differ(self):
        plan_a = PlanGenerator(make_config(seed=1), make_space(), make_trace()).generate()
        plan_b = PlanGenerator(make_config(seed=2), make_space(), make_trace()).generate()
        assert plan_a != plan_b

    def test_uniform_strategy_yields_time_triggers_in_window(self):
        config = make_config(injection_window=(20, 40), num_experiments=50)
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        for spec in plan:
            trigger = spec.faults[0].trigger
            assert isinstance(trigger, TimeTrigger)
            assert 20 <= trigger.cycle < 40

    def test_multiplicity(self):
        config = make_config(flips_per_experiment=3)
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        assert all(len(spec.faults) == 3 for spec in plan)

    def test_branch_strategy(self):
        config = make_config(time_strategy=TIME_BRANCH, num_experiments=20)
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        trace = make_trace()
        for spec in plan:
            trigger = spec.faults[0].trigger
            assert isinstance(trigger, BranchTrigger)
            # Resolves to a branch cycle.
            assert trigger.resolve(trace) % 10 == 5

    def test_call_strategy(self):
        config = make_config(time_strategy=TIME_CALL, num_experiments=10)
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        trace = make_trace()
        for spec in plan:
            assert isinstance(spec.faults[0].trigger, CallTrigger)
            assert trace.instructions[spec.faults[0].trigger.resolve(trace)][2] == "CALL"

    def test_clock_strategy(self):
        config = make_config(time_strategy=TIME_CLOCK, clock_period=30, num_experiments=20)
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        for spec in plan:
            trigger = spec.faults[0].trigger
            assert isinstance(trigger, ClockTrigger)
            assert trigger.resolve(make_trace()) % 30 == 0

    def test_data_access_strategy_with_memory_selection(self):
        config = make_config(
            technique=TECHNIQUE_SWIFI_RUNTIME,
            location_patterns=("memory:data",),
            time_strategy=TIME_DATA_ACCESS,
            num_experiments=20,
        )
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        trace = make_trace()
        for spec in plan:
            fault = spec.faults[0]
            assert isinstance(fault.trigger, DataAccessTrigger)
            assert fault.location.kind == "memory"
            assert fault.trigger.address == fault.location.address
            fault.trigger.resolve(trace)  # must be resolvable

    def test_data_access_triggers_resolve_inside_the_window(self):
        """A data-access trigger counts only the earlier accesses of its
        own kind, so it resolves to the access it was drawn from: inside
        the injection window, of the trigger's kind, even on a word read
        and written in turn."""
        trace = ReferenceTrace(
            instructions=[(c, c % 30, "ADD") for c in range(40)],
            mem_accesses=[(c, "read" if c % 2 else "write", 0x4000) for c in range(40)],
            duration=40,
        )
        config = make_config(
            technique=TECHNIQUE_SWIFI_RUNTIME,
            location_patterns=("memory:data",),
            time_strategy=TIME_DATA_ACCESS,
            injection_window=(0, 20),
            num_experiments=30,
        )
        for spec in PlanGenerator(config, make_space(), trace).generate():
            trigger = spec.faults[0].trigger
            cycle = trigger.resolve(trace)
            assert 0 <= cycle < 20
            assert (cycle, trigger.access, 0x4000) in trace.mem_accesses

    def test_preruntime_faults_trigger_at_zero(self):
        config = make_config(
            technique=TECHNIQUE_SWIFI_PRERUNTIME,
            location_patterns=("memory:program", "memory:data"),
        )
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        for spec in plan:
            assert spec.faults[0].trigger == TimeTrigger(0)
            assert spec.faults[0].location.kind == "memory"

    def test_planned_fault_roundtrip(self):
        config = make_config()
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        fault = plan[0].faults[0]
        assert PlannedFault.from_dict(fault.to_dict()) == fault

    def test_experiment_seeds_are_distinct(self):
        plan = PlanGenerator(make_config(), make_space(), make_trace()).generate()
        seeds = [spec.seed for spec in plan]
        assert len(set(seeds)) == len(seeds)


class TestAdjacentMultiplicity:
    def test_burst_shares_element_and_trigger(self):
        config = make_config(flips_per_experiment=3, multiplicity_model="adjacent")
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        for spec in plan:
            elements = {f.location.element_key for f in spec.faults}
            triggers = {f.trigger for f in spec.faults}
            assert len(elements) == 1
            assert len(triggers) == 1
            bits = sorted(f.location.bit for f in spec.faults)
            assert len(set(bits)) == 3

    def test_burst_bits_are_adjacent_modulo_width(self):
        config = make_config(flips_per_experiment=2, multiplicity_model="adjacent")
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        for spec in plan:
            b0, b1 = (f.location.bit for f in spec.faults)
            element = spec.faults[0].location.element
            width = 16 if element == "ctrl.PC" else 32
            assert b1 == (b0 + 1) % width

    def test_independent_is_default_and_differs(self):
        adjacent = make_config(
            flips_per_experiment=3, multiplicity_model="adjacent", seed=5
        )
        independent = make_config(flips_per_experiment=3, seed=5)
        plan_a = PlanGenerator(adjacent, make_space(), make_trace()).generate()
        plan_i = PlanGenerator(independent, make_space(), make_trace()).generate()
        assert plan_a != plan_i

    def test_config_roundtrip_with_model(self):
        config = make_config(flips_per_experiment=2, multiplicity_model="adjacent")
        assert CampaignConfig.from_dict(config.to_dict()) == config

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="multiplicity model"):
            make_config(multiplicity_model="diagonal")

    def test_memory_burst_wraps_in_word(self):
        config = make_config(
            technique=TECHNIQUE_SWIFI_PRERUNTIME,
            location_patterns=("memory:data",),
            flips_per_experiment=4,
            multiplicity_model="adjacent",
        )
        plan = PlanGenerator(config, make_space(), make_trace()).generate()
        for spec in plan:
            addresses = {f.location.address for f in spec.faults}
            assert len(addresses) == 1  # one word takes the whole burst


class TestTechniqueLocationValidation:
    def test_scifi_rejects_memory_locations(self):
        config = make_config(location_patterns=("memory:data",))
        with pytest.raises(ConfigurationError, match="SCIFI injects via scan chains"):
            PlanGenerator(config, make_space(), make_trace())

    def test_preruntime_rejects_scan_locations(self):
        config = make_config(
            technique=TECHNIQUE_SWIFI_PRERUNTIME,
            location_patterns=("internal:regs.*",),
        )
        with pytest.raises(ConfigurationError, match="pre-runtime SWIFI"):
            PlanGenerator(config, make_space(), make_trace())

    def test_empty_window_rejected(self):
        config = make_config(injection_window=(500, 600))
        with pytest.raises(ConfigurationError, match="empty"):
            PlanGenerator(config, make_space(), make_trace())


class TestMerge:
    def test_merge_unions_patterns_and_sums_experiments(self):
        a = make_config(name="a", location_patterns=("internal:regs.*",), num_experiments=10)
        b = make_config(name="b", location_patterns=("internal:ctrl.PC",), num_experiments=5)
        merged = merge_campaigns([a, b], "ab")
        assert merged.name == "ab"
        assert merged.location_patterns == ("internal:regs.*", "internal:ctrl.PC")
        assert merged.num_experiments == 15

    def test_merge_deduplicates_patterns(self):
        a = make_config(name="a")
        b = make_config(name="b")
        merged = merge_campaigns([a, b], "ab")
        assert merged.location_patterns == ("internal:regs.*",)

    def test_merge_rejects_mismatched_workloads(self):
        a = make_config(name="a")
        b = make_config(name="b", workload="crc32")
        with pytest.raises(ConfigurationError, match="workload"):
            merge_campaigns([a, b], "ab")

    def test_merge_requires_at_least_one(self):
        with pytest.raises(ConfigurationError):
            merge_campaigns([], "x")

    def test_merge_seed_override(self):
        merged = merge_campaigns([make_config(name="a")], "m", seed=555)
        assert merged.seed == 555


class TestTaskSwitchStrategy:
    def make_switch_trace(self) -> ReferenceTrace:
        # pc 3 is the dispatcher; executed every 10 cycles.
        instructions = []
        for cycle in range(100):
            pc = 3 if cycle % 10 == 0 else (cycle % 30) + 4
            instructions.append((cycle, pc, "ADD"))
        return ReferenceTrace(instructions=instructions, duration=100)

    def test_triggers_land_on_the_dispatcher(self):
        config = make_config(
            time_strategy="task_switch",
            task_switch_address=3,
            num_experiments=20,
        )
        trace = self.make_switch_trace()
        plan = PlanGenerator(config, make_space(), trace).generate()
        for spec in plan:
            cycle = spec.faults[0].trigger.resolve(trace)
            assert cycle % 10 == 0
            assert trace.instructions[cycle][1] == 3

    def test_missing_address_rejected(self):
        with pytest.raises(ConfigurationError, match="task_switch_address"):
            make_config(time_strategy="task_switch")

    def test_no_switches_in_window_rejected(self):
        config = make_config(
            time_strategy="task_switch",
            task_switch_address=99,  # never executed
            num_experiments=5,
        )
        with pytest.raises(ConfigurationError, match="no task switches"):
            PlanGenerator(config, make_space(), self.make_switch_trace()).generate()

    def test_config_roundtrip(self):
        config = make_config(time_strategy="task_switch", task_switch_address=3)
        assert CampaignConfig.from_dict(config.to_dict()) == config


class TestDataAccessRegionResolution:
    """Regression: the data-access strategy took ``word_bits`` from
    ``selection.regions[0]`` regardless of which region the accessed
    address lay in, and happily planned memory faults at addresses
    outside every selected region."""

    @staticmethod
    def make_mixed_trace() -> ReferenceTrace:
        # Accesses alternate between the data region (0x4000..0x4003)
        # and the program region (0x0000..0x0007).
        accesses = []
        for c in range(0, 100, 5):
            addr = 0x4000 + (c % 4) if c % 10 else (c // 10) % 8
            accesses.append((c, "read" if c % 2 else "write", addr))
        return ReferenceTrace(
            instructions=[(c, c % 30, "ADD") for c in range(100)],
            mem_accesses=accesses,
            duration=100,
        )

    def test_fault_address_always_inside_a_selected_region(self):
        config = make_config(
            technique=TECHNIQUE_SWIFI_RUNTIME,
            location_patterns=("memory:data",),
            time_strategy=TIME_DATA_ACCESS,
            num_experiments=40,
        )
        data = make_space().region("data")
        plan = PlanGenerator(config, make_space(), self.make_mixed_trace()).generate()
        for spec in plan:
            fault = spec.faults[0]
            assert data.base <= fault.location.address < data.limit

    def test_word_bits_come_from_the_containing_region(self):
        space = LocationSpace(
            scan_elements=[],
            memory_regions=[
                MemoryRegionInfo("program", 0, 8, word_bits=8),
                MemoryRegionInfo("data", 0x4000, 0x4004, word_bits=32),
            ],
        )
        config = make_config(
            technique=TECHNIQUE_SWIFI_RUNTIME,
            location_patterns=("memory:program", "memory:data"),
            time_strategy=TIME_DATA_ACCESS,
            num_experiments=60,
        )
        plan = PlanGenerator(config, space, self.make_mixed_trace()).generate()
        wide_bits = []
        for spec in plan:
            fault = spec.faults[0]
            region = next(
                r for r in space.memory_regions
                if r.base <= fault.location.address < r.limit
            )
            assert fault.location.bit < region.word_bits
            if region.name == "data":
                wide_bits.append(fault.location.bit)
        # With regions[0].word_bits (8) the data-region faults could
        # never reach the upper 24 bits of the 32-bit words.
        assert any(bit >= 8 for bit in wide_bits)

    def test_falls_back_to_scan_when_no_access_hits_the_selection(self):
        # All accesses land in the program area; only "data" is selected
        # for memory plus the registers via scan.
        trace = ReferenceTrace(
            instructions=[(c, c % 30, "ADD") for c in range(100)],
            mem_accesses=[(c, "read", c % 8) for c in range(0, 100, 5)],
            duration=100,
        )
        config = make_config(
            technique=TECHNIQUE_SWIFI_RUNTIME,
            location_patterns=("internal:regs.*", "memory:data"),
            time_strategy=TIME_DATA_ACCESS,
            num_experiments=10,
        )
        plan = PlanGenerator(config, make_space(), trace).generate()
        for spec in plan:
            assert spec.faults[0].location.kind == "scan"
            assert isinstance(spec.faults[0].trigger, DataAccessTrigger)

    def test_errors_when_memory_only_selection_is_never_accessed(self):
        trace = ReferenceTrace(
            instructions=[(c, c % 30, "ADD") for c in range(100)],
            mem_accesses=[(c, "read", c % 8) for c in range(0, 100, 5)],
            duration=100,
        )
        config = make_config(
            technique=TECHNIQUE_SWIFI_RUNTIME,
            location_patterns=("memory:data",),
            time_strategy=TIME_DATA_ACCESS,
            num_experiments=5,
        )
        with pytest.raises(ConfigurationError, match="selected memory region"):
            PlanGenerator(config, make_space(), trace).generate()
