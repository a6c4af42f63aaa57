"""Property-based tests of experiment-plan generation.

Whatever valid configuration a user writes, the plan generator must
produce faults that are (a) inside the selected location space, (b)
resolvable against the reference trace, (c) serialisable without loss,
and (d) a pure function of the seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.campaign import (
    TECHNIQUE_SCIFI,
    TECHNIQUE_SWIFI_PRERUNTIME,
    CampaignConfig,
    PlanGenerator,
    PlannedFault,
)
from repro.core.framework import ObservationSpec, Termination
from repro.core.locations import (
    LocationSpace,
    MemoryRegionInfo,
    ScanElementInfo,
)
from repro.core.rng import experiment_seeds
from repro.core.triggers import ReferenceTrace

SPACE = LocationSpace(
    scan_elements=[
        ScanElementInfo("internal", "regs.R0", 32, True),
        ScanElementInfo("internal", "regs.R1", 32, True),
        ScanElementInfo("internal", "ctrl.PC", 16, True),
        ScanElementInfo("internal", "ctrl.PSW", 4, True),
        ScanElementInfo("boundary", "pins.IN0", 32, True),
    ],
    memory_regions=[
        MemoryRegionInfo("program", 0, 32),
        MemoryRegionInfo("data", 0x4000, 0x4010),
    ],
)


def make_trace(duration: int) -> ReferenceTrace:
    instructions = []
    for cycle in range(duration):
        opname = "BEQ" if cycle % 7 == 3 else ("CALL" if cycle % 11 == 8 else "ADD")
        instructions.append((cycle, cycle % 32, opname))
    mem = [(c, "read" if c % 2 else "write", 0x4000 + c % 16)
           for c in range(0, duration, 3)]
    regs = [(c, "write" if c % 3 else "read", c % 2) for c in range(duration)]
    return ReferenceTrace(
        instructions=instructions, mem_accesses=mem, reg_accesses=regs,
        duration=duration,
    )


scifi_patterns = st.lists(
    st.sampled_from(
        ["internal:regs.*", "internal:ctrl.*", "internal:regs.R1", "boundary:pins.*"]
    ),
    min_size=1,
    max_size=3,
    unique=True,
)

#: ``task_switch`` draws breakpoint triggers (on the instruction at
#: TASK_SWITCH_PC); ``data_access`` draws data-access triggers.
strategy_names = st.sampled_from(
    ["uniform", "branch", "call", "clock", "data_access", "task_switch"]
)
TASK_SWITCH_PC = 5


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    patterns=scifi_patterns,
    experiments=st.integers(1, 40),
    flips=st.integers(1, 3),
    seed=st.integers(0, 2**31),
    duration=st.integers(50, 400),
    strategy=strategy_names,
    preinjection=st.booleans(),
)
def test_property_scifi_plans_are_valid(
    patterns, experiments, flips, seed, duration, strategy, preinjection
):
    config = CampaignConfig(
        name="prop",
        target="t",
        technique=TECHNIQUE_SCIFI,
        workload="w",
        location_patterns=tuple(patterns),
        num_experiments=experiments,
        termination=Termination(max_cycles=duration * 4),
        observation=ObservationSpec(),
        flips_per_experiment=flips,
        time_strategy=strategy,
        clock_period=max(10, duration // 5),
        task_switch_address=TASK_SWITCH_PC if strategy == "task_switch" else None,
        seed=seed,
        use_preinjection_analysis=preinjection and strategy == "uniform",
    )
    trace = make_trace(duration)
    generator = PlanGenerator(config, SPACE, trace)
    plan = generator.generate()

    assert len(plan) == experiments
    selected_keys = {e.key for e in generator.selection.elements}
    for spec in plan:
        assert len(spec.faults) == flips
        for fault in spec.faults:
            # (a) location inside the selection
            assert fault.location.element_key in selected_keys
            element = SPACE.element(fault.location.chain, fault.location.element)
            assert 0 <= fault.location.bit < element.width
            # (b) trigger resolvable inside the run
            cycle = fault.trigger.resolve(trace)
            assert 0 <= cycle <= trace.duration
            # (c) serialisation roundtrip
            assert PlannedFault.from_dict(fault.to_dict()) == fault

    # (d) determinism
    plan_again = PlanGenerator(config, SPACE, make_trace(duration)).generate()
    assert plan == plan_again


@settings(max_examples=40, deadline=None)
@given(
    experiments=st.integers(1, 40),
    seed=st.integers(0, 2**31),
    duration=st.integers(20, 200),
)
def test_property_preruntime_plans_stay_in_memory(experiments, seed, duration):
    config = CampaignConfig(
        name="prop",
        target="t",
        technique=TECHNIQUE_SWIFI_PRERUNTIME,
        workload="w",
        location_patterns=("memory:program", "memory:data"),
        num_experiments=experiments,
        termination=Termination(max_cycles=duration * 4),
        observation=ObservationSpec(),
        seed=seed,
    )
    plan = PlanGenerator(config, SPACE, make_trace(duration)).generate()
    for spec in plan:
        for fault in spec.faults:
            assert fault.location.kind == "memory"
            assert (0 <= fault.location.address < 32
                    or 0x4000 <= fault.location.address < 0x4010)
            assert fault.trigger.resolve(make_trace(duration)) == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), duration=st.integers(50, 300))
def test_property_different_seeds_usually_differ(seed, duration):
    def plan_for(s: int):
        config = CampaignConfig(
            name="prop", target="t", technique=TECHNIQUE_SCIFI, workload="w",
            location_patterns=("internal:regs.*",), num_experiments=20,
            termination=Termination(max_cycles=duration * 4),
            observation=ObservationSpec(), seed=s,
        )
        return PlanGenerator(config, SPACE, make_trace(duration)).generate()

    assert plan_for(seed) != plan_for(seed + 1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**70), count=st.integers(0, 40))
@example(seed=2**32 - 1, count=3)
@example(seed=2**32, count=3)
@example(seed=2**64 - 1, count=3)
@example(seed=2**64, count=3)
@example(seed=2**70, count=3)
def test_property_experiment_seeds_match_seed_sequence(seed, count):
    """The vectorised per-experiment seeds are numpy's SeedSequence
    values, bit for bit (rows log them), across the word boundaries of
    the seed's 32-bit entropy words."""
    assert experiment_seeds(seed, count) == [
        int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        for index in range(count)
    ]


def test_negative_seed_rejected_by_generate():
    config = CampaignConfig(
        name="prop", target="t", technique=TECHNIQUE_SCIFI, workload="w",
        location_patterns=("internal:regs.*",), num_experiments=3,
        termination=Termination(max_cycles=200),
        observation=ObservationSpec(), seed=-1,
    )
    with pytest.raises(ValueError):
        PlanGenerator(config, SPACE, make_trace(50)).generate()
    with pytest.raises(ValueError):
        experiment_seeds(-1, 3)
