"""The target contract as one property, on both simulated targets.

GOOFI's premise is that every injected fault ends as a logged outcome:
detected, escaped, latent or overwritten — never as a crash of the
injector.  The property draws the workload, the technique, a location
from the whole location space (every writable scan element and memory
region), the bit, the trigger cycle and the fault model, keeps each
technique to the locations its documented contract accepts, and runs
the result as a one-experiment campaign through the whole pipeline
(reference run, experiment body, database row).

A crash the property finds gets a named case in this module.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.campaign import (
    CampaignConfig,
    ExperimentSpec,
    PlanGenerator,
    PlannedFault,
    experiment_name,
)
from repro.core.faultmodels import IntermittentBitFlip, StuckAt, TransientBitFlip
from repro.core.framework import (
    OUTCOME_DETECTED,
    OUTCOME_TIMEOUT,
    OUTCOME_WORKLOAD_END,
    ObservationSpec,
    Termination,
)
from repro.core.locations import KIND_MEMORY, KIND_SCAN, Location
from repro.core.plugins import create_target
from repro.core.triggers import TimeTrigger
from repro.session import GoofiSession
from repro.workloads import load

TARGETS = ("thor-rd-sim", "thor-sm")
TECHNIQUES = ("scifi", "pinlevel", "swifi_preruntime", "swifi_runtime")
#: ``max_iterations`` ends the control loops; the other workloads halt.
TERMINATION = Termination(max_cycles=20_000, max_iterations=8)
OUTCOMES = {OUTCOME_WORKLOAD_END, OUTCOME_DETECTED, OUTCOME_TIMEOUT}


def accepts(technique: str, location: Location) -> bool:
    """The locations each technique documents that it reaches."""
    if technique == "scifi":
        return location.kind == KIND_SCAN
    if technique == "pinlevel":
        return location.kind == KIND_SCAN and location.chain == "boundary"
    if technique == "swifi_preruntime":
        return location.kind == KIND_MEMORY
    return location.kind == KIND_MEMORY or location.element.startswith("regs.")


def injectable(target_name: str, workload: str) -> list[tuple[str, Location, int]]:
    """Every writable scan element and memory word of ``workload``'s
    location space, as ``(pattern, location at bit 0, width)``."""
    target = create_target(target_name)
    target.init_test_card()
    target.load_workload(workload)
    space = target.location_space()
    entries = [
        (f"{e.chain}:{e.name}",
         Location(kind=KIND_SCAN, chain=e.chain, element=e.name, bit=0), e.width)
        for e in space.scan_elements
        if e.writable
    ]
    entries += [
        (f"memory:{r.name}", Location(kind=KIND_MEMORY, address=address, bit=0),
         r.word_bits)
        for r in space.memory_regions
        for address in range(r.base, r.limit)
    ]
    return entries


models = st.one_of(
    st.just(TransientBitFlip()),
    st.builds(StuckAt, st.sampled_from((0, 1))),
    st.builds(
        IntermittentBitFlip,
        duration=st.integers(1, 3_000),
        activity=st.floats(0.0, 1.0, exclude_min=True),
    ),
)


def environment(workload: str) -> dict | None:
    """The plant the control workloads exchange data with."""
    if not workload.startswith("control_"):
        return None
    program = load(workload)
    return {
        "name": "dc_motor",
        "params": {
            "sensor_addr": program.symbol("sensor"),
            "actuator_addr": program.symbol("actuator"),
        },
    }


def run_one_experiment(target_name, workload, technique, pattern, location,
                       cycle, model, seed):
    """Run the fault as a one-experiment campaign; return its row."""
    with GoofiSession(target_name=target_name) as session:
        config = CampaignConfig(
            name="contract",
            target=target_name,
            technique=technique,
            workload=workload,
            location_patterns=(pattern,),
            num_experiments=1,
            termination=TERMINATION,
            observation=ObservationSpec(
                memory_ranges=((location.address, 1),)
                if location.kind == KIND_MEMORY else ()
            ),
            fault_model=model,
            seed=1,
            environment=environment(workload),
        )
        session.setup_campaign(config)

        def plan(generator: PlanGenerator) -> list[ExperimentSpec]:
            at = 0 if technique == "swifi_preruntime" else cycle % (
                generator.trace.duration + 1
            )
            fault = PlannedFault(location, TimeTrigger(at), model)
            return [ExperimentSpec(experiment_name("contract", 0), 0, (fault,), seed)]

        with mock.patch.object(PlanGenerator, "generate", plan):
            result = session.run_campaign("contract")
        assert result.experiments_run == 1
        rows = [
            record for record in session.db.iter_experiments("contract")
            if record.experiment_data.get("technique") != "reference"
        ]
    assert len(rows) == 1
    return rows[0]


@pytest.mark.parametrize("target_name", TARGETS)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_accepted_fault_logs_a_terminated_row(target_name, data):
    workloads = create_target(target_name).available_workloads()
    workload = data.draw(st.sampled_from(workloads), label="workload")
    space = injectable(target_name, workload)
    technique = data.draw(
        st.sampled_from(
            [t for t in TECHNIQUES if any(accepts(t, entry[1]) for entry in space)]
        ),
        label="technique",
    )
    pattern, location, width = data.draw(
        st.sampled_from([entry for entry in space if accepts(technique, entry[1])]),
        label="location",
    )
    bit = data.draw(st.integers(0, width - 1), label="bit")
    cycle = data.draw(st.integers(0, 2_000), label="cycle")
    model = data.draw(models, label="model")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    row = run_one_experiment(
        target_name, workload, technique, pattern,
        Location(kind=location.kind, chain=location.chain, element=location.element,
                 address=location.address, bit=bit),
        cycle, model, seed,
    )
    assert row.termination.get("outcome") in OUTCOMES
    if location.kind == KIND_MEMORY and isinstance(model, StuckAt):
        # A stuck-at memory fault holds its bit to the end of the run.
        word = row.state_vector["final"]["memory"][str(location.address)]
        assert word >> bit & 1 == model.value


@pytest.mark.parametrize("technique", ["swifi_preruntime", "swifi_runtime"])
def test_memory_stuck_at_holds_against_plant_writes(technique):
    """The plant writes the sensor word at every ITER boundary, the last
    time after the final instruction: the stuck bit stays forced."""
    address = load("control_protected").symbol("sensor")
    for value in (0, 1):
        row = run_one_experiment(
            "thor-rd-sim", "control_protected", technique, "memory:data",
            Location(kind=KIND_MEMORY, address=address, bit=0), 500, StuckAt(value), 3,
        )
        assert row.state_vector["final"]["memory"][str(address)] & 1 == value


def never_written_words(workload: str) -> list[int]:
    """Data words of ``workload`` that neither its program (per the
    reference trace) nor its plant writes."""
    with GoofiSession(target_name="thor-rd-sim") as session:
        target = session.target
        target.init_test_card()
        target.set_environment(None)
        target.load_workload(workload)
        _, trace = target.record_trace(TERMINATION)
        regions = target.location_space().memory_regions
    written = {address for _, kind, address in trace.mem_accesses if kind == "write"}
    plant = environment(workload)
    if plant is not None:
        written.add(plant["params"]["sensor_addr"])
    return [
        address
        for region in regions
        if region.name != "program"
        for address in range(region.base, region.limit)
        if address not in written
    ]


def assert_stuck_at_matches_flip(workload: str, address: int, bit: int, cycle: int):
    """A runtime stuck-at to the flipped value of a never-written word
    logs what a transient flip of that bit at the same cycle logs."""
    program = load(workload)
    value = program.data[address - program.data_base] >> bit & 1
    location = Location(kind=KIND_MEMORY, address=address, bit=bit)
    rows = [
        run_one_experiment("thor-rd-sim", workload, "swifi_runtime", "memory:data",
                           location, cycle, model, 1)
        for model in (TransientBitFlip(), StuckAt(1 - value))
    ]
    flip, stuck = (row.state_vector for row in rows)
    assert stuck["final"].get("outputs") == flip["final"].get("outputs")
    assert stuck == flip


def test_memory_stuck_at_sees_the_cached_copy():
    """``matmul``'s input word 0x4001 sits in the data cache from its
    first read (cycle 32) on: a stuck-at installed at cycle 33 must
    reach the CPU's next reads of it, as the flip does."""
    assert 0x4001 in never_written_words("matmul")
    assert_stuck_at_matches_flip("matmul", 0x4001, 4, 33)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_memory_stuck_at_on_a_never_written_word_matches_a_flip(data):
    workload = data.draw(
        st.sampled_from(create_target("thor-rd-sim").available_workloads()),
        label="workload",
    )
    words = never_written_words(workload)
    if not words:
        return
    address = data.draw(st.sampled_from(words), label="address")
    bit = data.draw(st.integers(0, 31), label="bit")
    cycle = data.draw(st.integers(0, 2_000), label="cycle")
    assert_stuck_at_matches_flip(workload, address, bit, cycle)
