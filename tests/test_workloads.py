"""Tests for the workload library, control application, and environment
simulators."""

from __future__ import annotations

import copy

import pytest

from repro.targets.thor.cpu import StopReason
from repro.targets.thor.testcard import TerminationCondition, TestCard
from repro.workloads import (
    expected_output,
    is_loop_workload,
    load,
    workload_names,
)
from repro.workloads.control import (
    FIXED_POINT_ONE,
    ControlParameters,
    protected_source,
    unprotected_source,
)
from repro.workloads.envsim import (
    DCMotor,
    WaterTank,
    replay_dc_motor,
    to_signed32,
    to_word32,
)

SELF_TERMINATING = [
    "bubble_sort",
    "matmul",
    "crc32",
    "fibonacci",
    "dotprod",
    "insertion_sort",
    "sieve",
    "adc_filter",
    "task_executive",
]


class TestLibrary:
    def test_all_workloads_listed(self):
        names = workload_names()
        for name in SELF_TERMINATING:
            assert name in names
        assert "control_protected" in names
        assert "control_unprotected" in names

    def test_loop_flag(self):
        assert is_loop_workload("control_protected")
        assert not is_loop_workload("crc32")

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            load("tetris")

    def test_load_caches_assembly(self):
        assert load("crc32") is load("crc32")


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", SELF_TERMINATING)
    def test_workload_produces_expected_result(self, name):
        """Simulator + assembler + workload agree with an independent
        pure-Python computation of the same function."""
        card = TestCard()
        card.init_target()
        card.load_workload(load(name))
        result = card.run(TerminationCondition(max_cycles=500_000))
        assert result.reason is StopReason.HALTED
        values = [v for _c, p, v in card.output_log() if p == 1]
        assert values[-1] == expected_output(name)

    @pytest.mark.parametrize("name", SELF_TERMINATING)
    def test_workloads_are_deterministic(self, name):
        def one_run():
            card = TestCard()
            card.init_target()
            card.load_workload(load(name))
            result = card.run(TerminationCondition(max_cycles=500_000))
            return result.cycle, card.output_log()

        assert one_run() == one_run()

    def test_bubble_sort_leaves_sorted_array(self):
        card = TestCard()
        card.init_target()
        program = load("bubble_sort")
        card.load_workload(program)
        card.run(TerminationCondition(max_cycles=500_000))
        array = card.read_memory(program.symbol("array"), 16)
        assert array == sorted(array)

    def test_matmul_writes_product_matrix(self):
        card = TestCard()
        card.init_target()
        program = load("matmul")
        card.load_workload(program)
        card.run(TerminationCondition(max_cycles=500_000))
        c_matrix = card.read_memory(program.symbol("C"), 16)
        # C[0][0] = row0(A) . col0(B) = 1*17+2*21+3*25+4*29 = 250
        assert c_matrix[0] == 250


def run_control(workload: str, iterations: int = 150) -> tuple[TestCard, DCMotor]:
    card = TestCard()
    card.init_target()
    program = load(workload)
    card.load_workload(program)
    motor = DCMotor(
        sensor_addr=program.symbol("sensor"),
        actuator_addr=program.symbol("actuator"),
    )
    card.env_exchange = lambda c, i: motor.exchange(c, i)
    result = card.run(TerminationCondition(max_cycles=500_000, max_iterations=iterations))
    assert result.reason is StopReason.HALTED
    return card, motor


class TestControlApplication:
    @pytest.mark.parametrize("workload", ["control_unprotected", "control_protected"])
    def test_controller_reaches_setpoint(self, workload):
        _card, motor = run_control(workload)
        final_speed = motor.history[-1][2] / FIXED_POINT_ONE
        assert abs(final_speed - 100.0) < 2.0
        assert not motor.critical_failure

    def test_protected_variant_reports_zero_violations_fault_free(self):
        card, _motor = run_control("control_protected")
        violations = [v for _c, p, v in card.output_log() if p == 2]
        assert violations[-1] == 0

    def test_protected_recovers_from_corrupted_integrator(self):
        """Manually corrupt the integrator mid-run: the protected
        variant's assertions clamp it and the plant stays in the safe
        envelope — the companion study's core claim in miniature."""
        card = TestCard()
        card.init_target()
        program = load("control_protected")
        card.load_workload(program)
        motor = DCMotor(
            sensor_addr=program.symbol("sensor"),
            actuator_addr=program.symbol("actuator"),
        )
        integral = program.symbol("integral")

        def exchange(c, iteration):
            motor.exchange(c, iteration)
            if iteration == 50:
                c.write_memory(integral, [0x40000000])  # huge corruption

        card.env_exchange = exchange
        card.run(TerminationCondition(max_cycles=500_000, max_iterations=150))
        assert not motor.critical_failure
        violations = [v for _c, p, v in card.output_log() if p == 2]
        assert violations[-1] > 0  # assertions fired

    def test_unprotected_fails_from_corrupted_integrator(self):
        card = TestCard()
        card.init_target()
        program = load("control_unprotected")
        card.load_workload(program)
        motor = DCMotor(
            sensor_addr=program.symbol("sensor"),
            actuator_addr=program.symbol("actuator"),
        )
        integral = program.symbol("integral")

        def exchange(c, iteration):
            motor.exchange(c, iteration)
            if iteration == 50:
                # Large enough to saturate the plant, small enough that
                # ki * I does not wrap around 32 bits and mask itself.
                c.write_memory(integral, [0x00400000])

        card.env_exchange = exchange
        card.run(TerminationCondition(max_cycles=500_000, max_iterations=150))
        assert motor.critical_failure

    def test_custom_parameters_change_source(self):
        fast = ControlParameters(setpoint=50 * FIXED_POINT_ONE)
        assert str(50 * FIXED_POINT_ONE) in unprotected_source(fast)
        assert "count_violation" in protected_source()
        assert "count_violation" not in unprotected_source()


class TestEnvironmentSimulators:
    def test_dc_motor_step_response(self):
        motor = DCMotor(sensor_addr=0, actuator_addr=0)
        speeds = [motor.step(100 * FIXED_POINT_ONE) for _ in range(200)]
        # Constant input -> first-order convergence to a fixed point.
        assert abs(speeds[-1] - speeds[-2]) <= 1
        assert speeds[0] < speeds[-1]

    def test_dc_motor_critical_flag(self):
        motor = DCMotor(sensor_addr=0, actuator_addr=0, critical_speed=10 * FIXED_POINT_ONE)
        for _ in range(100):
            motor.step(100 * FIXED_POINT_ONE)
        assert motor.critical_failure

    def test_water_tank_never_negative(self):
        tank = WaterTank(sensor_addr=0, actuator_addr=0, level=0)
        for _ in range(50):
            assert tank.step(-(10 * FIXED_POINT_ONE)) >= 0

    def test_water_tank_overflow_is_critical(self):
        tank = WaterTank(sensor_addr=0, actuator_addr=0, capacity=60 * FIXED_POINT_ONE)
        for _ in range(500):
            tank.step(2**20)
        assert tank.critical_failure

    def test_replay_matches_online_run(self):
        """The offline replay applied to the logged actuator sequence
        reproduces the plant trajectory exactly — the property the
        critical-failure analysis of E6 depends on."""
        _card, motor = run_control("control_protected", iterations=60)
        u_sequence = [u for _i, u, _s in motor.history]
        trajectory, critical = replay_dc_motor(u_sequence)
        assert trajectory == [s for _i, _u, s in motor.history]
        assert critical == motor.critical_failure

    def test_signed_conversion_roundtrip(self):
        assert to_signed32(0xFFFFFFFF) == -1
        assert to_signed32(5) == 5


class FakeIOTarget:
    """Minimal exchange target: a dict of memory words."""

    def __init__(self, initial=None):
        self.mem = dict(initial or {})

    def read_memory(self, address, count=1):
        return [self.mem.get(address + i, 0) for i in range(count)]

    def write_memory(self, address, words):
        if isinstance(words, int):
            words = [words]
        for offset, word in enumerate(words):
            self.mem[address + offset] = word


class TestWaterTankReplay:
    def drive_tank(self, u_sequence, **params):
        from repro.workloads.envsim import to_word32

        tank = WaterTank(sensor_addr=0, actuator_addr=4, **params)
        target = FakeIOTarget()
        for iteration, u in enumerate(u_sequence):
            target.write_memory(4, [to_word32(u)])
            tank.exchange(target, iteration)
        return tank

    def test_replay_matches_online_run(self):
        """Regression: the DC motor had an offline replay but the water
        tank did not, so critical-failure analysis silently could not
        cover water-tank campaigns.  Replaying the logged valve-command
        sequence must reproduce the level trajectory exactly."""
        from repro.workloads import replay_water_tank

        u_sequence = [((-1) ** i) * (i * 1000) for i in range(80)]
        tank = self.drive_tank(u_sequence)
        logged_u = [u for _i, u, _level in tank.history]
        assert logged_u == u_sequence
        trajectory, critical = replay_water_tank(logged_u)
        assert trajectory == [level for _i, _u, level in tank.history]
        assert critical == tank.critical_failure

    def test_replay_reproduces_overflow(self):
        from repro.workloads import replay_water_tank

        capacity = 60 * FIXED_POINT_ONE
        u_sequence = [2**20] * 400
        tank = self.drive_tank(u_sequence, capacity=capacity)
        assert tank.critical_failure
        _trajectory, critical = replay_water_tank(u_sequence, capacity=capacity)
        assert critical

    def test_replay_registry_covers_all_environments(self):
        from repro.core.plugins import registered_environments
        from repro.workloads import REPLAY_FUNCTIONS

        assert set(REPLAY_FUNCTIONS) == set(registered_environments())


class TestEnvironmentFaultInjector:
    def make(self, simulator=None, **kwargs):
        from repro.workloads import EnvFaultConfig, EnvironmentFaultInjector

        simulator = simulator or DCMotor(sensor_addr=0, actuator_addr=4)
        return EnvironmentFaultInjector(simulator, EnvFaultConfig(**kwargs))

    def run_exchanges(self, env, steps=60, u=3000):
        target = FakeIOTarget({4: u})
        for iteration in range(steps):
            env.exchange(target, iteration)
        return target

    def test_zero_probabilities_are_pure_passthrough(self):
        plain_target = FakeIOTarget({4: 3000})
        reference = DCMotor(sensor_addr=0, actuator_addr=4)
        for iteration in range(60):
            reference.exchange(plain_target, iteration)
        wrapped = self.make(seed=99)
        wrapped_target = self.run_exchanges(wrapped)
        assert wrapped_target.mem == plain_target.mem
        assert wrapped.history == reference.history
        assert wrapped.fault_counts == {
            "dropped": 0, "delayed": 0, "corrupted": 0, "partial": 0,
        }

    def test_drop_skips_whole_exchange(self):
        env = self.make(drop_probability=0.5, seed=1)
        self.run_exchanges(env, steps=40)
        assert env.fault_counts["dropped"] > 0
        # The plant only stepped on non-dropped exchanges.
        assert len(env.history) == 40 - env.fault_counts["dropped"]

    def test_delay_delivers_stale_sensor_value(self):
        env = self.make(delay_probability=1.0, seed=5)
        target = FakeIOTarget({0: 0xDEAD, 4: 3000})
        env.exchange(target, 0)
        # First delivery is withheld: the sensor word is untouched.
        assert target.mem[0] == 0xDEAD
        env.exchange(target, 1)
        # Second exchange delivers the *first* exchange's value.  The
        # memory word is the unsigned encoding of the signed reading.
        assert target.mem[0] == to_word32(env.history[0][2])

    def test_corruption_flips_one_bit(self):
        env = self.make(corrupt_probability=1.0, seed=8)
        target = self.run_exchanges(env, steps=1)
        clean = to_word32(env.history[0][2])
        corrupted = target.mem[0]
        assert corrupted != clean
        assert bin(corrupted ^ clean).count("1") == 1

    def test_partial_write_keeps_high_bits(self):
        env = self.make(partial_write_probability=1.0, seed=3)
        target = FakeIOTarget({0: 0xABCD0000, 4: 3000})
        env.exchange(target, 0)
        assert target.mem[0] >> 16 == 0xABCD
        assert target.mem[0] & 0xFFFF == env.history[0][2] & 0xFFFF

    def test_deterministic_per_seed(self):
        a = self.run_exchanges(self.make(corrupt_probability=0.3, seed=6))
        b = self.run_exchanges(self.make(corrupt_probability=0.3, seed=6))
        c = self.run_exchanges(self.make(corrupt_probability=0.3, seed=7))
        assert a.mem == b.mem
        assert a.mem != c.mem

    def test_deepcopy_preserves_rng_stream(self):
        import copy

        env = self.make(corrupt_probability=0.3, seed=12)
        self.run_exchanges(env, steps=10)
        clone = copy.deepcopy(env)
        t1 = self.run_exchanges(env, steps=10)
        t2 = self.run_exchanges(clone, steps=10)
        assert t1.mem == t2.mem
        assert env.fault_counts == clone.fault_counts

    def test_probability_validation(self):
        from repro.workloads import EnvFaultConfig

        # The workloads layer raises plain ValueError (it never imports
        # the core layer); pack validation wraps it in
        # ConfigurationError.
        with pytest.raises(ValueError, match="drop_probability"):
            EnvFaultConfig(drop_probability=1.5)
        with pytest.raises(ValueError, match="partial_bits"):
            EnvFaultConfig(partial_bits=0)
        with pytest.raises(ValueError, match="unknown key"):
            EnvFaultConfig.from_dict({"drop_chance": 0.1})

    def test_config_round_trip(self):
        from repro.workloads import EnvFaultConfig

        config = EnvFaultConfig(
            drop_probability=0.1, corrupt_probability=0.2, seed=9
        )
        assert EnvFaultConfig.from_dict(config.to_dict()) == config

    def test_attribute_forwarding(self):
        env = self.make(seed=1)
        assert env.critical_failure is False
        assert env.history == []
        with pytest.raises(AttributeError):
            env.no_such_attribute


def make_plant(kind: str, program):
    """A plant on ``program``'s sensor/actuator words: a bare DC motor,
    a bare water tank, or a DC motor behind a sensor-corrupting
    environment fault layer (whose RNG stream is part of its state)."""
    from repro.workloads import EnvFaultConfig, EnvironmentFaultInjector

    ports = {
        "sensor_addr": program.symbol("sensor"),
        "actuator_addr": program.symbol("actuator"),
    }
    if kind == "water_tank":
        return WaterTank(**ports)
    if kind == "faulty_dc_motor":
        return EnvironmentFaultInjector(
            DCMotor(**ports), EnvFaultConfig(corrupt_probability=0.3, seed=5)
        )
    return DCMotor(**ports)


class TestPlantSnapshots:
    """Target checkpoints copy the plant: a restored plant starts from
    the snapshot's history and RNG, however the live one moved on."""

    @pytest.mark.parametrize("kind", ["dc_motor", "water_tank", "faulty_dc_motor"])
    def test_restore_twice_from_one_snapshot(self, kind):
        from repro.targets.thor.interface import ThorTargetInterface

        target = ThorTargetInterface()
        target.init_test_card()
        target.load_workload("control_protected")
        target.set_environment(make_plant(kind, load("control_protected")))
        target.run_workload()
        assert target.wait_for_breakpoint(2000) is None
        snapshot = target.save_state()
        prefix = list(target.environment.history)
        assert prefix

        continuations = []
        for _ in range(2):
            assert target.wait_for_breakpoint(4000) is None
            env = target.environment
            assert len(env.history) > len(prefix)
            continuations.append((list(env.history), getattr(env, "fault_counts", None)))
            target.restore_state(snapshot)
            assert target.environment.history == prefix
        # The restored plant (and fault RNG) replays the same future.
        assert continuations[0] == continuations[1]
        if kind == "faulty_dc_motor":
            assert continuations[0][1]["corrupted"] > 0
            # The restored fault RNG continues the snapshot's stream.
            live, saved = (
                copy.deepcopy(env._rng)
                for env in (target.environment, snapshot["environment"])
            )
            assert [live.integers(7) for _ in range(3)] + [live.random()] == [
                saved.integers(7) for _ in range(3)
            ] + [saved.random()]

        # Mutating the live plant never reaches the cached snapshot.
        target.environment.history.append((-1, 0, 0))
        assert snapshot["environment"].history == prefix
        assert target.environment is not snapshot["environment"]
