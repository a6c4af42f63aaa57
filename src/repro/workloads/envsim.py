"""Environment simulators (paper Figure 1, §3.2).

"During each loop iteration, data may be exchanged with a user provided
environment simulator emulating the target system environment" — the
user names the simulator program and "the memory locations holding
output and input data within the target system as well as the points in
time the data exchange occurs, e.g. when each loop iteration finishes".

An environment simulator is any object with an
``exchange(target, iteration)`` method; ``target`` offers
``read_memory(address, count)`` and ``write_memory(address, words)``.
At every ITER boundary the test card invokes the exchange: the simulator
reads the workload's *output* location (the actuator command), advances
its physical model, and writes the workload's *input* location (the
sensor reading).

Two plant models are provided — a DC motor (speed control, the shape of
the companion control study) and a water tank (level control).  Both
use the same 8-bit fixed-point scaling as the control workloads and are
exactly reproducible offline from a logged actuator sequence, which is
how the analysis layer decides whether a faulty run violated the safety
envelope (a *critical failure*).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..pcg64 import PCG64
from .control import FIXED_POINT_ONE

_WORD_MASK = 0xFFFFFFFF


def to_signed32(value: int) -> int:
    value &= _WORD_MASK
    return value - 0x100000000 if value & 0x80000000 else value


def to_word32(value: int) -> int:
    return int(value) & _WORD_MASK


def _copy_plant(plant, memo: dict):
    """``__deepcopy__`` of a plant model: the scalars plus a new history
    list.  The history tuples hold only ints, so sharing them is as deep
    as a copy needs to be, and a checkpoint snapshot costs one list copy
    instead of a ``deepcopy`` recursion per logged exchange."""
    clone = replace(plant, history=list(plant.history))
    memo[id(plant)] = clone
    return clone


@dataclass(slots=True)
class DCMotor:
    """First-order DC-motor speed model.

    ``speed' = decay * speed + gain * u - load`` per exchange, in
    fixed-point (scaled by 256).  ``decay``/``gain`` are expressed as
    numerators over 256 so the offline replay is exact integer
    arithmetic.  ``critical_speed`` defines the safety envelope used by
    the critical-failure analysis.
    """

    sensor_addr: int
    actuator_addr: int
    decay: int = 230  # speed retention per step (230/256 ~ 0.9)
    gain: int = 32  # actuator effectiveness (32/256)
    load: int = 2 * FIXED_POINT_ONE  # constant load torque
    critical_speed: int = 350 * FIXED_POINT_ONE
    speed: int = 0
    #: (iteration, u, speed) per exchange, for tests and benches.
    history: list[tuple[int, int, int]] = field(default_factory=list)
    critical_failure: bool = False

    def step(self, u: int) -> int:
        """Advance the plant one step with actuator command ``u`` and
        return the new speed (both fixed-point signed)."""
        self.speed = (self.decay * self.speed + self.gain * u) // 256 - self.load
        if abs(self.speed) > self.critical_speed:
            self.critical_failure = True
        return self.speed

    def exchange(self, target, iteration: int) -> None:
        u = to_signed32(target.read_memory(self.actuator_addr, 1)[0])
        speed = self.step(u)
        target.write_memory(self.sensor_addr, [to_word32(speed)])
        self.history.append((iteration, u, speed))

    __deepcopy__ = _copy_plant


@dataclass(slots=True)
class WaterTank:
    """Integrating water-tank level model: ``level' = level + inflow(u)
    - outflow(level)``, clamped at empty; overflow above ``capacity`` is
    the critical failure."""

    sensor_addr: int
    actuator_addr: int
    inflow_gain: int = 16  # per-256 of the valve command
    outflow_rate: int = 8  # per-256 of the current level
    capacity: int = 300 * FIXED_POINT_ONE
    level: int = 50 * FIXED_POINT_ONE
    history: list[tuple[int, int, int]] = field(default_factory=list)
    critical_failure: bool = False

    def step(self, u: int) -> int:
        inflow = (self.inflow_gain * max(0, u)) // 256
        outflow = (self.outflow_rate * self.level) // 256
        self.level = max(0, self.level + inflow - outflow)
        if self.level > self.capacity:
            self.critical_failure = True
        return self.level

    def exchange(self, target, iteration: int) -> None:
        u = to_signed32(target.read_memory(self.actuator_addr, 1)[0])
        level = self.step(u)
        target.write_memory(self.sensor_addr, [to_word32(level)])
        self.history.append((iteration, u, level))

    __deepcopy__ = _copy_plant


def replay_dc_motor(u_sequence: list[int], **params) -> tuple[list[int], bool]:
    """Offline replay of the DC-motor model over a logged actuator
    sequence.  Returns the speed trajectory and whether the safety
    envelope was violated — the critical-failure criterion of the
    control-application experiments (E6)."""
    motor = DCMotor(sensor_addr=0, actuator_addr=0, **params)
    trajectory = [motor.step(to_signed32(u)) for u in u_sequence]
    return trajectory, motor.critical_failure


def replay_water_tank(u_sequence: list[int], **params) -> tuple[list[int], bool]:
    """Offline replay of the water-tank model over a logged valve-command
    sequence — the water-tank counterpart of :func:`replay_dc_motor`, so
    critical-failure (overflow) analysis works for both plants.  Returns
    the level trajectory and whether the tank overflowed."""
    tank = WaterTank(sensor_addr=0, actuator_addr=0, **params)
    trajectory = [tank.step(to_signed32(u)) for u in u_sequence]
    return trajectory, tank.critical_failure


#: Offline replay function per registered plant model, keyed by the
#: environment-simulator name stored in campaign configurations.  The
#: analysis layer (and ``goofi gate``) looks the plant up here instead
#: of hard-coding one model.
REPLAY_FUNCTIONS = {
    "dc_motor": replay_dc_motor,
    "water_tank": replay_water_tank,
}


# ----------------------------------------------------------------------
# Environment-boundary fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class EnvFaultConfig:
    """Fault layer at the environment-exchange boundary.

    Each knob is an independent per-exchange (or per-write) probability
    in ``[0, 1]``; all default to 0, making the wrapper a transparent
    pass-through.  ``seed`` drives a dedicated RNG stream, so enabled
    faults are deterministic per experiment regardless of worker count
    (the simulator — wrapper included — is recreated per experiment).

    * ``drop_probability`` — the whole exchange is skipped: the plant
      does not step and the sensor is not refreshed (a lost I/O
      transaction).
    * ``delay_probability`` — the exchange runs, but the sensor write
      delivers the *previous* exchange's value (one-exchange-stale
      data); the fresh value is held for the next delivery.
    * ``corrupt_probability`` — one random bit of each written sensor
      word is inverted (sensor-value corruption).
    * ``partial_write_probability`` — only the low ``partial_bits`` bits
      of each written word land; the high bits keep the old memory
      contents (a torn/partial write).
    """

    drop_probability: float = 0.0
    delay_probability: float = 0.0
    corrupt_probability: float = 0.0
    partial_write_probability: float = 0.0
    partial_bits: int = 16
    word_bits: int = 32
    seed: int = 1

    def __post_init__(self) -> None:
        # The workloads layer never imports the core layer, so invalid
        # values raise ValueError; repro.core.packs re-wraps it as a
        # ConfigurationError for pack validation.
        for name in (
            "drop_probability",
            "delay_probability",
            "corrupt_probability",
            "partial_write_probability",
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
                raise ValueError(
                    f"environment fault {name} must be in [0, 1], not {value!r}"
                )
        if not 0 < self.partial_bits < self.word_bits:
            raise ValueError(
                f"partial_bits must be in (0, {self.word_bits}), "
                f"not {self.partial_bits!r}"
            )

    def to_dict(self) -> dict:
        return {
            "drop_probability": self.drop_probability,
            "delay_probability": self.delay_probability,
            "corrupt_probability": self.corrupt_probability,
            "partial_write_probability": self.partial_write_probability,
            "partial_bits": self.partial_bits,
            "word_bits": self.word_bits,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnvFaultConfig":
        if not isinstance(data, dict):
            raise ValueError(
                f"environment faults payload must be a mapping, got {data!r}"
            )
        known = {
            "drop_probability",
            "delay_probability",
            "corrupt_probability",
            "partial_write_probability",
            "partial_bits",
            "word_bits",
            "seed",
        }
        unexpected = sorted(set(data) - known)
        if unexpected:
            raise ValueError(
                f"environment faults payload {data!r} has unknown key(s) "
                f"{', '.join(unexpected)}; accepted: {', '.join(sorted(known))}"
            )
        return cls(
            drop_probability=float(data.get("drop_probability", 0.0)),
            delay_probability=float(data.get("delay_probability", 0.0)),
            corrupt_probability=float(data.get("corrupt_probability", 0.0)),
            partial_write_probability=float(
                data.get("partial_write_probability", 0.0)
            ),
            partial_bits=int(data.get("partial_bits", 16)),
            word_bits=int(data.get("word_bits", 32)),
            seed=int(data.get("seed", 1)),
        )


class _FaultyIO:
    """Target proxy handed to the wrapped simulator for one exchange:
    reads pass through untouched, writes are filtered through the fault
    layer.  Anything else the simulator touches is forwarded."""

    __slots__ = ("_target", "_injector")

    def __init__(self, target, injector: "EnvironmentFaultInjector") -> None:
        self._target = target
        self._injector = injector

    def read_memory(self, address: int, count: int = 1) -> list[int]:
        return self._target.read_memory(address, count)

    def write_memory(self, address: int, words) -> None:
        self._injector._filtered_write(self._target, address, words)

    def __getattr__(self, name: str):
        if name in _FaultyIO.__slots__:
            raise AttributeError(name)
        return getattr(self._target, name)


class EnvironmentFaultInjector:
    """Fault-capable wrapper around any environment simulator.

    Wraps an object with ``exchange(target, iteration)`` and injects
    faults at the exchange boundary per :class:`EnvFaultConfig`.  With
    every probability at 0 the wrapper is a pure pass-through: the inner
    simulator sees the same reads and performs the same writes, so
    campaign rows are bit-identical to an unwrapped run.  Composes with
    scan-chain faults (it never touches scan state) and is deep-copyable
    (checkpoint save/restore snapshots the RNG stream along with the
    plant).

    Unknown attributes forward to the wrapped simulator, so analysis
    code reading ``history`` or ``critical_failure`` keeps working.
    """

    def __init__(self, simulator, config: EnvFaultConfig) -> None:
        self.simulator = simulator
        self.config = config
        self._rng = PCG64(config.seed)
        #: Per-address held-back words for delayed deliveries.
        self._held: dict[int, list[int]] = {}
        #: Injected-fault counters, for tests and reports.
        self.fault_counts = {
            "dropped": 0,
            "delayed": 0,
            "corrupted": 0,
            "partial": 0,
        }

    def __getattr__(self, name: str):
        # Guard against recursion during deepcopy/unpickling, which
        # probes attributes before __init__ has populated __dict__.
        if name.startswith("_") or "simulator" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.simulator, name)

    # ------------------------------------------------------------------
    def exchange(self, target, iteration: int) -> None:
        config = self.config
        if config.drop_probability > 0.0 and (
            self._rng.random() < config.drop_probability
        ):
            self.fault_counts["dropped"] += 1
            return
        self.simulator.exchange(_FaultyIO(target, self), iteration)

    # ------------------------------------------------------------------
    def _filtered_write(self, target, address: int, words) -> None:
        config = self.config
        if isinstance(words, int):
            words = [words]
        words = list(words)
        if config.delay_probability > 0.0 and (
            self._rng.random() < config.delay_probability
        ):
            held = self._held.get(address)
            self._held[address] = words
            self.fault_counts["delayed"] += 1
            if held is None:
                return  # nothing staged yet: the first delivery is lost
            words = held
        elif address in self._held:
            # Normal delivery flushes any staged value first: the stale
            # word arrives one exchange late, then freshness recovers.
            words = self._held.pop(address)
        if config.corrupt_probability > 0.0:
            corrupted = []
            for word in words:
                if self._rng.random() < config.corrupt_probability:
                    bit = self._rng.integers(config.word_bits)
                    word = int(word) ^ (1 << bit)
                    self.fault_counts["corrupted"] += 1
                corrupted.append(word)
            words = corrupted
        if config.partial_write_probability > 0.0:
            low_mask = (1 << config.partial_bits) - 1
            partial = []
            for offset, word in enumerate(words):
                if self._rng.random() < config.partial_write_probability:
                    old = target.read_memory(address + offset, 1)[0]
                    word = (int(old) & ~low_mask) | (int(word) & low_mask)
                    self.fault_counts["partial"] += 1
                partial.append(word)
            words = partial
        target.write_memory(address, words)


def wrap_environment(simulator, faults: dict | EnvFaultConfig | None):
    """Wrap ``simulator`` in an :class:`EnvironmentFaultInjector` when a
    fault configuration is given; pass it through untouched otherwise.
    The campaign engines call this with the ``faults`` sub-dict of the
    campaign's ``environment`` configuration."""
    if faults is None:
        return simulator
    if not isinstance(faults, EnvFaultConfig):
        faults = EnvFaultConfig.from_dict(faults)
    return EnvironmentFaultInjector(simulator, faults)
