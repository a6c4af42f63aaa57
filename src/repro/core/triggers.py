"""Fault triggers: *when* a fault is injected.

The base tool triggers on points in time (breakpoints "set according to
the points in time when the fault should be injected", obtained "by
analysing the workload code").  The paper's future-extensions list adds
"additional fault triggers such as access of certain data values,
execution of branch instructions or subprogram calls ... or at specific
times determined by a real-time clock" — all implemented here.

Every trigger resolves to a concrete cycle number against the reference
trace recorded during the campaign's fault-free run; the fault-injection
algorithm then arms a time breakpoint for that cycle.  This mirrors the
real tool, which analyses the workload to compute breakpoints before
arming them via the scan chains.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import ConfigurationError
from .locations import KIND_MEMORY, Location

TRIGGER_TIME = "time"
TRIGGER_BREAKPOINT = "breakpoint"
TRIGGER_DATA_ACCESS = "data_access"
TRIGGER_BRANCH = "branch"
TRIGGER_CALL = "call"
TRIGGER_CLOCK = "clock"

#: The access kind :meth:`ReferenceTrace.next_access` reports when no
#: access follows: the run's end.
END = "end"

_REGISTER_PREFIX = "regs.R"
_CYCLE = itemgetter(0)


@dataclass(slots=True)
class ReferenceTrace:
    """Events recorded during the reference (fault-free) run, used to
    resolve triggers and by the pre-injection liveness analysis.

    ``instructions`` holds one ``(cycle, pc, opname)`` tuple per executed
    instruction; ``mem_accesses`` one ``(cycle, kind, address)`` per data
    access, ``kind`` being ``"read"`` or ``"write"``.  Both access lists
    are chronological; an instruction's register reads come before its
    register writes.
    """

    instructions: list[tuple[int, int, str]] = field(default_factory=list)
    mem_accesses: list[tuple[int, str, int]] = field(default_factory=list)
    #: register accesses as (cycle, kind, register-index), kind being
    #: "read" or "write" — the raw material of pre-injection analysis.
    reg_accesses: list[tuple[int, str, int]] = field(default_factory=list)
    duration: int = 0  # total cycles of the reference run

    # Lazily built indices ------------------------------------------------
    _pc_cycles: dict[int, list[int]] | None = None
    _branch_cycles: list[int] | None = None
    _call_cycles: list[int] | None = None
    #: (cycle, kind) accesses per memory address and per ``regs.Rn``.
    _events: dict[int | str, list[tuple[int, str]]] | None = None

    def pc_cycles(self, pc: int) -> list[int]:
        """Cycles at which the instruction at ``pc`` was executed."""
        if self._pc_cycles is None:
            index: dict[int, list[int]] = {}
            for cycle, instr_pc, _ in self.instructions:
                index.setdefault(instr_pc, []).append(cycle)
            self._pc_cycles = index
        return self._pc_cycles.get(pc, [])

    def branch_cycles(self) -> list[int]:
        if self._branch_cycles is None:
            self._branch_cycles = [
                cycle for cycle, _, opname in self.instructions if opname.startswith("B")
            ]
        return self._branch_cycles

    def call_cycles(self) -> list[int]:
        if self._call_cycles is None:
            self._call_cycles = [
                cycle for cycle, _, opname in self.instructions if opname == "CALL"
            ]
        return self._call_cycles

    def events(self, location: Location) -> list[tuple[int, str]] | None:
        """Chronological ``(cycle, kind)`` accesses of the memory word or
        general register holding ``location``.  ``None`` for the scan
        elements whose data flow the trace does not record: every one
        but ``regs.Rn`` (control state, caches and pins act at once)."""
        if self._events is None:
            index: dict[int | str, list[tuple[int, str]]] = {}
            for cycle, kind, address in self.mem_accesses:
                index.setdefault(address, []).append((cycle, kind))
            registers: dict[int, list[tuple[int, str]]] = {}
            for cycle, kind, register in self.reg_accesses:
                registers.setdefault(register, []).append((cycle, kind))
            for register, events in registers.items():
                index[f"{_REGISTER_PREFIX}{register}"] = events
            self._events = index
        if location.kind == KIND_MEMORY:
            return self._events.get(location.address, [])
        if location.element.startswith(_REGISTER_PREFIX):
            return self._events.get(location.element, [])
        return None

    def next_access(self, location: Location, cycle: int) -> tuple[int, str] | None:
        """The first access to ``location`` at or after ``cycle`` (an
        injection at ``cycle`` lands before that cycle's instruction
        executes) as ``(cycle, kind)``; ``(duration, END)`` when none
        follows; ``None`` when the trace cannot reason about the location
        (:meth:`events`).  Reads precede writes at the same cycle, so a
        read-modify-write reports the read."""
        events = self.events(location)
        if events is None:
            return None
        index = bisect_left(events, cycle, key=_CYCLE)
        return events[index] if index < len(events) else (self.duration, END)


def _nth(cycles: list[int], occurrence: int, what: str) -> int:
    if occurrence < 1:
        raise ConfigurationError(f"trigger occurrence must be >= 1, not {occurrence}")
    if occurrence > len(cycles):
        raise ConfigurationError(
            f"trigger asks for occurrence {occurrence} of {what}, "
            f"but the reference run has only {len(cycles)}"
        )
    return cycles[occurrence - 1]


@dataclass(frozen=True, slots=True)
class TimeTrigger:
    """Inject before the instruction executed at ``cycle``."""

    cycle: int

    name = TRIGGER_TIME

    def resolve(self, trace: ReferenceTrace) -> int:
        if not 0 <= self.cycle <= trace.duration:
            raise ConfigurationError(
                f"time trigger cycle {self.cycle} outside reference run "
                f"(duration {trace.duration})"
            )
        return self.cycle

    def to_dict(self) -> dict:
        return {"trigger": self.name, "cycle": self.cycle}


@dataclass(frozen=True, slots=True)
class BreakpointTrigger:
    """Inject at the ``occurrence``-th execution of the instruction at
    ``address`` (a classic code breakpoint)."""

    address: int
    occurrence: int = 1

    name = TRIGGER_BREAKPOINT

    def resolve(self, trace: ReferenceTrace) -> int:
        return _nth(trace.pc_cycles(self.address), self.occurrence, f"pc=0x{self.address:04X}")

    def to_dict(self) -> dict:
        return {"trigger": self.name, "address": self.address, "occurrence": self.occurrence}


@dataclass(frozen=True, slots=True)
class DataAccessTrigger:
    """Inject at the ``occurrence``-th access of a data address."""

    address: int
    access: str = "any"  # "read" | "write" | "any"
    occurrence: int = 1

    name = TRIGGER_DATA_ACCESS

    def __post_init__(self) -> None:
        if self.access not in ("read", "write", "any"):
            raise ConfigurationError(f"bad access kind {self.access!r}")

    def resolve(self, trace: ReferenceTrace) -> int:
        events = trace.events(Location(kind=KIND_MEMORY, address=self.address, bit=0))
        cycles = [cycle for cycle, kind in events if self.access in ("any", kind)]
        return _nth(cycles, self.occurrence, f"{self.access} of 0x{self.address:04X}")

    def to_dict(self) -> dict:
        return {
            "trigger": self.name,
            "address": self.address,
            "access": self.access,
            "occurrence": self.occurrence,
        }


@dataclass(frozen=True, slots=True)
class BranchTrigger:
    """Inject at the ``occurrence``-th executed branch instruction."""

    occurrence: int = 1

    name = TRIGGER_BRANCH

    def resolve(self, trace: ReferenceTrace) -> int:
        return _nth(trace.branch_cycles(), self.occurrence, "branch execution")

    def to_dict(self) -> dict:
        return {"trigger": self.name, "occurrence": self.occurrence}


@dataclass(frozen=True, slots=True)
class CallTrigger:
    """Inject at the ``occurrence``-th subprogram call."""

    occurrence: int = 1

    name = TRIGGER_CALL

    def resolve(self, trace: ReferenceTrace) -> int:
        return _nth(trace.call_cycles(), self.occurrence, "subprogram call")

    def to_dict(self) -> dict:
        return {"trigger": self.name, "occurrence": self.occurrence}


@dataclass(frozen=True, slots=True)
class ClockTrigger:
    """Inject at the ``tick``-th tick of a real-time clock of period
    ``period`` cycles."""

    period: int
    tick: int = 1

    name = TRIGGER_CLOCK

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("clock trigger period must be positive")
        if self.tick < 1:
            raise ConfigurationError("clock trigger tick must be >= 1")

    def resolve(self, trace: ReferenceTrace) -> int:
        cycle = self.period * self.tick
        if cycle > trace.duration:
            raise ConfigurationError(
                f"clock trigger tick {self.tick} (cycle {cycle}) is past the "
                f"reference run duration {trace.duration}"
            )
        return cycle

    def to_dict(self) -> dict:
        return {"trigger": self.name, "period": self.period, "tick": self.tick}


Trigger = (
    TimeTrigger
    | BreakpointTrigger
    | DataAccessTrigger
    | BranchTrigger
    | CallTrigger
    | ClockTrigger
)

_TRIGGER_TYPES = {
    TRIGGER_TIME: TimeTrigger,
    TRIGGER_BREAKPOINT: BreakpointTrigger,
    TRIGGER_DATA_ACCESS: DataAccessTrigger,
    TRIGGER_BRANCH: BranchTrigger,
    TRIGGER_CALL: CallTrigger,
    TRIGGER_CLOCK: ClockTrigger,
}


def trigger_from_dict(data: dict) -> Trigger:
    """Deserialise a trigger stored in campaign/experiment data.

    Malformed payloads — unknown trigger names, unexpected or missing
    keys (hand-written pack YAML, corrupted experiment rows) — raise
    :class:`ConfigurationError` naming the offending payload rather
    than leaking a bare ``TypeError``.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"trigger payload must be a mapping, got {data!r}")
    name = data.get("trigger")
    try:
        trigger_type = _TRIGGER_TYPES[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(_TRIGGER_TYPES))
        raise ConfigurationError(
            f"unknown trigger type {name!r} in payload {data!r}; known: {known}"
        ) from None
    kwargs = {key: value for key, value in data.items() if key != "trigger"}
    expected = {f.name for f in dataclasses.fields(trigger_type)}
    unexpected = sorted(set(kwargs) - expected)
    if unexpected:
        raise ConfigurationError(
            f"{name} trigger does not accept key(s) {', '.join(unexpected)} "
            f"in payload {data!r}; accepted: {', '.join(sorted(expected))}"
        )
    try:
        return trigger_type(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad {name} trigger payload {data!r}: {exc}"
        ) from None


def cycles_in_window(trace: ReferenceTrace, start: int, end: int) -> tuple[int, int]:
    """Clamp an injection-time window to the reference run, returning a
    half-open ``(lo, hi)`` cycle range usable for uniform sampling."""
    lo = max(0, start)
    hi = min(end, trace.duration)
    if lo >= hi:
        raise ConfigurationError(
            f"injection window [{start}, {end}) is empty within a reference "
            f"run of {trace.duration} cycles"
        )
    return lo, hi
