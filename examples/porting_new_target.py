#!/usr/bin/env python3
"""Porting GOOFI to a new target system (paper §2.2, Figure 3).

"When support for a new target system is added to GOOFI, a new
TargetSystemInterface class must be created.  To do this the programmer
uses the Framework class as a template ... the programmer only needs to
implement the abstract methods used by the fault injection algorithms."

This example does exactly that, self-contained: it defines ACC-8, a toy
accumulator machine that has nothing to do with the built-in Thor
simulator, implements the ``TargetSystemInterface`` template for it,
registers it with the plugin registry by module path, and runs an
unmodified SCIFI campaign against it.  Not a single line of the generic tool changes.

Run with::

    python examples/porting_new_target.py
"""

from __future__ import annotations

from repro import CampaignConfig, GoofiSession, TargetSystemInterface
from repro.core import register_target
from repro.core.errors import TargetError
from repro.core.framework import (
    ObservationSpec,
    Termination,
    TerminationInfo,
)
from repro.core.locations import (
    Location,
    LocationSpace,
    MemoryRegionInfo,
    ScanElementInfo,
)
from repro.core.triggers import ReferenceTrace

# ----------------------------------------------------------------------
# The new target: ACC-8, a 16-bit accumulator machine.
# ----------------------------------------------------------------------


class Acc8Machine:
    """A deliberately tiny system under test: accumulator + PC + 64
    words of memory, five instructions, one output latch."""

    MEMORY_WORDS = 64

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.acc = 0
        self.pc = 0
        self.cycle = 0
        self.halted = False
        self.fault_detected = False
        self.program: list[tuple] = []
        self.memory = [0] * self.MEMORY_WORDS
        self.outputs: list[int] = []
        self.mem_trace: list[tuple[int, str, int]] = []

    def step(self) -> None:
        if self.halted:
            return
        if not 0 <= self.pc < len(self.program):
            # Running off the program is ACC-8's only detection
            # mechanism (a rudimentary program-flow monitor).
            self.fault_detected = True
            self.halted = True
            return
        op, *args = self.program[self.pc]
        self.pc += 1
        if op == "LOAD":
            self.acc = self.memory[args[0] % self.MEMORY_WORDS]
            self.mem_trace.append((self.cycle, "read", args[0]))
        elif op == "ADD":
            self.acc = (self.acc + self.memory[args[0] % self.MEMORY_WORDS]) & 0xFFFF
            self.mem_trace.append((self.cycle, "read", args[0]))
        elif op == "STORE":
            self.memory[args[0] % self.MEMORY_WORDS] = self.acc
            self.mem_trace.append((self.cycle, "write", args[0]))
        elif op == "JNZ":
            if self.acc != 0:
                self.pc = args[0]
        elif op == "OUT":
            self.outputs.append(self.acc)
        elif op == "HALT":
            self.halted = True
        else:  # pragma: no cover - fixed program set
            raise AssertionError(op)
        self.cycle += 1


#: Workload: sum the words at addresses 0..15 (one at a time, counting
#: down with a loop counter at address 16), emit the total.
SUM_LOOP = [
    ("LOAD", 16),       # 0: counter
    ("JNZ", 3),         # 1: while counter != 0
    ("JNZ", 99),        # 2: counter == 0 and acc == 0 -> falls through
    ("LOAD", 17),       # 3: running total
    ("ADD", 18),        # 4: total += data[index]  (self-indexed below)
    ("STORE", 17),      # 5
    ("LOAD", 16),       # 6: counter -= 1 (via ADD of -1 stored at 19)
    ("ADD", 19),        # 7
    ("STORE", 16),      # 8
    ("JNZ", 3),         # 9: loop while counter != 0
    ("LOAD", 17),       # 10
    ("OUT",),           # 11
    ("HALT",),          # 12
]


class Acc8Interface(TargetSystemInterface):
    """The Framework template (Figure 3) filled in for ACC-8."""

    target_name = "acc8"
    test_card_name = "acc8-debug-port"

    def __init__(self) -> None:
        super().__init__()
        self.machine = Acc8Machine()
        self._running = False

    # -- Figure 2 building blocks --------------------------------------
    def init_test_card(self) -> None:
        self.machine.reset()
        self._scan_buffers.clear()
        self._running = False

    def load_workload(self, workload_id: str) -> None:
        if workload_id != "sum_loop":
            raise TargetError(f"acc8 has no workload {workload_id!r}")
        self.machine.reset()
        self.machine.program = list(SUM_LOOP)
        # data[18] is the addend; the "index" is fixed for simplicity,
        # so the sum is counter * data[18] + initial total.
        self.machine.memory[16] = 10  # counter
        self.machine.memory[17] = 0  # total
        self.machine.memory[18] = 7  # addend
        self.machine.memory[19] = (-1) & 0xFFFF  # decrement (mod 2^16)

    def write_memory(self, address: int, words: list[int]) -> None:
        for offset, word in enumerate(words):
            self.machine.memory[(address + offset) % Acc8Machine.MEMORY_WORDS] = (
                word & 0xFFFF
            )

    def read_memory(self, address: int, count: int) -> list[int]:
        return [
            self.machine.memory[(address + i) % Acc8Machine.MEMORY_WORDS]
            for i in range(count)
        ]

    def run_workload(self) -> None:
        self._running = True

    def wait_for_breakpoint(self, cycle: int) -> TerminationInfo | None:
        while self.machine.cycle < cycle and not self.machine.halted:
            self.machine.step()
        if self.machine.halted:
            return self._info()
        return None

    def wait_for_termination(self, termination: Termination) -> TerminationInfo:
        while not self.machine.halted and self.machine.cycle < termination.max_cycles:
            self.machine.step()
        return self._info(timeout=not self.machine.halted)

    def _info(self, timeout: bool = False) -> TerminationInfo:
        if self.machine.fault_detected:
            detection = {
                "mechanism": "program_flow",
                "cycle": self.machine.cycle,
                "pc": self.machine.pc,
                "detail": "pc left the program",
            }
            return TerminationInfo(
                "error_detected", self.machine.cycle, 0, detection
            )
        if timeout:
            return TerminationInfo("timeout", self.machine.cycle, 0)
        return TerminationInfo("workload_end", self.machine.cycle, 0)

    # -- scan-chain access ----------------------------------------------
    # One chain: ACC (16 bits) then PC (8 bits).
    def _scan_read_raw(self, chain: str) -> int:
        if chain != "main":
            raise TargetError(f"acc8 has no chain {chain!r}")
        return (self.machine.acc << 8) | (self.machine.pc & 0xFF)

    def _scan_write_raw(self, chain: str, value: int) -> None:
        self.machine.acc = (value >> 8) & 0xFFFF
        self.machine.pc = value & 0xFF

    def scan_bit_position(self, chain: str, element: str, bit: int) -> int:
        return {"ACC": 8, "PC": 0}[element] + bit

    # -- metadata ---------------------------------------------------------
    def location_space(self) -> LocationSpace:
        return LocationSpace(
            scan_elements=[
                ScanElementInfo("main", "ACC", 16, True),
                ScanElementInfo("main", "PC", 8, True),
            ],
            memory_regions=[
                MemoryRegionInfo("data", 0, Acc8Machine.MEMORY_WORDS, word_bits=16)
            ],
        )

    def available_workloads(self) -> list[str]:
        return ["sum_loop"]

    def describe(self) -> dict:
        return {
            "location_space": self.location_space().to_config(),
            "workloads": self.available_workloads(),
            "techniques": ["scifi"],
            "fault_models": ["transient_bitflip"],
        }

    # -- extension building blocks ----------------------------------------
    def single_step(self, termination: Termination) -> TerminationInfo | None:
        self.machine.step()
        if self.machine.halted:
            return self._info()
        if self.machine.cycle >= termination.max_cycles:
            return self._info(timeout=True)
        return None

    def current_cycle(self) -> int:
        return self.machine.cycle

    def capture_state(self, observation: ObservationSpec) -> dict:
        scan = {}
        for key in observation.scan_elements:
            _chain, _, element = key.partition(":")
            scan[key] = self.machine.acc if element == "ACC" else self.machine.pc
        memory = {}
        for base, count in observation.memory_ranges:
            for i, word in enumerate(self.read_memory(base, count)):
                memory[str(base + i)] = word
        state = {"scan": scan, "memory": memory, "cycle": self.machine.cycle,
                 "iteration": 0, "pc": self.machine.pc}
        if observation.include_outputs:
            state["outputs"] = [[0, 1, v] for v in self.machine.outputs]
        return state

    def record_trace(self, termination: Termination):
        instructions = []
        machine = self.machine
        while not machine.halted and machine.cycle < termination.max_cycles:
            if 0 <= machine.pc < len(machine.program):
                opname = machine.program[machine.pc][0]
            else:
                opname = "?"
            instructions.append((machine.cycle, machine.pc, opname))
            machine.step()
        trace = ReferenceTrace(
            instructions=instructions,
            mem_accesses=list(machine.mem_trace),
            reg_accesses=[],  # ACC-8 skips register-liveness support
            duration=machine.cycle,
        )
        return self._info(timeout=not machine.halted), trace

    def install_fault_overlay(self, location: Location, model, seed: int) -> None:
        raise TargetError("acc8 supports transient faults only")

    def set_environment(self, env) -> None:
        if env is not None:
            raise TargetError("acc8 has no environment-simulator port")


# ----------------------------------------------------------------------
def main() -> None:
    # Register by module path: the registry imports the module on the
    # first create_target("acc8"), so a campaign on another target never
    # compiles this one.  A packaged port names its own module, e.g.
    # "my_board.interface:MyBoardInterface"; this script is __main__.
    register_target("acc8", f"{__name__}:Acc8Interface")

    with GoofiSession(target_name="acc8") as session:
        config = CampaignConfig(
            name="acc8-demo",
            target="acc8",
            technique="scifi",
            workload="sum_loop",
            location_patterns=("main:ACC", "main:PC"),
            num_experiments=200,
            termination=Termination(max_cycles=2000),
            observation=ObservationSpec(
                scan_elements=("main:ACC",),
                memory_ranges=((16, 4),),
            ),
            seed=5,
        )
        session.setup_campaign(config)
        result = session.run_campaign("acc8-demo")
        print(
            f"ported target 'acc8': ran {result.experiments_run} SCIFI "
            f"experiments with the unmodified generic algorithms\n"
        )
        print(session.report("acc8-demo"))


if __name__ == "__main__":
    main()
