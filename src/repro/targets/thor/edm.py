"""Error-detection mechanisms (EDMs) of the THOR-RD-sim target.

The analysis phase of the paper classifies *detected errors* "by each of
the various mechanisms" of the target.  This module enumerates those
mechanisms for the simulated target and defines the detection event the
CPU raises when one fires.

Mechanisms modelled (and where they fire):

``ICACHE_PARITY`` / ``DCACHE_PARITY``
    Parity mismatch on a cache-line read (the Thor RD's parity-protected
    caches).
``ILLEGAL_OPCODE``
    The fetched word's opcode field is undefined.
``MEM_VIOLATION``
    The memory-protection unit refused an access (out of range, runtime
    write into the program area, instruction fetch outside it).
``ARITHMETIC``
    Division or modulo by zero.
``OVERFLOW``
    Signed overflow trap on ADD/SUB/MUL, when the target configuration
    enables it (off by default; real Thor software enables comparable
    checks selectively).
``SOFTWARE_TRAP``
    The workload executed a TRAP instruction — the hook used by
    executable assertions to signal a detected error to the host.
``STACK``
    Stack overflow/underflow detected on PUSH/POP/CALL/RET (stack
    pointer left the data area).
``REG_PARITY``
    Optional register-file parity (off by default): each CPU write to a
    register updates a parity bit; each read checks it.  A value that
    changed *without* a CPU write — a scan-chain injection, a stuck-at
    or intermittent overlay — is caught on its next use.  Enabling it is
    the EDM-ablation experiment's knob.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Mechanism(enum.Enum):
    """The error-detection mechanisms of the simulated target."""

    ICACHE_PARITY = "icache_parity"
    DCACHE_PARITY = "dcache_parity"
    ILLEGAL_OPCODE = "illegal_opcode"
    MEM_VIOLATION = "mem_violation"
    ARITHMETIC = "arithmetic"
    OVERFLOW = "overflow"
    SOFTWARE_TRAP = "software_trap"
    STACK = "stack"
    REG_PARITY = "reg_parity"


@dataclass(frozen=True, slots=True)
class DetectionEvent:
    """A single EDM firing.

    Stored (serialised) in the ``LoggedSystemState`` table so the
    analysis phase can break down detected errors per mechanism.
    """

    mechanism: Mechanism
    cycle: int
    pc: int
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "mechanism": self.mechanism.value,
            "cycle": self.cycle,
            "pc": self.pc,
            "detail": self.detail,
        }
