"""Shared fixtures for the GOOFI reproduction test suite."""

from __future__ import annotations

import pytest

from repro import CampaignConfig, GoofiSession
from repro.targets.thor import TestCard, ThorTargetInterface
from repro.targets.thor.assembler import assemble


@pytest.fixture
def card() -> TestCard:
    """A fresh, initialised test card."""
    card = TestCard()
    card.init_target()
    return card


@pytest.fixture
def target() -> ThorTargetInterface:
    """A fresh Thor target interface."""
    return ThorTargetInterface()


@pytest.fixture
def session() -> GoofiSession:
    """An in-memory GOOFI session with the Thor target."""
    with GoofiSession() as goofi_session:
        yield goofi_session


def make_campaign(
    session: GoofiSession,
    name: str,
    workload: str = "fibonacci",
    technique: str = "scifi",
    locations: tuple[str, ...] = ("internal:regs.*",),
    num_experiments: int = 20,
    **overrides,
) -> CampaignConfig:
    """Build and store a small campaign with sensible defaults."""
    config = CampaignConfig(
        name=name,
        target="thor-rd-sim",
        technique=technique,
        workload=workload,
        location_patterns=locations,
        num_experiments=num_experiments,
        termination=overrides.pop("termination", None)
        or session.default_termination(workload),
        observation=overrides.pop("observation", None)
        or session.default_observation(workload),
        seed=overrides.pop("seed", 1234),
        **overrides,
    )
    session.setup_campaign(config)
    return config


#: A tiny program: sums 1..5 into r1, stores to `out`, emits and halts.
TINY_SOURCE = """
_start:
    LDI r1, 0
    LDI r2, 5
loop:
    CMPI r2, 0
    BLE done
    ADD r1, r1, r2
    ADDI r2, r2, -1
    BR loop
done:
    STA r1, out
    OUT r1, 1
    HALT
.data
out: .word 0
"""


@pytest.fixture
def tiny_program():
    return assemble(TINY_SOURCE)


#: The columns schema version 7 added, by table.
V7_COLUMNS = {
    "LoggedSystemState": (
        "category", "mechanism", "escapeKind", "outcome", "terminationCycle",
        "faultElement", "faultCycle",
    ),
    "ExperimentSpan": ("durationSeconds",),
}


def drop_v7_columns(conn) -> None:
    """Rewind a database's schema-7 additions (the analysis columns), the
    first step of rewinding a file to any older schema version."""
    tables = {
        row[0] for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
    }
    for table, columns in V7_COLUMNS.items():
        if table in tables:
            for column in columns:
                conn.execute(f"ALTER TABLE {table} DROP COLUMN {column}")
