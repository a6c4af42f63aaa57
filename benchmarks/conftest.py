"""Shared infrastructure for the experiment benches.

Every bench regenerates one table/figure of the experiment index in
DESIGN.md (E1-E9): it runs the campaigns it needs once (module-scoped
setup, outside the timed region), times a representative unit of work
with pytest-benchmark, prints the regenerated table, and writes it to
``benchmarks/results/`` so the numbers survive output capturing.  A
quick-mode run (``GOOFI_BENCH_QUICK=1``) writes to the untracked
``.benchmarks/quick/`` instead: its shrunken numbers must never
overwrite the committed full-mode ones.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import CampaignConfig, GoofiSession

_BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = (
    _BENCH_DIR.parent / ".benchmarks" / "quick"
    if os.environ.get("GOOFI_BENCH_QUICK") == "1"
    else _BENCH_DIR / "results"
)


def write_result(name: str, text: str, data: dict | None = None) -> None:
    """Persist a regenerated table and echo it to stdout.

    With ``data``, a machine-readable ``<name>.json`` sibling is written
    next to the human-readable table so other tooling (CI trend checks,
    plots) does not have to re-parse the text.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    if data is not None:
        json_path = RESULTS_DIR / f"{name}.json"
        json_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\n===== {name} =====")
    print(text)


def build_campaign(
    session: GoofiSession,
    name: str,
    workload: str = "bubble_sort",
    technique: str = "scifi",
    locations: tuple[str, ...] = ("internal:regs.*",),
    num_experiments: int = 100,
    **overrides,
) -> CampaignConfig:
    """Store a campaign with bench-sized defaults."""
    max_iterations = overrides.pop("max_iterations", 80)
    config = CampaignConfig(
        name=name,
        target="thor-rd-sim",
        technique=technique,
        workload=workload,
        location_patterns=locations,
        num_experiments=num_experiments,
        termination=overrides.pop("termination", None)
        or session.default_termination(workload, max_iterations=max_iterations),
        observation=overrides.pop("observation", None)
        or session.default_observation(workload),
        seed=overrides.pop("seed", 2001),
        **overrides,
    )
    session.setup_campaign(config)
    return config


@pytest.fixture(scope="module")
def bench_session():
    with GoofiSession() as session:
        yield session


def classification_table(session: GoofiSession, campaigns: list[str]) -> str:
    """One row of §3.4 outcome counts per campaign."""
    from repro.analysis import classify_campaign

    lines = [
        f"{'campaign':<26}{'total':>7}{'det':>6}{'esc':>6}{'lat':>6}{'ovw':>6}"
        f"{'effective%':>12}{'coverage':>10}",
        "-" * 79,
    ]
    for name in campaigns:
        c = classify_campaign(session.db, name)
        coverage = f"{c.detected / c.effective:.2f}" if c.effective else "n/a"
        lines.append(
            f"{name:<26}{c.total:>7}{c.detected:>6}{c.escaped:>6}{c.latent:>6}"
            f"{c.overwritten:>6}{c.effective / c.total:>11.1%}{coverage:>10}"
        )
    return "\n".join(lines)
