"""Fault-sensitivity maps: which locations and bits matter.

A staple of injection studies on processors: effectiveness is not
uniform across a register's bits (low bits of a loop counter derail
control flow; high bits of small data values are dead weight) or across
locations.  This module aggregates a campaign into per-element and
per-bit sensitivity tables and renders them as text heat maps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..core.errors import AnalysisError
from ..core.locations import Location
from ..db import GoofiDatabase
from .classify import classify_campaign

#: Heat-map glyphs from cold (never effective) to hot (always).
_GLYPHS = " .:-=+*#%@"


@dataclass(slots=True)
class BitSensitivity:
    """Per-bit effectiveness counts for one location element."""

    element: str
    width: int
    injected: list[int] = field(default_factory=list)
    effective: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.injected:
            self.injected = [0] * self.width
            self.effective = [0] * self.width

    def record(self, bit: int, was_effective: bool) -> None:
        if not 0 <= bit < self.width:
            raise AnalysisError(f"bit {bit} out of range for {self.element}")
        self.injected[bit] += 1
        self.effective[bit] += was_effective

    def rate(self, bit: int) -> float | None:
        if self.injected[bit] == 0:
            return None
        return self.effective[bit] / self.injected[bit]

    @property
    def total_injected(self) -> int:
        return sum(self.injected)

    @property
    def total_effective(self) -> int:
        return sum(self.effective)

    def heat_row(self) -> str:
        """One character per bit, MSB first; '·' marks never-injected."""
        cells = []
        for bit in reversed(range(self.width)):
            rate = self.rate(bit)
            if rate is None:
                cells.append("·")
            else:
                cells.append(_GLYPHS[min(len(_GLYPHS) - 1, int(rate * (len(_GLYPHS) - 1) + 0.5))])
        return "".join(cells)


def bit_sensitivity(db: GoofiDatabase, campaign_name: str) -> dict[str, BitSensitivity]:
    """Per-element, per-bit sensitivity over a campaign's first faults."""
    table: dict[str, BitSensitivity] = {}
    widths: dict[str, int] = defaultdict(int)
    samples: list[tuple[str, int, bool]] = []
    view = classify_campaign(db, campaign_name)
    for verdict, facts in zip(view.classifications, view.facts(), strict=True):
        faults = facts.experiment_data.get("faults", [])
        if not faults:
            continue
        location = Location.from_dict(faults[0]["location"])
        key = location.element_key
        widths[key] = max(widths[key], location.bit + 1)
        samples.append((key, location.bit, verdict.effective))
    for key, bit, was_effective in samples:
        entry = table.get(key)
        if entry is None:
            # Round the observed width up to a natural register size.
            width = widths[key]
            for natural in (1, 4, 8, 16, 32):
                if width <= natural:
                    width = natural
                    break
            entry = table[key] = BitSensitivity(element=key, width=width)
        entry.record(bit, was_effective)
    if not table:
        raise AnalysisError(f"campaign {campaign_name!r} has no injected faults")
    return table


def format_sensitivity_map(table: dict[str, BitSensitivity], min_injected: int = 1) -> str:
    """Text heat map: one row per element, one column per bit (MSB
    left).  Glyph scale: ``' '`` 0% effective … ``'@'`` 100%."""
    rows = [
        f"{'element':<28}{'n':>6}{'eff':>6}  bit map (MSB..LSB; scale ' {_GLYPHS[1:]}' = 0..100%)",
        "-" * 100,
    ]
    for key in sorted(table):
        entry = table[key]
        if entry.total_injected < min_injected:
            continue
        rows.append(
            f"{key:<28}{entry.total_injected:>6}{entry.total_effective:>6}  "
            f"|{entry.heat_row()}|"
        )
    return "\n".join(rows)


def band_rates(
    table: dict[str, BitSensitivity], split: int = 16
) -> tuple[float, float]:
    """(low-band, high-band) pooled effectiveness across all 32-bit
    elements — the classic 'which half of the word is live' summary."""
    low_injected = low_effective = high_injected = high_effective = 0
    for entry in table.values():
        if entry.width < split * 2:
            continue
        for bit in range(entry.width):
            if bit < split:
                low_injected += entry.injected[bit]
                low_effective += entry.effective[bit]
            else:
                high_injected += entry.injected[bit]
                high_effective += entry.effective[bit]
    if low_injected == 0 or high_injected == 0:
        raise AnalysisError("not enough 32-bit samples for a band split")
    return low_effective / low_injected, high_effective / high_injected
