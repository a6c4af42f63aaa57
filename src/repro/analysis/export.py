"""Campaign export: flat CSV for external statistics tools.

"The user can then choose which analysis software to use, and where to
store the results" (§3.4) — most external software wants a flat table.
One row per experiment with the injected fault, the termination record,
the classification verdict, and the detection latency where applicable.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from ..core.errors import AnalysisError
from ..db import GoofiDatabase, reference_name
from .classify import classify_campaign
from .latency import _latency_of

#: Column order of the export (stable: external scripts key on it).
COLUMNS = [
    "experiment",
    "index",
    "technique",
    "location",
    "bit",
    "model",
    "injection_cycle",
    "applied",
    "outcome",
    "category",
    "mechanism",
    "escape_kind",
    "termination_cycle",
    "iterations",
    "detection_latency",
    "differing_keys",
]


def export_rows(db: GoofiDatabase, campaign_name: str) -> list[dict]:
    """The export as dictionaries (one per experiment)."""
    view = classify_campaign(db, campaign_name)
    reference = reference_name(campaign_name)
    records = (
        record
        for record in db.iter_experiments(campaign_name)
        if record.experiment_name != reference
    )
    rows: list[dict] = []
    for verdict, record in zip(view.classifications, records, strict=True):
        data = record.experiment_data
        faults = data.get("faults", [])
        first = faults[0] if faults else {}
        location = first.get("location", {})
        if location.get("kind") == "scan":
            location_label = f"{location.get('chain')}:{location.get('element')}"
        elif location.get("kind") == "memory":
            location_label = f"memory:0x{int(location.get('address', 0)):04X}"
        else:
            location_label = ""
        termination = record.termination
        latency_sample = _latency_of(record)
        rows.append(
            {
                "experiment": verdict.experiment_name,
                "index": data.get("index", ""),
                "technique": data.get("technique", ""),
                "location": location_label,
                "bit": location.get("bit", ""),
                "model": (first.get("model") or {}).get("model", ""),
                "injection_cycle": first.get("injection_cycle", ""),
                "applied": int(bool(first.get("applied", False))),
                "outcome": termination.get("outcome", ""),
                "category": verdict.category,
                "mechanism": verdict.mechanism or "",
                "escape_kind": verdict.escape_kind or "",
                "termination_cycle": termination.get("cycle", ""),
                "iterations": termination.get("iteration", ""),
                "detection_latency": latency_sample.latency if latency_sample else "",
                # Not stored with the verdict: the row is classified
                # again for its differing keys.
                "differing_keys": ";".join(view.reference.classify(record).differing_keys),
            }
        )
    if not rows:
        raise AnalysisError(f"campaign {campaign_name!r} has no experiments to export")
    return rows


def export_csv(db: GoofiDatabase, campaign_name: str) -> str:
    """The export as CSV text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in export_rows(db, campaign_name):
        writer.writerow(row)
    return buffer.getvalue()


def export_csv_file(db: GoofiDatabase, campaign_name: str, path: str | Path) -> int:
    """Write the CSV next to the database; returns the row count."""
    text = export_csv(db, campaign_name)
    Path(path).write_text(text)
    return text.count("\n") - 1
