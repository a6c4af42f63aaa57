"""E7 / F4 — the GOOFI database (paper Figure 4, portability claims).

Regenerates: the schema's foreign-key graph (the paper's three tables
plus the observability tables that reference a campaign), and a
scalability table (insert and analysis-query throughput vs campaign
size) supporting the design decision to log every experiment to a SQL
database.

Timed unit: batch-inserting 256 experiment rows.
"""

from __future__ import annotations

import time

from conftest import write_result
from repro.analysis.classify import ReferenceState
from repro.db import (
    CampaignRecord,
    ExperimentRecord,
    GoofiDatabase,
    TargetSystemRecord,
)

SIZES = [100, 1_000, 5_000]


def make_record(campaign: str, index: int) -> ExperimentRecord:
    return ExperimentRecord(
        experiment_name=f"{campaign}/exp{index:06d}",
        campaign_name=campaign,
        experiment_data={
            "technique": "scifi",
            "faults": [
                {
                    "location": {"kind": "scan", "chain": "internal",
                                 "element": f"regs.R{index % 16}", "bit": index % 32},
                    "trigger": {"trigger": "time", "cycle": index % 997},
                    "model": {"model": "transient_bitflip"},
                    "injection_cycle": index % 997,
                    "applied": True,
                }
            ],
        },
        state_vector={
            "termination": {
                "outcome": "error_detected" if index % 3 == 0 else "workload_end",
                "cycle": 1000 + index % 100,
                "iteration": 0,
                "detection": (
                    {"mechanism": "icache_parity", "cycle": 1, "pc": 2}
                    if index % 3 == 0
                    else None
                ),
            },
            "final": {
                "scan": {f"internal:regs.R{r}": (index * r) % 65536 for r in range(16)},
                "memory": {str(0x4000 + w): index % 7 for w in range(16)},
                "outputs": [[900, 1, index % 1000]],
            },
        },
    )


#: Every row is classified against this reference as it is made: the
#: state of experiment 1, which ends the workload like most of them.
REFERENCE = ReferenceState.of(make_record("reference", 1).state_vector)


def seeded_db() -> GoofiDatabase:
    db = GoofiDatabase()
    db.save_target(TargetSystemRecord("thor", "card", {}))
    return db


def test_e7_database_scaling(benchmark):
    db = seeded_db()
    db.save_campaign(CampaignRecord("bench", "thor", {}))
    counter = {"next": 0}

    def insert_batch():
        start = counter["next"]
        counter["next"] += 256
        db.save_experiment_rows(
            [REFERENCE.row(make_record("bench", start + i)) for i in range(256)]
        )

    benchmark(insert_batch)

    # Scaling table: insert + query time per campaign size.
    lines = [
        "E7: GOOFI database scalability (SQLite, FKs enforced)",
        f"{'experiments':>12}{'insert s':>10}{'rows/s':>10}"
        f"{'outcome-query ms':>18}{'classify-scan ms':>18}",
        "-" * 68,
    ]
    for size in SIZES:
        fresh = seeded_db()
        fresh.save_campaign(CampaignRecord("scale", "thor", {}))
        rows = [REFERENCE.row(make_record("scale", i)) for i in range(size)]
        started = time.perf_counter()
        fresh.save_experiment_rows(rows)
        insert_seconds = time.perf_counter() - started

        started = time.perf_counter()
        rows = fresh.execute_sql(
            "SELECT json_extract(stateVector, '$.termination.outcome'), COUNT(*) "
            "FROM LoggedSystemState WHERE campaignName = 'scale' GROUP BY 1"
        )
        query_ms = (time.perf_counter() - started) * 1000
        assert dict(rows)["error_detected"] == sum(1 for i in range(size) if i % 3 == 0)

        started = time.perf_counter()
        scanned = sum(1 for _ in fresh.iter_experiments("scale"))
        scan_ms = (time.perf_counter() - started) * 1000
        assert scanned == size
        fresh.close()
        lines.append(
            f"{size:>12}{insert_seconds:>10.3f}{size / insert_seconds:>10.0f}"
            f"{query_ms:>18.1f}{scan_ms:>18.1f}"
        )

    # F4: regenerate the schema/foreign-key graph.
    schema_db = seeded_db()
    fk_rows = schema_db._conn.execute(
        "SELECT m.name, f.\"table\", f.\"from\", f.\"to\" "
        "FROM sqlite_master m JOIN pragma_foreign_key_list(m.name) f "
        "WHERE m.type = 'table' ORDER BY m.name"
    ).fetchall()
    lines.append("")
    lines.append("F4: table relations (foreign keys, paper Figure 4):")
    for table, references, from_col, to_col in fk_rows:
        lines.append(f"  {table}.{from_col} -> {references}.{to_col}")
    # The paper's three relations, then the observability tables
    # (schemas 2-6), each of which references its campaign.
    expected = {
        ("CampaignData", "TargetSystemData", "targetName", "targetName"),
        ("LoggedSystemState", "CampaignData", "campaignName", "campaignName"),
        ("LoggedSystemState", "LoggedSystemState", "parentExperiment", "experimentName"),
    } | {
        (table, "CampaignData", "campaignName", "campaignName")
        for table in (
            "ExperimentSpan", "CampaignTelemetry", "PropagationProbe", "ResourceSample",
        )
    }
    assert expected == set(fk_rows)
    write_result("E7_database", "\n".join(lines))
