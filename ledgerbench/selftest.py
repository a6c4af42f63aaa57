"""Quick self-test of the ledger benchmark (about a minute).

    python3 ledgerbench/selftest.py

Run from the root of a checkout.  For every workload it runs the
benchmark at a tiny campaign size, untraced and traced, and fails if
any metric BENCHMARK.json names is missing, has another unit, or is not
a finite number, or if any row differs from the reference loop's.  It
then doctors one expected row digest and checks that the row gate
counts exactly that one experiment as failed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import Runner  # noqa: E402  (the benchmark's entry point)
EXPERIMENTS = 24
SEED = 7


def bench(root: Path, workload: str, trace: int) -> dict:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--experiments", str(EXPERIMENTS)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    if process.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{process.stderr}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: rows differ from the reference loop")
    for metric in declared:
        printed = result["metrics"].get(metric["name"])
        if printed is None:
            problems.append(f"{label}: {metric['name']} missing")
        elif printed.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} has unit {printed.get('unit')!r}")
        elif not math.isfinite(printed.get("value", math.nan)):
            problems.append(f"{label}: {metric['name']} is not a finite number")
    extra = set(result["metrics"]) - {metric["name"] for metric in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    return problems


def check_gate(root: Path, workload: str) -> list[str]:
    """One doctored expected digest must count as one failed row."""
    runner = Runner(root, workload, SEED, EXPERIMENTS)
    expected = runner.workdir / "expected.json"
    runner.workdir.mkdir(parents=True)
    try:
        runner.campaign("reference", expected)
        digests = json.loads(expected.read_text())
        name = sorted(digests["rows"])[0]
        digests["rows"][name] = "0" * 16
        expected.write_text(json.dumps(digests))
        report = runner.campaign("timed", expected)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    if report["failed"] != 1 or report["correct"]:
        return [f"{workload}: a doctored digest gave failed={report['failed']}, "
                f"correct={report['correct']} (want 1, false)"]
    return []


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in [entry["name"] for entry in declared["workloads"]]:
        problems += check_metrics(
            bench(root, workload, 0), declared["end_to_end"], f"{workload} --trace 0"
        )
        problems += check_metrics(
            bench(root, workload, 1), declared["per_layer"], f"{workload} --trace 1"
        )
        print(f"{workload}: every declared metric printed with its unit")
    problems += check_gate(root, declared["workloads"][0]["name"])
    for problem in problems:
        print("FAIL", problem)
    if not problems:
        print("selftest passed: metrics complete, rows gated, doctored digest caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
