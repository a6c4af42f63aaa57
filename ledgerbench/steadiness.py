"""Run the ledger on several seeds and report how steady each metric is.

    python3 ledgerbench/steadiness.py --seeds 1-10 --out ledgerbench/results/steadiness-1.json
    python3 ledgerbench/steadiness.py --report ledgerbench/results/steadiness-1.json \\
        ledgerbench/results/steadiness-2.json

Run from the root of a checkout.  For each workload of BENCHMARK.json
(or ``--workloads``), it runs the benchmark once per seed with
``--trace 0`` and the declared ``run_seconds``.  For each end-to-end
metric it keeps the median of the per-run values and their spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.  Each run's campaigns are kept one by one, with
the median ``host.calib_ms`` of the run, so a disagreement between two
sets of runs can be traced to the host's speed or to the program.

``--report`` prints, from saved sets, a markdown table of every
workload and metric: each set's median and spread, the shift of each
later set's median from the first, and every spread or shift beyond
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run(workload: str, seed: int, seconds: int) -> dict:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    *_, campaigns, result = process.stdout.strip().splitlines()
    campaigns = json.loads(campaigns)
    result = json.loads(result)
    return {
        "workload": workload,
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "host.calib_ms": campaigns["host.calib_ms"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "campaigns": campaigns["campaigns"],
    }


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def summarise(results: list[dict], declared: dict) -> dict:
    calibration = [result["host.calib_ms"] for result in results]
    summary = {
        "host.calib_ms": {"median": statistics.median(calibration),
                          "min": min(calibration), "max": max(calibration)},
        "all_correct": all(result["correct"] for result in results),
    }
    for metric in declared["end_to_end"]:
        values = [result["metrics"][metric["name"]] for result in results]
        summary[metric["name"]] = {
            "median": statistics.median(values),
            "spread": spread(values),
            "bound": metric["bound"],
        }
    return summary


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def report(paths: list[Path], declared: dict) -> int:
    """Print the saved sets as one markdown table and list every spread
    and every median shift beyond its bound."""
    sets = [json.loads(path.read_text())["summary"] for path in paths]
    header = ["workload", "metric", "bound"]
    for index in range(len(sets)):
        header += [f"median {index + 1}", f"spread {index + 1}"]
    header += [f"worse {index + 1} vs 1" for index in range(1, len(sets))]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    breaches = []
    for workload in sets[0]:
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = [f"`{workload}`", f"`{name}`", f"{bound:g}"]
            for index, summary in enumerate(sets, 1):
                entry = summary[workload][name]
                row += [f"{entry['median']:.6g}", f"{entry['spread']:.3f}"]
                if entry["spread"] > bound:
                    breaches.append(f"set {index}: {workload} {name} spread "
                                    f"{entry['spread']:.3f} > bound {bound:g}")
            first = sets[0][workload][name]["median"]
            for index, summary in enumerate(sets[1:], 2):
                worse = worse_by(metric, first, summary[workload][name]["median"])
                row.append(f"{worse:+.3f}")
                if worse > bound:
                    breaches.append(f"set {index} vs 1: {workload} {name} median "
                                    f"worse by {worse:.3f} > bound {bound:g}")
            print("| " + " | ".join(row) + " |")
        row = [f"`{workload}`", "`host.calib_ms` (diagnostic)", "–"]
        for summary in sets:
            row += [f"{summary[workload]['host.calib_ms']['median']:.2f}", "–"]
        print("| " + " | ".join(row + ["–"] * (len(sets) - 1)) + " |")
    print()
    for breach in breaches:
        print(f"- beyond bound: {breach}")
    if not breaches:
        print("- every spread and every median shift is within its bound")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--report", type=Path, nargs="+", metavar="SET")
    args = parser.parse_args(argv)

    declared = json.loads(Path("BENCHMARK.json").read_text())
    if args.report:
        return report(args.report, declared)
    if args.out is None:
        parser.error("--out is required unless --report is given")
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [entry["name"] for entry in declared["workloads"]]
    )
    runs = []
    summary = {}
    for workload in workloads:
        results = []
        for seed in args.seeds:
            results.append(run(workload, seed, declared["run_seconds"]))
            print(json.dumps(results[-1]["metrics"] | {"seed": seed}), flush=True)
        runs += results
        summary[workload] = summarise(results, declared)
        for metric in declared["end_to_end"]:
            entry = summary[workload][metric["name"]]
            print(f"{workload} {metric['name']}: median {entry['median']:.6g}, "
                  f"spread {entry['spread']:.4f} (bound {metric['bound']})")
        calibration = summary[workload]["host.calib_ms"]
        print(f"{workload} host.calib_ms: median {calibration['median']:.2f}, "
              f"range {calibration['min']:.2f}-{calibration['max']:.2f}")
    args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
