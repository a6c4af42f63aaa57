"""Campaign ledger: the repo's end-to-end benchmark.

    python3 ledgerbench/run.py --workload sm_swifi_workers2_observed --seed 2001 \\
        --seconds 45 --trace 0

Run from the root of a checkout.  Each campaign runs in a fresh
interpreter (``campaign.py``), so set-up time includes ``import repro``.
With ``--trace 0`` the benchmark repeats the workload's campaign until
``--seconds`` have passed (at least three times) and reports each
end-to-end metric over those campaigns (``layers.end_to_end``).  With
``--trace 1`` it alternates untraced and traced campaigns and reports
the per-layer metrics of the traced ones, plus the tracing overhead.

Every campaign's logged rows are checked against the expected rows:
the digests committed under ``expected/`` for the default seed, or,
for any other seed, a run of the plain serial reference loop made
before the timed campaigns start.

A fixed pure-Python kernel is timed before and after every campaign
(``host.calib_ms``).  It normalises nothing; it shows whether a
disagreement between two sets of runs follows the host's speed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  This script
imports nothing of the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# The benchmark's own modules; neither imports the program at module level.
import layers  # noqa: E402
import specs  # noqa: E402

MIN_CAMPAIGNS = 3
#: A campaign that takes longer than this is a failure of the run.
CAMPAIGN_TIMEOUT_S = 150
#: How long the processes a campaign forked may take to exit after it.
REAP_TIMEOUT_S = 10


def calibrate() -> float:
    """Median milliseconds of a fixed pure-Python kernel, five times."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) & 0xFFFF
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def reap_group(group: int) -> None:
    """Wait for every process of ``group`` to end; kill the stragglers."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, experiments: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.experiments = experiments
        self.cache = root / ".ledgerbench"
        self.workdir = self.cache / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.count = 0

    def child(self, *args: str) -> str:
        """Run one Python child in its own process group and wait until
        every process in the group (its forked workers, its resource
        tracker) has ended."""
        process = subprocess.Popen(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=CAMPAIGN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise SystemExit(f"{args[0]} took over {CAMPAIGN_TIMEOUT_S} s") from None
        finally:
            reap_group(process.pid)
        if process.returncode != 0:
            sys.stderr.write(stderr)
            raise SystemExit(f"{args[0]} exited with code {process.returncode}")
        return stdout

    def campaign(self, mode: str, expected: Path) -> dict:
        self.count += 1
        workdir = self.workdir / f"{self.count}-{mode}"
        output = self.child(
            str(HERE / "campaign.py"),
            "--root", str(self.root),
            "--workdir", str(workdir),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--experiments", str(self.experiments),
            "--mode", mode,
            "--expected", str(expected),
        )
        report = json.loads(output.strip().splitlines()[-1])
        if mode == "traced":
            shutil.copy(workdir / "spans.json", self.cache / f"spans-{self.workload}.json")
        shutil.rmtree(workdir)
        return report

    def expected(self) -> Path:
        """The expected-row digests for this campaign, made by the plain
        serial reference loop when none are committed."""
        committed = HERE / "expected" / f"{self.workload}.json"
        if (
            self.seed == specs.DEFAULT_SEED
            and self.experiments == specs.WORKLOADS[self.workload].experiments
        ):
            return committed
        path = self.cache / (
            f"expected-{self.workload}-{self.seed}-{self.experiments}-"
            f"{source_digest(self.root)}.json"
        )
        if not path.exists():
            partial = path.with_suffix(".part")
            self.campaign("reference", partial)
            partial.rename(path)
        return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--experiments",
        type=int,
        help="planned experiments per campaign (default: the workload's "
        "full size; the self-test uses a tiny one)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {root / 'src' / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    runner = Runner(
        root,
        args.workload,
        args.seed,
        args.experiments or specs.WORKLOADS[args.workload].experiments,
    )
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Warm the byte-code and file caches every user has warm.
        runner.child("-c", "import repro")
        expected = runner.expected()
        modes = ("timed", "traced") if args.trace else ("timed",)
        reports: dict[str, list[dict]] = {mode: [] for mode in modes}
        least = 1 if args.trace else MIN_CAMPAIGNS
        deadline = time.monotonic() + args.seconds
        while len(reports["timed"]) < least or time.monotonic() < deadline:
            for mode in modes:
                before = calibrate()
                report = runner.campaign(mode, expected)
                report["host.calib_ms"] = statistics.median([before, calibrate()])
                reports[mode].append(report)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    campaigns = [report for runs in reports.values() for report in runs]
    failed = sum(report["failed"] for report in campaigns)
    attempted = sum(report["planned"] for report in campaigns)
    correct = all(report["correct"] and not report["aborted"] for report in campaigns)

    untraced = reports["timed"]
    print(layers.format_campaigns(args.workload, args.seed, untraced))
    if args.trace:
        metrics = layers.per_layer(reports["traced"], untraced)
        print(layers.format_trace(args.workload, reports["traced"][-1], metrics))
    else:
        metrics = layers.end_to_end(untraced)
    # The untraced campaigns one by one, for steadiness.py: the result
    # line below has a fixed set of keys.
    print(
        json.dumps(
            {
                "host.calib_ms": statistics.median(
                    report["host.calib_ms"] for report in untraced
                ),
                "campaigns": [
                    {key: report[key] for key in layers.CAMPAIGN_KEYS}
                    for report in untraced
                ],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
