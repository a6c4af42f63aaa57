"""Regenerate the committed expected-row digests (``expected/*.json``).

    python3 ledgerbench/make_expected.py [WORKLOAD ...]

Run from the root of a checkout.  Each file holds, for the default seed
and the workload's full size, a digest of every row the plain serial
reference loop logs (no fast path, checkpoints, pruning, workers or
observability) and the campaign's classification counts.  Regenerate
only when a change to the program is meant to change logged rows.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# The benchmark's own modules; neither imports the program at module level.
import specs  # noqa: E402
from run import Runner  # noqa: E402


def main(argv: list[str]) -> int:
    (HERE / "expected").mkdir(exist_ok=True)
    for name in argv or sorted(specs.WORKLOADS):
        runner = Runner(
            Path.cwd(), name, specs.DEFAULT_SEED, specs.WORKLOADS[name].experiments
        )
        runner.workdir.mkdir(parents=True)
        try:
            runner.campaign("reference", HERE / "expected" / f"{name}.json")
        finally:
            shutil.rmtree(runner.workdir, ignore_errors=True)
        print(f"wrote expected/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
