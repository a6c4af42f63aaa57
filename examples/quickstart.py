#!/usr/bin/env python3
"""Quickstart: one SCIFI fault-injection campaign, start to finish.

The four phases of the paper (§3): configuration (done by GoofiSession),
set-up (CampaignConfig), fault injection (run_campaign), and analysis
(the classification report).

Run with::

    python examples/quickstart.py
"""

from repro import CampaignConfig, GoofiSession
from repro.cli.watch import ProgressTicker


def main() -> None:
    with GoofiSession() as session:
        workload = "bubble_sort"
        config = CampaignConfig(
            name="quickstart",
            target="thor-rd-sim",
            technique="scifi",
            workload=workload,
            # Inject single bit flips into the register file, the PC,
            # and both parity-protected caches.
            location_patterns=(
                "internal:regs.*",
                "internal:ctrl.PC",
                "internal:icache.*",
                "internal:dcache.*",
            ),
            num_experiments=300,
            termination=session.default_termination(workload),
            observation=session.default_observation(workload),
            seed=2001,
        )
        session.setup_campaign(config)

        # The progress ticker subscribes to the campaign's event bus and
        # draws the run on stderr, like ``goofi run`` does.
        result = session.run_campaign("quickstart", events=[ProgressTicker()])
        print(
            f"\n{result.experiments_run} experiments in "
            f"{result.elapsed_seconds:.1f}s "
            f"({result.experiments_run / result.elapsed_seconds:.0f}/s)\n"
        )

        print(session.report("quickstart"))


if __name__ == "__main__":
    main()
