#!/usr/bin/env python3
"""Chaos gauntlet: the full workflow under crashes, splits, and loss.

Drives the message-level deployment (§IV-B) through a seeded fault
schedule — nodes crash and restart (0.2 probability per epoch), links
drop 10% of messages with a 90% burst outage, duplicate and delay
others, and a timed two-way partition splits the hashpower — then lets
the chaos heal and checks the §V-C fault-tolerance claims:

* restarted replicas resync their chains headers-first from peers,
* records mined on the losing side of the partition get resubmitted
  and re-mined after the heal reorg,
* detectors whose R†/R* gossip vanished re-transmit with exponential
  backoff until the report is on-chain — exactly once, never twice,
* wei are conserved, insurance accounting balances, and every alive
  replica converges to one canonical tip.

Run:  PYTHONPATH=src python examples/chaos_gauntlet.py [seed]
"""

import sys

from repro.faults import GauntletConfig, run_gauntlet
from repro.faults.gauntlet import BURST_LOSS_RATE, LOSS_RATE
from repro.faults.plan import CRASH_PROBABILITY


def main() -> int:
    try:
        seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    except ValueError:
        print(f"usage: {sys.argv[0]} [seed]  (seed must be an integer, "
              f"got {sys.argv[1]!r})", file=sys.stderr)
        return 2
    config = GauntletConfig(seed=seed)
    print(
        f"chaos gauntlet, seed {seed}: "
        f"{config.chaos_duration:.0f}s of chaos "
        f"(crash prob {CRASH_PROBABILITY}/epoch, "
        f"{LOSS_RATE:.0%} loss with {BURST_LOSS_RATE:.0%} burst, "
        f"duplication, delay spikes, one timed partition), "
        f"then {config.settle_time:.0f}s to settle...\n"
    )
    result = run_gauntlet(config)

    print("fault schedule as applied:")
    for at, description in result.fault_log:
        print(f"  {description}")

    print()
    print(result.render())
    result.assert_ok()
    print("\nhealed: every invariant holds, every report on-chain exactly once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
