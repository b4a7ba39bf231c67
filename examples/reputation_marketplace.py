#!/usr/bin/env python3
"""A marketplace of providers under long-run accountability.

Three vendors with very different engineering cultures release firmware
for a year of simulated 10-minute windows (compressed to 24 releases):
one careful, one sloppy, one mid.  SmartCrowd's chain turns their
behaviour into (i) dollar outcomes (forfeited insurances vs mining
income), (ii) a public reputation ranking consumers can gate on, and
(iii) an explorer view of who actually found the flaws.
"""

import random

from repro import PlatformConfig, SmartCrowdPlatform, from_wei, to_wei
from repro.chain import PAPER_HASHPOWER_SHARES
from repro.contracts import Explorer
from repro.core.reputation import ReputationEngine
from repro.detection import build_detector_fleet, build_system

#: provider -> probability a given release ships vulnerable
CULTURES = {
    "provider-1": 0.05,   # careful
    "provider-2": 0.50,   # sloppy
    "provider-3": 0.20,   # mid
}
RELEASES_EACH = 8
WINDOW = 600.0


def main() -> None:
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(seed=97),
        PlatformConfig(seed=97, detection_window=WINDOW),
    )
    rng = random.Random(97)
    slot = 0
    for release_round in range(RELEASES_EACH):
        for provider, vp in CULTURES.items():
            flaws = rng.choice([2, 3, 4]) if rng.random() < vp else 0
            system = build_system(
                f"{provider}-fw-{release_round}",
                vulnerability_count=flaws,
                rng=random.Random(rng.randrange(2**31)),
            )
            platform.announce_release(
                provider, system, insurance_wei=to_wei(1000), at_time=slot * WINDOW
            )
        slot += 1
    platform.advance_until(slot * WINDOW + 700.0)
    platform.finish_pending()

    print(f"{'provider':<12}{'culture VP':>11}{'releases':>9}{'vulnerable':>11}"
          f"{'punished ETH':>13}{'mined ETH':>11}")
    engine = ReputationEngine(platform.chain)
    for provider, vp in CULTURES.items():
        reputation = engine.score_provider(provider)
        print(f"{provider:<12}{vp:>11.2f}{reputation.releases:>9}"
              f"{reputation.vulnerable_releases:>11}"
              f"{from_wei(platform.punishments_wei[provider]):>13.1f}"
              f"{from_wei(platform.provider_incentives_wei(provider)):>11.1f}")

    print("\nreputation ranking (chain-derived):")
    for reputation in engine.ranking():
        gate = "TRUSTED" if reputation.score >= 0.6 else "below floor"
        print(f"  {reputation.provider_id:<12} score={reputation.score:.3f}  [{gate}]")

    explorer = Explorer(platform.runtime)
    print(f"\nobserved marketplace VP: {explorer.vulnerable_release_fraction():.2f}")
    print("top bounty hunters:")
    for detector_id, earned in explorer.top_detectors(limit=3):
        print(f"  {detector_id:<12} {from_wei(earned):>8.0f} ETH")


if __name__ == "__main__":
    main()
