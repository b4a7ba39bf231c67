#!/usr/bin/env python3
"""Quickstart: release an IoT system, detect its flaws, get paid.

Runs a five-provider SmartCrowd deployment (the paper's §VII setup) for
25 simulated minutes: one provider releases a vulnerable camera
firmware with a 1000-ether insurance, the 8-detector fleet races to
find its flaws, and the contract pays bounties automatically once
reports confirm on chain.
"""

import random

from repro import ConsumerClient, PlatformConfig, SmartCrowdPlatform, from_wei, to_wei
from repro.chain import PAPER_HASHPOWER_SHARES
from repro.detection import build_detector_fleet, build_system


def main() -> None:
    platform = SmartCrowdPlatform(
        provider_shares=PAPER_HASHPOWER_SHARES,
        detectors=build_detector_fleet(seed=7),
        config=PlatformConfig(seed=7, detection_window=600.0),
    )

    firmware = build_system(
        "smart-camera", "2.4.1", vulnerability_count=3, rng=random.Random(7)
    )
    print(f"releasing {firmware.name} v{firmware.version} "
          f"({len(firmware.ground_truth)} latent flaws, provider doesn't know)")
    sra = platform.announce_release(
        "provider-3", firmware, insurance_wei=to_wei(1000)
    )

    platform.advance_for(1500.0)
    platform.finish_pending()

    case = platform.release_case(sra.sra_id)
    print(f"\nrelease closed: refunded {from_wei(case.refunded_wei):.0f} ETH "
          f"of the 1000 ETH insurance")
    print(f"provider-3 punishment so far: "
          f"{from_wei(platform.punishments_wei['provider-3']):.3f} ETH")

    print("\ndetector earnings:")
    for detector_id, stats in sorted(platform.detector_stats.items()):
        if stats.findings:
            print(f"  {detector_id}: found {stats.findings}, "
                  f"won {stats.bounties_won} bounties, "
                  f"earned {from_wei(stats.incentives_wei):.0f} ETH "
                  f"(fees {from_wei(stats.fees_paid_wei):.3f} ETH)")

    consumer = ConsumerClient(platform.chain)
    reference = consumer.lookup("smart-camera", "2.4.1")
    print(f"\nconsumer reference: {reference.vulnerability_count} confirmed "
          f"vulnerabilities on chain")
    print(f"deploy smart-camera v2.4.1? "
          f"{consumer.should_deploy('smart-camera', '2.4.1')}")


if __name__ == "__main__":
    main()
