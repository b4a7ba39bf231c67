#!/usr/bin/env python3
"""A re-detection round: flaws found *after* a release looked clean.

A thermostat firmware passes round-1 detection (the fleet online at the
time was weak), so its insurance is refunded and the public reference
says "deploy".  Later the strong fleet comes online, the vendor reopens
detection with a fresh insurance, and the missed flaws surface in the
same public reference every consumer reads.  Detectors are only paid
for *new* discoveries; flaws already bought in earlier rounds are
excluded.
"""

import random

from repro import PlatformConfig, SmartCrowdPlatform, from_wei, to_wei
from repro.chain import PAPER_HASHPOWER_SHARES
from repro.core import ConsumerClient
from repro.detection import (
    DetectionCapability,
    Detector,
    build_detector_fleet,
    build_system,
)


def main() -> None:
    weak = Detector(
        "legacy-scanner",
        DetectionCapability(threads=1, per_thread_hit=0.02),
        rng=random.Random(5),
    )
    strong = build_detector_fleet(seed=5)
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        [weak] + strong,
        PlatformConfig(seed=5, detection_window=600.0),
    )
    # Round 1: only the legacy scanner exists; pretend the strong fleet
    # hasn't joined the platform yet.
    for detector in strong:
        platform.isolated_detectors.add(detector.detector_id)

    firmware = build_system("thermostat", "4.2.0", vulnerability_count=3,
                            rng=random.Random(6))
    sra1 = platform.announce_release("provider-2", firmware, insurance_wei=to_wei(1000))
    platform.advance_for(900.0)
    platform.finish_pending()

    consumer = ConsumerClient(platform.chain)
    reference = consumer.lookup("thermostat", "4.2.0")
    case1 = platform.release_case(sra1.sra_id)
    print(f"round 1: confirmed flaws = {reference.vulnerability_count}, "
          f"insurance refunded = {from_wei(case1.refunded_wei):.0f} ETH")
    print(f"consumer deploys? {consumer.should_deploy('thermostat', '4.2.0')}  "
          f"(ground truth: {len(firmware.ground_truth)} latent flaws!)")

    # The modern fleet joins; the vendor reopens detection.
    for detector in strong:
        platform.isolated_detectors.discard(detector.detector_id)
    print("\n-- strong detector fleet joins; provider reopens detection --")
    sra2 = platform.reopen_release(sra1.sra_id, insurance_wei=to_wei(1000))
    platform.advance_for(900.0)
    platform.finish_pending()

    case2 = platform.release_case(sra2.sra_id)
    print(f"round 2: bounties paid = {sum(case2.awarded_counts.values())}, "
          f"insurance refunded = {from_wei(case2.refunded_wei):.0f} ETH")
    reference = consumer.lookup("thermostat", "4.2.0")
    print(f"public reference now shows {reference.vulnerability_count} flaws; "
          f"deploy? {consumer.should_deploy('thermostat', '4.2.0')}")
    assert case2.round == 2 and reference.vulnerability_count > 0


if __name__ == "__main__":
    main()
