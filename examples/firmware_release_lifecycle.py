#!/usr/bin/env python3
"""A vendor's release history under SmartCrowd accountability.

Models the scenario from the paper's introduction: a vendor ships
firmware versions over time — some clean, one buggy, one repackaged by
a malicious marketplace — and SmartCrowd builds the public track
record consumers check before deploying (§IV-A, §VI-A).
"""

import random

from repro import ConsumerClient, PlatformConfig, SmartCrowdPlatform, from_wei, to_wei
from repro.chain import PAPER_HASHPOWER_SHARES
from repro.crypto.hashing import sha3_256
from repro.detection import (
    build_detector_fleet,
    build_system,
    new_version,
    repackage_with_malware,
)


def main() -> None:
    platform = SmartCrowdPlatform(
        provider_shares=PAPER_HASHPOWER_SHARES,
        detectors=build_detector_fleet(seed=13),
        config=PlatformConfig(seed=13, detection_window=600.0),
    )
    vendor = "provider-2"
    window = 650.0

    # v1.0: clean. v1.1: rushed, two bugs. v1.2: fixed again.
    v10 = build_system("door-hub", "1.0.0", vulnerability_count=0)
    v11 = new_version(v10, "1.1.0", vulnerability_count=2, rng=random.Random(1))
    v12 = new_version(v11, "1.2.0", vulnerability_count=0, rng=random.Random(2))

    for index, release in enumerate((v10, v11, v12)):
        platform.announce_release(
            vendor, release, insurance_wei=to_wei(1000), at_time=index * window
        )
        print(f"t={index * window:>6.0f}s  {vendor} announces door-hub "
              f"v{release.version}")

    platform.advance_until(3 * window + 700.0)
    platform.finish_pending()

    consumer = ConsumerClient(platform.chain)
    print("\nconsumer view of each version:")
    for version in ("1.0.0", "1.1.0", "1.2.0"):
        reference = consumer.lookup("door-hub", version)
        verdict = "DEPLOY" if consumer.should_deploy("door-hub", version) else "AVOID"
        print(f"  v{version}: {reference.vulnerability_count} confirmed flaws "
              f"-> {verdict}")

    record = consumer.provider_track_record(vendor)
    print(f"\n{vendor} track record: {record.vulnerable_releases}/{record.releases}"
          f" vulnerable releases (observed VP "
          f"{record.vulnerable_fraction:.2f})")
    print(f"{vendor} total punishment: "
          f"{from_wei(platform.punishments_wei[vendor]):.3f} ETH "
          f"(one forfeited insurance + 3 x 0.095 deployment gas)")

    # A malicious marketplace repackages v1.2 with malware.  The SRA's
    # committed hash U_h immediately exposes the tampering: a consumer
    # comparing the downloaded image against the on-chain SRA sees the
    # mismatch without any detector involvement.
    tampered = repackage_with_malware(v12, "shady-market")
    case = next(
        c for c in platform.releases.values() if c.system.version == "1.2.0"
    )
    honest_hash = case.sra.body.artifact_hash
    print("\nmalicious marketplace repackages v1.2.0 with malware:")
    print(f"  on-chain U_h:       {honest_hash.hex()[:24]}…")
    print(f"  tampered image hash: {sha3_256(tampered.image).hex()[:24]}…")
    print(f"  hash check passes?   {case.sra.verify_artifact(tampered.image)}")


if __name__ == "__main__":
    main()
