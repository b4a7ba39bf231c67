#!/usr/bin/env python3
"""Attack gauntlet: every §III-A misbehaviour vs SmartCrowd's defences.

Constructs each attack from repro.adversary and shows where it dies:
SRA spoofing (signature check), report tampering (identifier
recomputation), forged findings (AutoVerif), plagiarism (two-phase
commitments), repudiation (escrow), and the 51% analysis of §VIII.
"""

import random

from repro.adversary import (
    forge_report,
    plagiarize_report,
    rosenfeld_success_probability,
    run_collusion_race,
    spoof_sra,
    steal_report_payout,
    tamper_sra_insurance,
)
from repro.chain.block import ChainRecord, RecordKind
from repro.core.registry import IdentityRegistry
from repro.core.reports import build_report_pair
from repro.core.sra import make_sra
from repro.core.verification import ReportVerifier
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair
from repro.detection import build_system, describe
from repro.units import to_wei


def main() -> None:
    provider = KeyPair.from_seed(b"honest-provider")
    honest = KeyPair.from_seed(b"honest-detector")
    attacker = KeyPair.from_seed(b"attacker")
    system = build_system("thermostat", vulnerability_count=2, rng=random.Random(3))

    registry = IdentityRegistry()
    registry.register("honest-provider", provider.public)
    registry.register("honest-detector", honest.public)
    registry.register("attacker", attacker.public)
    verifier = ReportVerifier(registry)

    print("=== 1. SRA spoofing: frame the honest provider ===")
    spoofed = spoof_sra("honest-provider", attacker, system, to_wei(1000), to_wei(250))
    ok = spoofed.verify(registry.public_key("honest-provider"))
    print(f"spoofed SRA passes decentralized verification? {ok}")

    print("\n=== 2. In-flight SRA tampering: shrink the insurance ===")
    sra = make_sra("honest-provider", provider, system, to_wei(1000), to_wei(250))
    tampered = tamper_sra_insurance(sra, to_wei(1))
    print(f"tampered SRA passes verification? "
          f"{tampered.verify(registry.public_key('honest-provider'))}")

    print("\n=== 3. Forged report: claim a nonexistent flaw ===")
    f_initial, f_detailed = forge_report(sra.sra_id, "attacker", attacker)
    print(f"forged R† passes Algorithm 1 structure checks? "
          f"{verifier.verify_initial(f_initial).ok}")
    verdict = verifier.verify_detailed(f_detailed, f_initial, system)
    print(f"forged R* passes AutoVerif? {verdict.ok} ({verdict.code.value})")

    print("\n=== 4. Plagiarism: copy a published R* ===")
    descriptions = tuple(
        describe(flaw, system.name, random.Random(4)) for flaw in system.ground_truth
    )
    v_initial, v_detailed = build_report_pair(
        sra.sra_id, "honest-detector", honest, honest.address, descriptions
    )
    _, thief_detailed = plagiarize_report(v_detailed, "attacker", attacker)
    verdict = verifier.verify_detailed(thief_detailed, v_initial, system)
    print(f"thief's R* accepted against victim's confirmed R†? "
          f"{verdict.ok} ({verdict.code.value})")
    print("(the thief's own R† commits later than the victim's -> loses the race)")

    print("\n=== 5. Payout theft: redirect the victim's wallet ===")
    redirected = steal_report_payout(v_detailed, attacker.address)
    verdict = verifier.verify_detailed(redirected, v_initial, system)
    print(f"redirected R* accepted? {verdict.ok} ({verdict.code.value})")

    print("\n=== 6. Collusion: minority provider mines the forged report ===")
    forged_record = ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields("colluding-forged-report"),
        payload=b"forged",
    )
    outcome = run_collusion_race(0.25, forged_record, race_blocks=120, seed=5)
    print(f"colluder (25% HP) got the forged report on the canonical chain? "
          f"{outcome.forged_record_on_canonical} "
          f"(honest {outcome.honest_blocks} vs colluder {outcome.colluder_blocks} blocks)")

    print("\n=== 7. 51% analysis (§VIII, Rosenfeld 2014) ===")
    for q in (0.1, 0.2, 0.3, 0.45, 0.51):
        probability = rosenfeld_success_probability(q, 6)
        print(f"  attacker with {q:.0%} hashpower, 6 confirmations: "
              f"P(rewrite) = {probability:.4%}")


if __name__ == "__main__":
    main()
