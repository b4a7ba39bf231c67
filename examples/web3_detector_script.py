#!/usr/bin/env python3
"""A detector's operations script, written web3-style.

The paper's prototype drives everything through "the Ethereum JSON API
and a python module library of Web3" (§VII).  This example is what a
detector operator's monitoring script looks like against the
reproduction's :mod:`repro.rpc` facade — the same ``w3.eth`` calls the
prototype's glue code makes, pointed at the simulated node.
"""

import random

from repro import PlatformConfig, SmartCrowdPlatform, from_wei, to_wei
from repro.chain import PAPER_HASHPOWER_SHARES
from repro.detection import build_detector_fleet, build_system
from repro.rpc import Web3Shim


def main() -> None:
    # --- a live deployment somewhere (here: simulated in-process)
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(seed=33),
        PlatformConfig(seed=33, detection_window=600.0),
    )
    system = build_system("router-fw", "7.1.0", vulnerability_count=3,
                          rng=random.Random(33))
    sra = platform.announce_release("provider-2", system, insurance_wei=to_wei(1000))
    platform.advance_for(900.0)
    platform.finish_pending()

    # --- the operator's script starts here
    # ... pointed at one provider's node, as web3 is at one RPC endpoint.
    w3 = Web3Shim.connect_node(platform.replicas["provider-1"], platform.runtime)
    assert w3.is_connected()

    print(f"node synced to block #{w3.eth.block_number}")
    head = w3.eth.get_block("latest")
    print(f"head {head['hash'][:18]}… mined by {head['miner'][:12]}… "
          f"({len(head['transactions'])} records)")

    # Where did my SRA land, and is it final?
    tx = w3.eth.get_transaction(sra.sra_id)
    print(f"\nSRA {tx['hash'][:18]}… in block #{tx['blockNumber']} "
          f"({tx['confirmations']} confirmations)")

    # Finality, receipt-style.
    receipt = w3.eth.get_transaction_receipt(sra.sra_id)
    print(f"receipt: status={receipt['status']} "
          f"block #{receipt['blockNumber']} idx {receipt['transactionIndex']}")

    # Which bounties were paid, and to whom?
    print("\nBountyPaid log scan:")
    for entry in w3.eth.get_logs("BountyPaid"):
        args = entry["args"]
        print(f"  t={entry['blockTime']:>7.1f}s  {args['detector']:<12} "
              f"+{from_wei(args['amount_wei']):.0f} ETH "
              f"for {args['vulnerability'][:20]}…")

    # My wallet balance after the campaign:
    my_wallet = platform.detector_keys["detector-8"].address
    print(f"\ndetector-8 balance: "
          f"{from_wei(w3.eth.get_balance(my_wallet)):.3f} ETH "
          f"({w3.eth.get_transaction_count(my_wallet)} records on chain)")

    # Walk a few blocks back, verifying parent links — a sanity check
    # any light monitoring script performs.
    cursor = head
    for _ in range(3):
        parent = w3.eth.get_block(cursor["parentHash"])
        assert parent["number"] == cursor["number"] - 1
        cursor = parent
    print(f"parent-link walk OK back to block #{cursor['number']}")


if __name__ == "__main__":
    main()
