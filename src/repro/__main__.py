"""Command-line demo: ``python -m repro [options]``.

Runs a configurable SmartCrowd campaign — providers releasing systems
at a chosen vulnerability proportion, the detector fleet racing, the
contracts paying — and prints the economic summary plus the consumer
view.  The quickest way to see the whole system move.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from typing import Callable

from repro import ConsumerClient, PlatformConfig, SmartCrowdPlatform, from_wei, to_wei
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.contracts.explorer import Explorer
from repro.detection import build_detector_fleet
from repro.detection.corpus import ReleaseCorpus, ReleaseCorpusConfig


def _checked(convert: Callable, ok: Callable, rule: str) -> Callable:
    """An argparse ``type``: ``convert`` the text, refuse it unless ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # "invalid int value" on a typo
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a SmartCrowd campaign (ICDCS 2019 reproduction).",
    )
    count = _checked(int, lambda n: n >= 0, ">= 0")
    # An SRA's contract refuses to escrow nothing.
    insurance = _checked(int, lambda n: n > 0, "> 0")
    proportion = _checked(float, lambda p: 0 <= p <= 1, "in [0, 1]")
    duration = _checked(float, lambda t: math.isfinite(t) and t > 0, "finite and > 0")
    parser.add_argument("--releases", type=count, default=6, help="SRAs to announce")
    parser.add_argument("--vp", type=proportion, default=0.4,
                        help="vulnerability proportion of releases")
    parser.add_argument("--insurance", type=insurance, default=1000,
                        help="insurance per release, ether")
    parser.add_argument("--window", type=duration, default=600.0,
                        help="detection window, seconds")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(seed=args.seed),
        PlatformConfig(seed=args.seed, detection_window=args.window),
    )
    corpus = ReleaseCorpus(
        ReleaseCorpusConfig(
            vulnerability_proportion=args.vp,
            mean_vulnerabilities=3.0,
            release_period=args.window,
        ),
        seed=args.seed,
    )
    rng = random.Random(args.seed)
    providers = sorted(PAPER_HASHPOWER_SHARES)
    systems = []
    for index in range(args.releases):
        system = corpus.next_release()
        systems.append(system)
        platform.announce_release(
            rng.choice(providers), system,
            insurance_wei=to_wei(args.insurance), at_time=index * args.window,
        )
    platform.advance_until(args.releases * args.window + args.window)
    platform.finish_pending()

    explorer = Explorer(platform.runtime)
    consumer = ConsumerClient(platform.chain)

    print(f"campaign: {args.releases} releases, VP={args.vp}, "
          f"insurance={args.insurance} ETH, seed={args.seed}")
    print(f"simulated time: {platform.now / 60:.0f} min, "
          f"blocks mined: {platform.blocks_mined}")
    print(f"observed vulnerable fraction: "
          f"{explorer.vulnerable_release_fraction():.2f}\n")

    print("providers (mined income vs punishments, ETH):")
    for name in providers:
        print(f"  {name:<12} +{from_wei(platform.provider_incentives_wei(name)):>8.1f}"
              f"  -{from_wei(platform.punishments_wei[name]):>8.1f}")

    print("\ndetector leaderboard (ETH):")
    for detector_id, earned in explorer.top_detectors():
        print(f"  {detector_id:<12} {from_wei(earned):>8.0f}")

    print("\nconsumer decisions:")
    for system in systems:
        deploy = consumer.should_deploy(system.name, system.version)
        truth = "vulnerable" if system.is_vulnerable else "clean"
        print(f"  {system.name:<14} ground truth: {truth:<11} "
              f"deploy? {'yes' if deploy else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
