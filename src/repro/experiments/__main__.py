"""Run experiments: ``python -m repro.experiments [NAME ...] [--jobs N]``.

With no ``NAME`` the whole suite runs: every paper table/figure plus
the reproduction's own analyses (ablations, capability curves),
printed in registry order.  ``NAME`` is a key of
:data:`repro.experiments.runner.EXPERIMENTS` (``fig6``, ``table1``,
...); an unknown one exits 2 and lists them.  ``--jobs`` fans every
trial-shaped experiment out over worker processes via
:mod:`repro.experiments.runner`; results are bit-identical to the
serial run — only wall-clock time changes.

``--checkpoint PATH`` journals every completed trial to a JSONL file
keyed by ``(experiment, master_seed, trial_index, input_digest)``;
rerunning with ``--checkpoint PATH --resume`` skips trials already in
the journal, so an interrupted suite picks up where it stopped and
finishes with results identical to an uninterrupted run.  Without
``--resume`` the journal is truncated first (a fresh sweep).

``--telemetry PATH`` arms a :class:`~repro.telemetry.Telemetry` for the
telemetry-aware experiments and exports the combined metrics + trace
to ``PATH`` as JSONL; ``--report PATH`` summarizes a previously
exported JSONL file and exits without running anything.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.experiments import EXPERIMENTS
from repro.telemetry import Telemetry, summarize_run


def build_parser() -> argparse.ArgumentParser:
    """The experiment-suite CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="regenerate every paper table/figure and reproduction analysis",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="experiments to run (default: all): " + " ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan trial sweeps out over N worker processes "
        "(0 = one per core; default: serial; results are identical either way)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal completed trials to PATH (JSONL); combine with "
        "--resume to skip trials already journaled there",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="keep the existing --checkpoint journal and skip completed "
        "trials (default: truncate it and start fresh)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="record metrics + trace events for the telemetry-aware "
        "experiments and export them to PATH as JSONL",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="summarize a previously exported telemetry JSONL file and exit",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    """Run the named experiments (default all); returns an exit code."""
    args = build_parser().parse_args(argv)
    unknown = [name for name in args.names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment {' '.join(unknown)}; choose from: "
            + " ".join(EXPERIMENTS),
            file=sys.stderr,
        )
        return 2
    if args.report is not None:
        print(summarize_run(args.report))
        return 0
    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.checkpoint is not None and not args.resume:
        # A fresh sweep: drop any stale journal so old trials can't be
        # replayed into a run they no longer belong to.
        open(args.checkpoint, "w").close()
    telemetry = Telemetry() if args.telemetry is not None else None
    started = time.time()
    for row in map(EXPERIMENTS.get, args.names or EXPERIMENTS):
        print(f"--- {row.label} " + "-" * max(0, 60 - len(row.label)))
        result = row.run(
            jobs=args.jobs, checkpoint=args.checkpoint, telemetry=telemetry
        )
        result.to_table().print()
    if telemetry is not None:
        lines = telemetry.export_jsonl(args.telemetry)
        print(f"telemetry: {lines} JSONL lines -> {args.telemetry}")
    print(f"completed in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
