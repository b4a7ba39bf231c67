"""Run experiments: ``python -m repro.experiments [NAME ...] [--jobs N]``.

With no ``NAME`` the whole suite runs: every paper table/figure plus
the reproduction's own analyses (ablations, capability curves),
printed in registry order.  ``NAME`` is a key of
:data:`repro.experiments.runner.EXPERIMENTS` (``fig6``, ``table1``,
...); an unknown one exits 2 and lists them.  ``--jobs`` fans every
trial-shaped experiment out over worker processes via
:mod:`repro.experiments.runner`; results are bit-identical to the
serial run — only wall-clock time changes.

``--telemetry PATH`` arms a :class:`~repro.telemetry.Telemetry` for the
telemetry-aware experiments and exports the combined metrics + trace
to ``PATH`` as JSONL; ``--report PATH`` summarizes a previously
exported JSONL file and exits without running anything; a file that
cannot be read or parsed exits 2 with one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.experiments import EXPERIMENTS
from repro.telemetry import Telemetry, summarize_run


def _jobs(text: str) -> int:
    """``--jobs`` value: a worker count, ``0`` meaning one per core."""
    jobs = int(text)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {jobs}")
    return jobs


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
        type=_jobs,
        default=None,
        metavar="N",
        help="fan trial sweeps out over N worker processes "
        "(0 = one per core; default: serial; results are identical either way)",
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
        try:
            report = summarize_run(args.report)
        except (OSError, ValueError) as exc:
            print(f"cannot report {args.report}: {exc}", file=sys.stderr)
            return 2
        print(report)
        return 0
    telemetry = Telemetry() if args.telemetry is not None else None
    started = time.time()
    for row in map(EXPERIMENTS.get, args.names or EXPERIMENTS):
        print(f"--- {row.label} " + "-" * max(0, 60 - len(row.label)))
        result = row.run(jobs=args.jobs, telemetry=telemetry)
        result.to_table().print()
    if telemetry is not None:
        lines = telemetry.export_jsonl(args.telemetry)
        print(f"telemetry: {lines} JSONL lines -> {args.telemetry}")
    print(f"completed in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
