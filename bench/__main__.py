"""``python -m bench`` — measure, run, verify, compare.

``measure`` is the driver's contract: one workload, in this process,
last stdout line one JSON object.  ``run`` is the developer's command:
every workload, each in its own fresh subprocess (so ``peak_rss_mb`` is
per workload and one workload's heap cannot skew the next), every
metric printed by name with its unit, optionally followed by the traced
pass and its reconciliation check.  ``verify`` is the determinism
check; ``compare`` judges the runs in one ``run --output`` file against
the runs in another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

_ROOT = Path(__file__).resolve().parent.parent
# ``PYTHONPATH=src`` is the repo's convention; the driver passes no
# environment, so fall back to the checkout's own src/.
if (_ROOT / "src").is_dir() and str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from bench import compare, history, spec  # noqa: E402 - after the path fix
from bench.harness import OUT_DIR, CheckFailed, measure  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: Timed budget per workload, fixed by the benchmark: what ``run`` uses
#: and what BENCHMARK.json's run_seconds makes the driver pass.
RUN_SECONDS = 20


def _contract_line(result, traced: bool) -> str:
    """The driver's result object: exactly four keys."""
    if traced:
        metrics = {
            name: {"value": value, "unit": spec.PER_LAYER_UNITS[name]}
            for name, value in result.per_layer.items()
        }
    else:
        metrics = {
            name: {
                "value": result.end_to_end[name]["value"],
                "unit": spec.end_to_end(name)["unit"],
            }
            for name in spec.CONTRACT_END_TO_END
        }
    return json.dumps(
        {
            "correct": True,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
    )


def cmd_measure(args: argparse.Namespace) -> int:
    result = measure(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        quick=args.quick,
        **({"min_repetitions": args.repetitions} if args.repetitions else {}),
    )
    if args.detail:
        Path(args.detail).write_text(json.dumps(result.to_dict()))
    print(_contract_line(result, bool(args.trace)))
    return 0


def _measure_in_subprocess(
    workload: str, seed: int, seconds: float, traced: bool, quick: bool,
    repetitions: Optional[int] = None,
) -> Dict[str, Any]:
    """One workload in a fresh interpreter; returns its detail record."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"detail-{workload}-{seed}-{int(traced)}.json"
    command = [
        sys.executable, "-m", "bench", "measure",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--detail", str(detail),
    ]
    if quick:
        command.append("--quick")
    if repetitions:
        command += ["--repetitions", str(repetitions)]
    completed = subprocess.run(command, cwd=_ROOT, capture_output=True, text=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise CheckFailed(f"{workload}: measure exited {completed.returncode}")
    record = json.loads(detail.read_text())
    detail.unlink()
    return record


def _print_end_to_end(record: Dict[str, Any]) -> None:
    workload = record["workload"]
    work = spec.WORKLOADS[workload]["work"]
    print(f"{workload}  seed={record['seed']}  digest={record['digest'][:16]}"
          f"  attempted={record['attempted']} failed={record['failed']}"
          f"  (operation = {spec.WORKLOADS[workload]['operation']};"
          f" host slowdown {record['mean_slowdown']:.2f}x of a"
          f" {record['nominal_chunk_us']:.0f} us reference chunk)")
    for row in spec.END_TO_END:
        name = row["name"]
        if name not in record["end_to_end"]:
            continue
        stats = record["end_to_end"][name]
        unit = f"{work}/s" if name == "throughput" else row["unit"]
        beside = f"n={stats['n']}"
        if "raw_best" in stats:
            beside = (f"raw best / median repetition {stats['raw_best']:.6g} / "
                      f"{stats['raw_median']:.6g}, {beside}")
        print(f"  {name:<14} {stats['value']:>14.6g} {unit}  ({beside})")


def _print_per_layer(record: Dict[str, Any]) -> None:
    print(f"{record['workload']}  traced  -> {record['trace_path']}")
    for name, value in record["per_layer"].items():
        if value:
            print(f"  {name:<32} {value:>14.6g} {spec.PER_LAYER_UNITS[name]}")


def _reconcile(record: Dict[str, Any]) -> List[str]:
    """The traced pass's own acceptance: layers add up, tracing is cheap."""
    layers = record["per_layer"]
    problems = []
    if layers["unattributed.share"] > spec.MAX_UNATTRIBUTED_SHARE:
        problems.append(
            f"{record['workload']}: unattributed.share "
            f"{layers['unattributed.share']:.3f} > {spec.MAX_UNATTRIBUTED_SHARE}"
        )
    if layers["trace.overhead_ratio"] > spec.MAX_TRACE_OVERHEAD:
        problems.append(
            f"{record['workload']}: trace.overhead_ratio "
            f"{layers['trace.overhead_ratio']:.3f} > {spec.MAX_TRACE_OVERHEAD}"
        )
    return problems


def cmd_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    records, traced_records, problems = [], [], []
    for name in names:
        record = _measure_in_subprocess(name, args.seed, RUN_SECONDS, False, args.quick)
        _print_end_to_end(record)
        records.append(record)
    if args.traced:
        for name in names:
            record = _measure_in_subprocess(name, args.seed, RUN_SECONDS, True, args.quick)
            _print_per_layer(record)
            traced_records.append(record)
            problems += _reconcile(record)
    entry = history.entry(args.seed, args.quick, records, traced_records)
    if args.output:
        history.append(entry, Path(args.output))
    if args.record:
        history.append(entry)
    for problem in problems:
        print(f"RECONCILIATION FAILED  {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    failures = []
    for name in names:
        first, second, other = (
            _measure_in_subprocess(name, seed, 0, True, args.quick, repetitions=2)
            for seed in (args.seed, args.seed, args.seed + 1)
        )
        print(f"{name}  seed {args.seed}: {first['digest'][:16]} / "
              f"{second['digest'][:16]}   seed {args.seed + 1}: {other['digest'][:16]}")
        if first["digest"] != second["digest"]:
            failures.append(f"{name}: one seed, two digests")
        if first["digest"] == other["digest"]:
            failures.append(f"{name}: a different seed left the digest unchanged")
        for metric in spec.DETERMINISTIC:
            if first["per_layer"][metric] != second["per_layer"][metric]:
                failures.append(
                    f"{name}: {metric} {first['per_layer'][metric]} != "
                    f"{second['per_layer'][metric]} on one seed"
                )
    for failure in failures:
        print(f"NOT DETERMINISTIC  {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        rows = compare.compare(compare.load(args.a), compare.load(args.b))
    except compare.Incomparable as error:
        print(f"NOT COMPARABLE  {error}", file=sys.stderr)
        return 2
    print(compare.render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("measure", help="one workload, driver contract")
    one.add_argument("--workload", required=True, choices=list(WORKLOADS))
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--quick", action="store_true", help="smoke-test sizes")
    one.add_argument("--repetitions", type=int, help="repetition floor")
    one.add_argument("--detail", help="also write the full record here")
    one.set_defaults(handler=cmd_measure)

    run = commands.add_parser("run", help="every workload, every metric")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--workload", choices=list(WORKLOADS))
    run.add_argument("--traced", action="store_true", help="add the traced pass")
    run.add_argument("--quick", action="store_true", help="smoke-test sizes")
    run.add_argument("--record", action="store_true", help="append to history.jsonl")
    run.add_argument("--output", help="append this run to a file (one side of compare)")
    run.set_defaults(handler=cmd_run)

    verify = commands.add_parser("verify", help="determinism check")
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--workload", choices=list(WORKLOADS))
    verify.add_argument("--quick", action="store_true", help="smoke-test sizes")
    verify.set_defaults(handler=cmd_verify)

    judge = commands.add_parser("compare", help="judge the runs of B against A's")
    judge.add_argument("a", help="file of run --output entries: the base")
    judge.add_argument("b", help="file of run --output entries: the change")
    judge.set_defaults(handler=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CheckFailed as error:
        print(f"CHECK FAILED  {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
