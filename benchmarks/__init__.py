"""Benchmark lanes outside tier-1.

``test_bench_*`` files regenerate one paper table/figure each, print
the paper-vs-measured rows and assert the reproduction's shape criteria
(DESIGN.md §4); timings reported by pytest-benchmark measure the cost
of regenerating the result.  ``substrate.py`` is the probe registry
behind ``scripts/run_bench.sh`` and ``test_bench_gates.py`` — fast
paths against their slow oracles.  End-to-end performance lives in the
top-level ``bench/`` package.
"""
