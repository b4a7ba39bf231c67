"""Benchmark lanes outside tier-1.

``test_bench_shapes.py`` regenerates each paper table/figure, prints
the paper-vs-measured rows and asserts the reproduction's shape
criteria (DESIGN.md §4).  ``substrate.py`` records the 10k/100k-node
sharded fleet points behind ``scripts/run_bench.sh``.  End-to-end
performance lives in the top-level ``bench/`` package.
"""
