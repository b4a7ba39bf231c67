"""The gate table in docs/PERFORMANCE.md must match what
``scripts/gen_perf_gates.py`` generates.

The table is checked in (greppable offline), so editing a row by hand,
changing a bound in ``benchmarks/substrate.py`` or refreshing
``BENCH_substrate.json`` without regenerating it is a tier-1 failure
with a copy-pasteable fix.
"""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_generator():
    script = REPO_ROOT / "scripts" / "gen_perf_gates.py"
    spec = importlib.util.spec_from_file_location("gen_perf_gates", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_table_is_current():
    generator = _load_generator()
    checked_in = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
    assert generator.render() in checked_in, (
        "the gate table in docs/PERFORMANCE.md is stale — regenerate it with "
        "`PYTHONPATH=src python scripts/gen_perf_gates.py`"
    )
