"""Public-API integrity: every ``__all__`` name resolves.

Catches drift between package ``__init__`` re-export lists and the
modules behind them — the failure mode of a large many-module library.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.adversary",
    "repro.analysis",
    "repro.chain",
    "repro.contracts",
    "repro.core",
    "repro.crypto",
    "repro.detection",
    "repro.economics",
    "repro.experiments",
    "repro.faults",
    "repro.network",
    "repro.store",
    "repro.telemetry",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_sorted(package_name):
    package = importlib.import_module(package_name)
    exported = list(package.__all__)
    assert exported == sorted(exported), f"{package_name}.__all__ not sorted"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_items_documented(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, f"{package_name} lacks a module docstring"
    for name in package.__all__:
        item = getattr(package, name)
        if callable(item) or isinstance(item, type):
            assert getattr(item, "__doc__", None), (
                f"{package_name}.{name} lacks a docstring"
            )


def test_experiment_registry_rows_are_the_exported_runners():
    package = importlib.import_module("repro.experiments")
    exported = {getattr(package, name) for name in package.__all__ if name[0].islower()}
    assert "Table I" in [row.label for row in package.EXPERIMENTS.values()]
    for row in package.EXPERIMENTS.values():
        assert row.run in exported, f"{row.name}: runner not in __all__"
        assert row.run.__doc__
