"""Shared fixtures for the SmartCrowd reproduction test suite."""

from __future__ import annotations

import ast
import functools
import pathlib
import random
from typing import NamedTuple, Tuple

import pytest

from repro.crypto.keys import KeyPair
from repro.experiments import EXPERIMENTS


@pytest.fixture(scope="session")
def default_result():
    """``default_result(name)``: registry row ``name`` run at its default
    sizes and seed, once per session for every test that reads it."""
    return functools.lru_cache(maxsize=None)(lambda name: EXPERIMENTS[name].run())


#: The package the structural guards (``tests/test_one_*.py``) walk.
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class SourceModule(NamedTuple):
    """One module under ``src/repro``, parsed and walked."""

    #: Path below ``src/repro``, posix (``core/distributed.py``).
    module: str
    text: str
    tree: ast.Module
    #: Every node of ``tree``, in ``ast.walk`` order.
    nodes: Tuple[ast.AST, ...]


@pytest.fixture(scope="session")
def src_modules() -> Tuple[SourceModule, ...]:
    """Every module under ``src/repro``, parsed and walked once per
    session for every structural guard that reads the source."""
    modules = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        modules.append(
            SourceModule(
                path.relative_to(SRC).as_posix(), text, tree, tuple(ast.walk(tree))
            )
        )
    return tuple(modules)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def provider_keys() -> KeyPair:
    """A provider keypair."""
    return KeyPair.from_seed(b"test-provider")


@pytest.fixture
def detector_keys() -> KeyPair:
    """A detector keypair."""
    return KeyPair.from_seed(b"test-detector")


@pytest.fixture
def other_keys() -> KeyPair:
    """A third-party keypair (attackers, bystanders)."""
    return KeyPair.from_seed(b"test-other")
