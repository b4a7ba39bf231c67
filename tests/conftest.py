"""Shared fixtures for the SmartCrowd reproduction test suite."""

from __future__ import annotations

import functools
import random

import pytest

from repro.crypto.keys import KeyPair
from repro.experiments import EXPERIMENTS


@pytest.fixture(scope="session")
def default_result():
    """``default_result(name)``: registry row ``name`` run at its default
    sizes and seed, once per session for every test that reads it."""
    return functools.lru_cache(maxsize=None)(lambda name: EXPERIMENTS[name].run())


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
