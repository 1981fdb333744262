"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import config


@pytest.fixture(autouse=True)
def _hermetic_repro_env(monkeypatch):
    """Run every test as if no ``REPRO_*`` variable were exported.

    Tests that need one set it with ``monkeypatch``.  The knob table's
    session values go back to their unread state as well, before and
    after, so a value read outside the test cannot leak in through a
    cache and a value the test pins cannot leak out.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    config.reset()
    yield
    config.reset()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator; per-test isolation via fixed seed."""
    return np.random.default_rng(20050608)


@pytest.fixture
def rng_factory():
    """Factory for independent deterministic generators."""

    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(1_000_003 + seed)

    return make
