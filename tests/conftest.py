"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.faults as faults
import repro.parallel.executor as executor


@pytest.fixture(autouse=True)
def _hermetic_repro_env(monkeypatch):
    """Run every test as if no ``REPRO_*`` variable were exported.

    Tests that need one set it with ``monkeypatch``.  The env-seeded
    session defaults go back to their unread state as well, so a value
    read before the test started cannot leak in through a cache.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    monkeypatch.setattr(executor, "_DEFAULT_WORKERS", None)
    monkeypatch.setattr(executor, "_WORKERS_SOURCE", "default")
    monkeypatch.setattr(executor, "_DEFAULT_SCHEDULE", None)
    monkeypatch.setattr(executor, "_SCHEDULE_SOURCE", "default")
    monkeypatch.setattr(faults, "_SESSION_PLAN", None)


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
