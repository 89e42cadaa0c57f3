"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.billboard.board import Billboard
from repro.exec.deadline import trial_deadline
from repro.strategies.base import StrategyContext
from repro.world.generators import planted_instance

#: wall-clock cap per test, in seconds: a hang fails the test with
#: TrialTimeoutError instead of stalling the whole suite
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _fail_on_hang():
    """Run each test under the deadline watchdog (no plugin needed).

    On the main thread the watchdog signals SIGALRM, which interrupts
    sleeps and blocking waits as well as busy loops.
    """
    with trial_deadline(TEST_TIMEOUT_S):
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator; tests needing other seeds build their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_instance(rng):
    """A small planted world: 32 players, 32 objects, 4 good, 24 honest."""
    return planted_instance(n=32, m=32, beta=4 / 32, alpha=0.75, rng=rng)


@pytest.fixture
def board() -> Billboard:
    return Billboard(n_players=8, n_objects=16)


@pytest.fixture
def ctx() -> StrategyContext:
    return StrategyContext(
        n=32, m=32, alpha=0.75, beta=0.125, good_threshold=0.5
    )
