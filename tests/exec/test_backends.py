"""Backend equivalence: serial and the fork pool, same bits.

The backends' correctness contract is single-sentence: for one seed,
``run_trials`` returns bit-identical ``per_trial`` arrays whichever
backend ran the trials. These tests pin that sentence, plus the
provenance trail (the manifest's ``executor`` field) that says what the
backend actually did, including a pool's hand-off to serial execution
when its workers keep dying. Crash retries themselves are pinned by
``tests/sim/test_runner.py::TestBrokenPoolRecovery``.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.baselines.trivial import TrivialStrategy
from repro.errors import ConfigurationError
from repro.exec import LocalPoolExecutor, SerialExecutor
from repro.obs.registry import Registry
from repro.sim.runner import run_trials
from repro.world.generators import planted_instance


def factory(n=16, m=16, beta=0.25, alpha=0.75):
    return lambda rng: planted_instance(
        n=n, m=m, beta=beta, alpha=alpha, rng=rng
    )


def crash_in_pool_worker(rng):
    """An instance factory that hard-kills any pool worker calling it."""
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return factory()(rng)


def sweep(executor=None, n_trials=8, seed=42, **kwargs):
    return run_trials(
        factory(),
        TrivialStrategy,
        n_trials=n_trials,
        seed=seed,
        executor=executor,
        **kwargs,
    )


def assert_identical(a, b):
    assert set(a.per_trial) == set(b.per_trial)
    for key in a.per_trial:
        assert np.array_equal(a.per_trial[key], b.per_trial[key]), key


class TestEquivalence:
    def test_serial_name_matches_default(self):
        assert_identical(sweep(), sweep(executor="serial"))

    def test_serial_instance_matches_default(self):
        assert_identical(sweep(), sweep(executor=SerialExecutor()))

    def test_local_pool_matches_serial(self):
        assert_identical(sweep(), sweep(executor="local", n_jobs=2))

    def test_local_instance_without_fork_viability_matches_serial(self):
        # n_jobs=1: the pool is not viable, the backend runs in-process
        assert_identical(
            sweep(), sweep(executor=LocalPoolExecutor(n_jobs=1))
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            sweep(executor="socket")

    def test_non_executor_object_rejected(self):
        with pytest.raises(ConfigurationError, match="Executor instance"):
            sweep(executor=42)


class TestManifestReport:
    def test_serial_backend_recorded(self):
        manifest = sweep(executor="serial").manifest
        assert manifest.executor["backend"] == "serial"
        assert manifest.executor["degraded_from"] == []

    def test_local_pool_roster_recorded(self):
        manifest = sweep(executor="local", n_jobs=2).manifest
        assert manifest.executor["backend"] == "local"
        assert manifest.executor["workers"]  # at least one pool worker


class TestDegradation:
    def test_pool_failure_degrades_to_serial(self):
        registry = Registry()
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            degraded = run_trials(
                crash_in_pool_worker,
                TrivialStrategy,
                n_trials=8,
                seed=42,
                executor="local",
                n_jobs=2,
                max_retries=0,
                backoff_base=0.0,
                obs=registry,
            )
        assert_identical(sweep(), degraded)
        report = degraded.manifest.executor
        assert report["backend"] == "serial"
        assert report["degraded_from"] == ["local"]
        assert registry.counters()["exec.degraded"] == 1
