"""Backend equivalence: serial and the fork pool, same bits.

The backends' correctness contract is single-sentence: for one seed,
``run_trials`` returns bit-identical ``per_trial`` arrays whichever
backend ran the trials. These tests pin that sentence, plus the
provenance trail (the manifest's ``executor`` field) that says what the
backend actually did, including a pool's hand-off to serial execution
when its workers keep dying. ``n_jobs`` picks the backend; ``executor``
takes only ``None`` and ``"serial"``. Crash retries themselves are
pinned by ``tests/sim/test_runner.py::TestBrokenPoolRecovery``.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.baselines.trivial import TrivialStrategy
from repro.errors import ConfigurationError
from repro.exec import local
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

    def test_local_pool_matches_serial(self):
        assert_identical(sweep(), sweep(n_jobs=2))

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            sweep(executor="socket")

    def test_non_executor_object_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            sweep(executor=42)

    def test_local_name_refused(self):
        """``n_jobs`` picks the pool; there is no second way to ask."""
        with pytest.raises(ConfigurationError, match="unknown executor"):
            sweep(executor="local", n_jobs=2)


def report_of(backend, workers=(), retries=0, worker_losses=0, degraded_from=()):
    return {
        "backend": backend,
        "workers": list(workers),
        "retries": retries,
        "worker_losses": worker_losses,
        "degraded_from": list(degraded_from),
    }


class TestManifestReport:
    def test_serial_backend_recorded(self):
        assert sweep(executor="serial").manifest.executor == report_of("serial")

    def test_serial_name_overrides_n_jobs(self):
        assert sweep(executor="serial", n_jobs=2).manifest.executor == (
            report_of("serial")
        )

    def test_local_pool_roster_recorded(self):
        manifest = sweep(n_jobs=2).manifest
        assert manifest.executor == report_of("local", ["w0", "w1"])


class TestDegradation:
    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(local, "POOL_REBUILDS", 0)
        registry = Registry()
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            degraded = run_trials(
                crash_in_pool_worker,
                TrivialStrategy,
                n_trials=8,
                seed=42,
                n_jobs=2,
                obs=registry,
            )
        assert_identical(sweep(), degraded)
        assert degraded.manifest.executor == report_of(
            "serial", ["w0", "w1"], worker_losses=1, degraded_from=["local"]
        )
        assert registry.counters()["exec.degraded"] == 1
