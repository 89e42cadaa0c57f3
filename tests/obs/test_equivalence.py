"""Bit-inertness: enabling observability never changes seeded results.

The obs layer's core contract — metrics observe the run, they never
participate in it. Enforced over the PR-3 equivalence grid (strategy ×
adversary × vote mode) for the scalar engine, the batched engine, and
directly on the asynchronous engine, plus the fault-injected path. Every
cell runs twice — with a live :class:`~repro.obs.registry.Registry` and
without — and the results must match to the last array element.
"""

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.obs.registry import Registry, observe

from tests.sim.test_batch_equivalence import (
    ADVERSARIES,
    GRID,
    STRATEGIES,
    _config,
    _run,
    assert_results_identical,
    factory,
)


class TestScalarGrid:
    @pytest.mark.parametrize("sname,aname,vname", GRID)
    def test_obs_is_bit_inert_scalar(self, sname, aname, vname):
        config = _config(vname)
        plain = _run(STRATEGIES[sname], ADVERSARIES[aname], config)
        registry = Registry()
        observed = _run(
            STRATEGIES[sname], ADVERSARIES[aname], config, obs=registry
        )
        assert_results_identical(plain, observed)
        assert registry.counters()["engine.rounds"] > 0
        assert registry.counters()["trial.completed"] == plain.n_trials


class TestBatchedGrid:
    @pytest.mark.parametrize("sname,aname,vname", GRID)
    def test_obs_is_bit_inert_batched(self, sname, aname, vname):
        config = _config(vname)
        plain = _run(
            STRATEGIES[sname], ADVERSARIES[aname], config, batch_lanes=3
        )
        registry = Registry()
        observed = _run(
            STRATEGIES[sname],
            ADVERSARIES[aname],
            config,
            batch_lanes=3,
            obs=registry,
        )
        assert_results_identical(plain, observed)
        assert registry.counters()["batch.rounds"] > 0
        assert registry.counters()["trial.batched"] == plain.n_trials


class TestFaultedPath:
    def test_obs_is_bit_inert_with_faults(self):
        plan = FaultPlan(post_loss_rate=0.2, crash_rate=0.05, restart_after=2)
        config = _config("single")
        plain = _run(
            STRATEGIES["distill"], ADVERSARIES["silent"], config,
            fault_plan=plan,
        )
        registry = Registry()
        observed = _run(
            STRATEGIES["distill"], ADVERSARIES["silent"], config,
            fault_plan=plan, obs=registry,
        )
        assert_results_identical(plain, observed)
        counters = registry.counters()
        assert "faults.crashes" in counters
        assert "faults.dropped_posts" in counters


class TestActiveRegistryPath:
    def test_process_wide_registry_is_bit_inert_too(self):
        config = _config("single")
        plain = _run(STRATEGIES["distill"], ADVERSARIES["split-vote"], config)
        with observe() as registry:
            observed = _run(
                STRATEGIES["distill"], ADVERSARIES["split-vote"], config
            )
        assert_results_identical(plain, observed)
        assert registry.counters()["engine.rounds"] > 0
        assert registry.manifest is not None
        assert registry.manifest == observed.manifest


class TestAsyncEngine:
    def _run_async(self, obs=None, seed=42):
        from repro.baselines.trivial import TrivialStrategy
        from repro.rng import RngFactory
        from repro.sim.async_engine import AsynchronousEngine, PerStepAdapter
        from repro.world.generators import planted_instance

        trial = RngFactory.from_seed(seed)
        world_rng = trial.spawn_generator()
        honest_rng = trial.spawn_generator()
        schedule_rng = trial.spawn_generator()
        instance = planted_instance(
            n=16, m=16, beta=0.25, alpha=0.75, rng=world_rng
        )
        engine = AsynchronousEngine(
            instance,
            PerStepAdapter(TrivialStrategy()),
            rng=honest_rng,
            schedule_rng=schedule_rng,
            obs=obs,
        )
        return engine.run()

    def test_obs_is_bit_inert_async(self):
        plain = self._run_async()
        registry = Registry()
        observed = self._run_async(obs=registry)
        assert np.array_equal(plain.probes, observed.probes)
        assert np.array_equal(plain.satisfied_step, observed.satisfied_step)
        assert plain.steps == observed.steps
        assert plain.all_honest_satisfied == observed.all_honest_satisfied
        counters = registry.counters()
        assert counters["async.steps"] == plain.steps
        assert counters["async.probes"] > 0


class TestManifestAttachment:
    def test_every_trial_results_carries_a_manifest(self):
        result = _run(STRATEGIES["distill"], ADVERSARIES["silent"],
                      _config("single"))
        assert result.manifest is not None
        assert result.manifest.n_trials == result.n_trials
        assert result.manifest.seed_entropy is not None

    def test_manifest_identical_across_engines(self):
        """Provenance depends on inputs, not the execution backend."""
        scalar = _run(STRATEGIES["distill"], ADVERSARIES["silent"],
                      _config("single"))
        batched = _run(STRATEGIES["distill"], ADVERSARIES["silent"],
                       _config("single"), batch_lanes=3)
        assert scalar.manifest == batched.manifest


class TestWorkerSnapshotPath:
    """The forked-pool contract, exercised in-process: a worker chunk
    accumulates into a fresh registry and returns its snapshot."""

    def _worker_chunk(self, monkeypatch, n_trials, observed):
        from repro.exec import local
        from repro.rng import RngFactory
        from repro.sim.runner import _run_chunk

        root = RngFactory.from_seed(42)
        chunk = [
            (index, fac.seed_sequence)
            for index, fac in enumerate(root.trial_factories(n_trials))
        ]
        state = dict(
            make_instance=factory(),
            make_strategy=STRATEGIES["distill"],
            make_adversary=ADVERSARIES["silent"],
            make_context=None,
            config=_config("single"),
            keep_metrics=False,
        )
        seen = []

        def run_chunk(units, obs):
            seen.append(obs)
            return _run_chunk(state, 1, units, obs)

        monkeypatch.setattr(local, "_WORKER", (run_chunk, observed))
        pairs, snapshot = local._pool_chunk(chunk)
        return pairs, snapshot, seen

    def test_worker_chunk_ships_a_snapshot(self, monkeypatch):
        """The chunk counts into a registry of its own, never the
        parent's, and ships that registry's snapshot home."""
        pairs, snapshot, seen = self._worker_chunk(monkeypatch, 2, True)
        assert len(pairs) == 2
        assert snapshot is not None
        assert snapshot["counters"]["trial.completed"] == 2
        assert isinstance(seen[0], Registry)
        assert seen[0].snapshot() == snapshot

    def test_no_registry_means_no_snapshot(self, monkeypatch):
        pairs, snapshot, seen = self._worker_chunk(monkeypatch, 1, False)
        assert len(pairs) == 1
        assert snapshot is None
        assert seen == [None]
