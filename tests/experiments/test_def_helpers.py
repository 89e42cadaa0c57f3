"""Unit tests for the experiment definitions' internal helpers."""


from repro.experiments.common import measure, planted_factory
from repro.experiments.defs.e04_epsilon_constant import (
    _instance_with_dishonest,
)
from repro.experiments.defs.e12_three_phase import _run_cell
from repro.experiments.defs.e13_async_model import (
    _async_trials,
    _sync_trials,
)
from repro.adversaries.flood import FloodAdversary
from repro.baselines.trivial import TrivialStrategy
from repro.sim.async_engine import PerStepAdapter
from repro.sim.schedules import RoundRobinSchedule
from repro.baselines.async_ec04 import AsyncEC04Strategy


class TestCommon:
    def test_planted_factory_builds_requested_world(self, rng):
        inst = planted_factory(32, 64, 0.25, 0.5)(rng)
        assert inst.n == 32
        assert inst.m == 64
        assert inst.space.good_mask.sum() == 16

    def test_measure_runs_trials(self):
        res = measure(
            planted_factory(16, 16, 0.25, 1.0),
            TrivialStrategy,
            trials=3,
            seed=1,
        )
        assert res.n_trials == 3

    def test_measure_ignores_retired_engine_env_vars(self, monkeypatch):
        """The lane-count and post-log environment variables are gone:
        ``measure`` runs the scalar engine on the board picked by size
        (the hash-chained one at this n) whatever they say."""
        from repro.obs.registry import observe

        monkeypatch.setenv("REPRO_BATCH_LANES", "8")
        monkeypatch.setenv("REPRO_SUBSTRATE", "sparse")
        with observe() as registry:
            res = measure(
                planted_factory(16, 16, 0.25, 1.0),
                TrivialStrategy,
                trials=8,
                seed=1,
            )
        counters = registry.counters()
        assert res.n_trials == 8
        assert "trial.batched" not in counters
        assert counters.get("substrate.dense") == 8
        assert "substrate.sparse" not in counters


class TestE04Helper:
    def test_exact_dishonest_count(self, rng):
        inst = _instance_with_dishonest(64, 1 / 8, 10, rng)
        assert inst.n_dishonest == 10
        assert inst.n == 64

    def test_zero_dishonest(self, rng):
        inst = _instance_with_dishonest(64, 1 / 8, 0, rng)
        assert inst.alpha == 1.0

    def test_good_fraction_preserved(self, rng):
        inst = _instance_with_dishonest(64, 1 / 8, 5, rng)
        assert inst.space.good_mask.sum() == 8


class TestE12Helper:
    def test_cell_reports_all_statistics(self):
        cell = _run_cell(
            n=64,
            adversary_factory=FloodAdversary,
            trials=3,
            seed=5,
        )
        assert set(cell) == {
            "c2_size",
            "c3_size",
            "good_in_c2",
            "good_in_c3",
            "satisfied_frac",
        }
        assert 0.0 <= cell["good_in_c2"] <= 1.0


class TestE13Helpers:
    def test_async_trials_aggregates(self):
        out = _async_trials(
            lambda: PerStepAdapter(AsyncEC04Strategy()),
            RoundRobinSchedule,
            n=32,
            beta=1 / 8,
            trials=2,
            seed=3,
            victim=0,
        )
        assert out["probes"] > 0
        assert out["steps"] > 0
        assert out["victim_probes"] is not None

    def test_sync_trials_aggregates(self):
        out = _sync_trials(AsyncEC04Strategy, n=32, beta=1 / 8, trials=2,
                           seed=3)
        assert out["probes"] > 0
        assert out["rounds"] > 0
