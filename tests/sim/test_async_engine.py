"""Tests for the asynchronous engine and the timestamp-barrier adapter."""

import numpy as np
import pytest

from repro.baselines.async_ec04 import AsyncEC04Strategy
from repro.baselines.trivial import TrivialStrategy
from repro.core.distill import DistillStrategy
from repro.errors import BudgetExceededError
from repro.sim.async_engine import (
    AsynchronousEngine,
    AsyncStrategy,
    PerStepAdapter,
)
from repro.sim.engine import SynchronousEngine
from repro.sim.schedules import (
    RandomSchedule,
    RoundRobinSchedule,
    SoloFirstSchedule,
)
from repro.sim.sync_adapter import SynchronizedDistillAdapter
from repro.world.generators import planted_instance, valued_instance


def world(n=64, beta=1 / 8, alpha=1.0, seed=3):
    return planted_instance(
        n=n, m=n, beta=beta, alpha=alpha, rng=np.random.default_rng(seed)
    )


class TestAsyncEngine:
    def test_round_robin_run_completes(self):
        engine = AsynchronousEngine(
            world(),
            PerStepAdapter(TrivialStrategy()),
            rng=np.random.default_rng(1),
        )
        metrics = engine.run()
        assert metrics.all_honest_satisfied
        assert metrics.total_honest_probes == metrics.honest_probes.sum()

    def test_individual_probes_match_sync_shape(self):
        """Per-probe cost of trivial search is schedule-independent:
        async round robin gives the same geometric mean cost."""
        beta = 1 / 8
        engine = AsynchronousEngine(
            world(n=128, beta=beta),
            PerStepAdapter(TrivialStrategy()),
            rng=np.random.default_rng(5),
        )
        metrics = engine.run()
        assert 5.0 < metrics.mean_individual_probes < 12.0

    def test_step_budget_enforced(self):
        class Stubborn(AsyncStrategy):
            name = "stubborn"

            def step(self, step_no, player, view):
                return -1  # never probes, never halts

        engine = AsynchronousEngine(
            world(),
            Stubborn(),
            max_steps=50,
            strict=True,
        )
        with pytest.raises(BudgetExceededError):
            engine.run()

    def test_lenient_budget_returns_partial(self):
        engine = AsynchronousEngine(
            world(n=64, beta=1 / 64),
            PerStepAdapter(TrivialStrategy()),
            max_steps=10,
            strict=False,
            rng=np.random.default_rng(2),
        )
        metrics = engine.run()
        assert metrics.steps == 10

    def test_solo_first_forces_solo_cost(self):
        """The Section 1.2 degenerate schedule: the victim pays ~1/beta
        on its own while round-robin players share the work."""
        beta = 1 / 16
        costs = []
        for seed in range(15):
            engine = AsynchronousEngine(
                world(n=64, beta=beta, seed=seed),
                PerStepAdapter(AsyncEC04Strategy()),
                schedule=SoloFirstSchedule(victim=0),
                rng=np.random.default_rng((100, seed)),
            )
            costs.append(engine.run().probes_of(0))
        # solo probes are geometric(beta), mean 1/beta = 16; fifteen
        # trials put the sample mean below 6.4 with probability << 1%
        assert np.mean(costs) > 0.4 / beta


class TestSynchronizedAdapter:
    def test_matches_synchronous_distill(self):
        """Mean probes under the timestamp barrier (random schedule)
        match the synchronous engine within sampling noise."""
        async_costs, sync_costs = [], []
        for seed in range(6):
            inst = world(n=96, beta=1 / 8, seed=seed)
            async_ss, sched_ss, sync_ss = np.random.SeedSequence(
                seed
            ).spawn(3)
            a = AsynchronousEngine(
                inst,
                SynchronizedDistillAdapter(),
                schedule=RandomSchedule(),
                rng=np.random.default_rng(async_ss),
                schedule_rng=np.random.default_rng(sched_ss),
            ).run()
            s = SynchronousEngine(
                inst, DistillStrategy(), rng=np.random.default_rng(sync_ss)
            ).run()
            async_costs.append(a.mean_individual_probes)
            sync_costs.append(s.mean_individual_probes)
            assert a.all_honest_satisfied
        assert np.mean(async_costs) == pytest.approx(
            np.mean(sync_costs), rel=0.3
        )

    def test_virtual_rounds_track_sync_rounds(self):
        inst = world(n=96, beta=1 / 8, seed=11)
        a = AsynchronousEngine(
            inst,
            SynchronizedDistillAdapter(),
            schedule=RandomSchedule(),
            rng=np.random.default_rng(12),
            schedule_rng=np.random.default_rng(13),
        ).run()
        s = SynchronousEngine(
            inst, DistillStrategy(), rng=np.random.default_rng(14)
        ).run()
        assert a.strategy_info["max_virtual_round"] <= 2 * s.rounds + 2

    def test_barrier_waits_happen_under_random_schedule(self):
        inst = world(n=64, beta=1 / 8, seed=21)
        a = AsynchronousEngine(
            inst,
            SynchronizedDistillAdapter(),
            schedule=RandomSchedule(),
            rng=np.random.default_rng(22),
            schedule_rng=np.random.default_rng(23),
        ).run()
        assert a.strategy_info["barrier_waits"] > 0

    def test_no_waits_under_round_robin(self):
        """Round robin never schedules a player ahead of the barrier."""
        inst = world(n=64, beta=1 / 8, seed=31)
        a = AsynchronousEngine(
            inst,
            SynchronizedDistillAdapter(),
            schedule=RoundRobinSchedule(),
            rng=np.random.default_rng(32),
        ).run()
        assert a.strategy_info["barrier_waits"] == 0

    def test_unfair_schedule_stalls_synchronous_protocol(self):
        """Under solo-first the barrier can never release: a synchronous
        protocol makes no progress without fairness — the model-level
        point of Section 1.2."""
        inst = world(n=16, beta=1 / 4, seed=41)
        engine = AsynchronousEngine(
            inst,
            SynchronizedDistillAdapter(),
            schedule=SoloFirstSchedule(victim=0),
            max_steps=2000,
            strict=False,
            rng=np.random.default_rng(42),
        )
        metrics = engine.run()
        assert not metrics.all_honest_satisfied

    def test_requires_local_testing(self):
        inst = valued_instance(
            n=16, m=16, beta=0.25, alpha=1.0, rng=np.random.default_rng(0)
        )
        engine = AsynchronousEngine(inst, SynchronizedDistillAdapter())
        with pytest.raises(ValueError):
            engine.run()


class TestAsyncAdversary:
    def test_adversary_votes_land_on_async_board(self):
        from repro.adversaries.flood import FloodAdversary

        inst = world(alpha=0.5, seed=51)
        engine = AsynchronousEngine(
            inst,
            PerStepAdapter(AsyncEC04Strategy()),
            adversary=FloodAdversary(),
            rng=np.random.default_rng(52),
            adversary_rng=np.random.default_rng(53),
        )
        engine.run()
        dishonest_votes = [
            p
            for p in engine.board.vote_posts()
            if not inst.honest_mask[p.player]
        ]
        assert len(dishonest_votes) == inst.n_dishonest

    def test_adversary_cannot_impersonate_honest_async(self):
        from repro.adversaries.base import Adversary
        from repro.billboard.post import PostBlock
        from repro.errors import AdversaryViolationError

        class Impostor(Adversary):
            name = "impostor"

            def act(self, round_no, view):
                honest = int(
                    np.flatnonzero(self.instance.honest_mask)[0]
                )
                return PostBlock.votes([honest], [0])

        inst = world(alpha=0.5, seed=61)
        engine = AsynchronousEngine(
            inst,
            PerStepAdapter(AsyncEC04Strategy()),
            adversary=Impostor(),
            rng=np.random.default_rng(62),
        )
        with pytest.raises(AdversaryViolationError):
            engine.run()

    def test_bad_advice_slows_but_does_not_stop(self):
        from repro.adversaries.flood import FloodAdversary

        inst = world(n=128, beta=1 / 128, alpha=0.5, seed=71)
        attacked = AsynchronousEngine(
            inst,
            PerStepAdapter(AsyncEC04Strategy()),
            adversary=FloodAdversary(),
            rng=np.random.default_rng(72),
            adversary_rng=np.random.default_rng(73),
        ).run()
        assert attacked.all_honest_satisfied


class TestAdapterHelpers:
    def test_sync_reference_strategy_matches_params(self):
        from repro.core.parameters import DistillParameters
        from repro.sim.sync_adapter import sync_reference_strategy

        params = DistillParameters(k1=2.0, k2=4.0)
        strategy = sync_reference_strategy(params)
        assert strategy.params is params

    def test_adapter_info_reports_barrier_statistics(self):
        inst = world(n=32, beta=1 / 4, seed=81)
        engine = AsynchronousEngine(
            inst,
            SynchronizedDistillAdapter(),
            schedule=RandomSchedule(),
            rng=np.random.default_rng(82),
            schedule_rng=np.random.default_rng(83),
        )
        metrics = engine.run()
        info = metrics.strategy_info
        assert "barrier_waits" in info
        assert "max_virtual_round" in info
        assert info["algorithm"] == "async(distill+timestamps)"


class TestLenientPartialMetrics:
    """Pin the strict=False contract on the async engine: max_steps
    exhaustion returns partial metrics with satisfied_step == -1 for
    unsatisfied players, mirroring the synchronous engine."""

    def test_unsatisfied_players_read_minus_one(self):
        class BadProber(AsyncStrategy):
            """Always probes object 0 of a world where it is bad."""

            name = "bad-prober"

            def step(self, step_no, player, view):
                return 0

            def handle_result(self, step_no, player, object_id, value):
                return False, False  # never votes, never halts

        from repro.world.generators import explicit_instance

        inst = explicit_instance(
            values=np.array([0.0, 1.0]),
            good_mask=np.array([False, True]),
            honest_mask=np.array([True, True]),
            good_threshold=0.5,
        )
        engine = AsynchronousEngine(
            inst, BadProber(), max_steps=6, strict=False
        )
        metrics = engine.run()
        assert metrics.steps == 6
        assert not metrics.all_honest_satisfied
        assert (metrics.satisfied_step == -1).all()
        assert metrics.probes.tolist() == [3, 3]  # round robin split
