"""Tests for the fault decision oracle."""

import numpy as np
import pytest

from repro.billboard.post import PostKind
from repro.faults import FaultInjector, FaultPlan
from repro.world.valuemodel import PerturbedValueModel, TrueValueModel
from repro.world.generators import planted_instance


def make(plan, seed=7):
    injector = FaultInjector(plan, np.random.default_rng(seed))
    injector.reset()
    return injector


def entries(count):
    return [(p, p % 3, 1.0, PostKind.VOTE) for p in range(count)]


class TestFilterPosts:
    def test_zero_rates_pass_through_without_consuming_rng(self):
        injector = make(FaultPlan())
        before = injector.rng.bit_generator.state
        delivered, dropped, delayed = injector.filter_posts(0, entries(5))
        assert delivered == entries(5)
        assert dropped == [] and delayed == []
        assert injector.rng.bit_generator.state == before

    def test_full_loss_drops_everything(self):
        injector = make(FaultPlan(post_loss_rate=1.0))
        delivered, dropped, delayed = injector.filter_posts(0, entries(4))
        assert delivered == [] and delayed == []
        assert dropped == entries(4)
        assert injector.counts["dropped_posts"] == 4

    def test_full_delay_queues_everything(self):
        injector = make(
            FaultPlan(post_delay_rate=1.0, max_post_delay=2)
        )
        delivered, dropped, delayed = injector.filter_posts(3, entries(4))
        assert delivered == [] and dropped == []
        assert len(delayed) == 4
        assert injector.pending_posts == 4
        for deliver_round, _entry in delayed:
            assert deliver_round in (4, 5)

    def test_due_posts_release_at_the_stamped_round(self):
        injector = make(FaultPlan(post_delay_rate=1.0, max_post_delay=1))
        _, _, delayed = injector.filter_posts(0, entries(3))
        assert all(at == 1 for at, _ in delayed)
        assert injector.due_posts(0) == []
        released = injector.due_posts(1)
        assert sorted(released) == sorted(entries(3))
        # popped: a second ask returns nothing, nothing left in flight
        assert injector.due_posts(1) == []
        assert injector.pending_posts == 0

    def test_decisions_reproducible_for_same_seed(self):
        plan = FaultPlan(post_loss_rate=0.3, post_delay_rate=0.3)
        a, b = make(plan, seed=11), make(plan, seed=11)
        for round_no in range(5):
            assert a.filter_posts(round_no, entries(6)) == b.filter_posts(
                round_no, entries(6)
            )
        assert a.counts == b.counts


class TestDeliveryRounds:
    """The array decision gives every post the fate ``filter_posts``
    gives it from the same stream: the engine's trace events for drops
    and delays are read off these fates."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(crash_rate=0.2),
            FaultPlan(post_loss_rate=0.3),
            FaultPlan(post_loss_rate=0.25, post_delay_rate=0.35,
                      max_post_delay=3),
        ],
    )
    def test_each_post_gets_the_tuple_path_fate(self, plan):
        tuples, arrays = make(plan, seed=5), make(plan, seed=5)
        world = np.random.default_rng(9)
        for round_no in range(10):
            size = int(world.integers(0, 9))
            players = world.integers(0, 16, size=size)
            objects = world.integers(0, 16, size=size)
            values = world.random(size)
            batch = [
                (int(p), int(o), float(v), PostKind.REPORT)
                for p, o, v in zip(players, objects, values)
            ]
            delivered, dropped, delayed = tuples.filter_posts(round_no, batch)
            fates = arrays.delivery_rounds(
                round_no, players, objects, values, PostKind.REPORT
            ).tolist()
            assert [e for e, f in zip(batch, fates) if f == round_no] == (
                delivered
            )
            assert [e for e, f in zip(batch, fates) if f < 0] == dropped
            assert [
                (f, e) for e, f in zip(batch, fates) if f > round_no
            ] == delayed
            assert arrays.due_posts(round_no) == tuples.due_posts(round_no)
        assert arrays.counts == tuples.counts
        assert arrays.pending_posts == tuples.pending_posts
        assert (
            arrays.rng.bit_generator.state == tuples.rng.bit_generator.state
        )


class TestCrashCoins:
    def test_zero_rate_is_free(self):
        injector = make(FaultPlan())
        before = injector.rng.bit_generator.state
        crashed = injector.crash_coins(0, np.arange(8))
        assert crashed.size == 0
        assert injector.rng.bit_generator.state == before

    def test_rate_one_crashes_everyone(self):
        injector = make(FaultPlan(crash_rate=1.0, restart_after=2))
        crashed = injector.crash_coins(0, np.arange(5))
        assert crashed.tolist() == [0, 1, 2, 3, 4]
        assert injector.counts["crashes"] == 5

    def test_stream_advance_depends_on_count_not_outcomes(self):
        """Two plans with different crash rates consume the stream
        identically, so fault realizations upstream never shift the
        decisions downstream."""
        lo, hi = make(FaultPlan(crash_rate=0.1)), make(
            FaultPlan(crash_rate=0.9)
        )
        lo.crash_coins(0, np.arange(16))
        hi.crash_coins(0, np.arange(16))
        assert (
            lo.rng.bit_generator.state == hi.rng.bit_generator.state
        )

    def test_note_restarts_counts(self):
        injector = make(FaultPlan(crash_rate=0.5, restart_after=1))
        injector.note_restarts(np.array([3, 4]))
        assert injector.counts["restarts"] == 2


class TestValueModelWrapping:
    def make_inner(self):
        inst = planted_instance(
            n=8, m=8, beta=0.25, alpha=1.0, rng=np.random.default_rng(0)
        )
        return TrueValueModel(inst.space)

    def test_zero_noise_rate_returns_inner_untouched(self):
        injector = make(FaultPlan(post_loss_rate=0.5))
        inner = self.make_inner()
        assert injector.wrap_value_model(inner) is inner

    def test_nonzero_noise_rate_wraps(self):
        injector = make(
            FaultPlan(observation_noise_rate=1.0, observation_noise=0.2)
        )
        wrapped = injector.wrap_value_model(self.make_inner())
        assert isinstance(wrapped, PerturbedValueModel)

    def test_perturbation_bounded_and_reproducible(self):
        inner = self.make_inner()
        players = np.arange(8)
        objects = np.arange(8)
        truth = inner.observe_many(players, objects)
        noisy = PerturbedValueModel(
            inner, rng=np.random.default_rng(5), noise_rate=1.0, noise=0.2
        )
        values = noisy.observe_many(players, objects)
        assert (np.abs(values - truth) <= 0.2 + 1e-12).all()
        assert not np.allclose(values, truth)
        again = PerturbedValueModel(
            inner, rng=np.random.default_rng(5), noise_rate=1.0, noise=0.2
        )
        assert np.array_equal(values, again.observe_many(players, objects))

    def test_stream_position_independent_of_outcomes(self):
        """observe_many always burns one coin + one shift per probe."""
        inner = self.make_inner()
        players, objects = np.arange(8), np.arange(8)
        never = PerturbedValueModel(
            inner, rng=np.random.default_rng(9), noise_rate=0.0, noise=0.2
        )
        always = PerturbedValueModel(
            inner, rng=np.random.default_rng(9), noise_rate=1.0, noise=0.2
        )
        assert np.array_equal(
            never.observe_many(players, objects),
            inner.observe_many(players, objects),
        )
        always.observe_many(players, objects)
        assert (
            never.rng.bit_generator.state
            == always.rng.bit_generator.state
        )

    def test_scalar_observe_matches_contract(self):
        inner = self.make_inner()
        noisy = PerturbedValueModel(
            inner, rng=np.random.default_rng(2), noise_rate=1.0, noise=0.1
        )
        value = noisy.observe(3, 3)
        assert abs(value - inner.observe(3, 3)) <= 0.1 + 1e-12


class TestInfo:
    def test_info_reports_counts_and_backlog(self):
        injector = make(
            FaultPlan(post_loss_rate=0.5, post_delay_rate=0.5)
        )
        injector.filter_posts(0, entries(20))
        info = injector.info()
        assert set(info) == {
            "dropped_posts",
            "delayed_posts",
            "crashes",
            "restarts",
            "undelivered_posts",
        }
        assert info["dropped_posts"] + info["delayed_posts"] == 20
        assert info["undelivered_posts"] == info["delayed_posts"]

    def test_reset_clears_everything(self):
        injector = make(FaultPlan(post_delay_rate=1.0))
        injector.filter_posts(0, entries(3))
        injector.reset()
        assert injector.pending_posts == 0
        assert injector.info()["delayed_posts"] == 0
