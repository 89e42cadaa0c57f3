"""Unit tests for the Section 6 open-problem extensions."""

import numpy as np
import pytest

from repro.billboard.post import PostKind
from repro.core.distill import DistillStrategy
from repro.errors import ConfigurationError
from repro.extensions.no_advice import NoAdviceDistill
from repro.extensions.ownership import (
    SelfPromotionAdversary,
    ownership_instance,
)
from repro.extensions.pricing import PricedEngine
from repro.extensions.slander import (
    SlanderAdversary,
    SlanderingDistill,
    discredited_objects,
)
from repro.billboard.board import Billboard
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.views import BillboardView
from repro.sim.engine import EngineConfig, SynchronousEngine
from repro.world.generators import planted_instance


class TestDiscreditedObjects:
    def make_view(self, reports):
        board = Billboard(8, 8)
        for r, (player, obj, value) in enumerate(reports):
            board.append(r, player, obj, value, PostKind.REPORT)
        return BillboardView(board)

    def test_threshold_counts_distinct_reporters(self):
        view = self.make_view(
            [(0, 3, 0.0), (1, 3, 0.0), (0, 3, 0.0), (2, 5, 0.0)]
        )
        assert np.array_equal(discredited_objects(view, 2, 0.5), [3])

    def test_positive_reports_do_not_discredit(self):
        view = self.make_view([(0, 3, 0.9), (1, 3, 0.9)])
        assert discredited_objects(view, 2, 0.5).size == 0

    def test_threshold_one(self):
        view = self.make_view([(0, 3, 0.0)])
        assert np.array_equal(discredited_objects(view, 1, 0.5), [3])

    @staticmethod
    def per_post_reference(view, threshold, value_cutoff):
        """The original walk over ``Post`` records, one set per object."""
        reporters = {}
        for post in view.posts(kind=PostKind.REPORT):
            if post.reported_value < value_cutoff:
                reporters.setdefault(post.object_id, set()).add(post.player)
        bad = [obj for obj, who in reporters.items() if len(who) >= threshold]
        return np.array(sorted(bad), dtype=np.int64)

    @pytest.mark.parametrize("board_cls", [Billboard, ColumnarBoard])
    def test_matches_the_per_post_reference(self, board_cls):
        rng = np.random.default_rng(17)
        for _trial in range(20):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            board = board_cls(n, m)
            rounds = int(rng.integers(1, 8))
            for round_no in range(rounds):
                k = int(rng.integers(0, 3 * n))
                kind = PostKind.REPORT if rng.random() < 0.8 else PostKind.VOTE
                board.post_block(
                    round_no,
                    rng.integers(0, n, size=k),
                    rng.integers(0, m, size=k),
                    rng.random(k),
                    kind,
                )
            for horizon in [None, *range(rounds + 1)]:
                view = BillboardView(board, before_round=horizon)
                for threshold in (0, 1, 2, 3):
                    for cutoff in (0.0, 0.3, 0.7):
                        got = discredited_objects(view, threshold, cutoff)
                        want = self.per_post_reference(view, threshold, cutoff)
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want), (horizon, threshold)


class CheckedSlanderingDistill(SlanderingDistill):
    """Compares the carried-forward set with the full recount each round."""

    def reset(self, ctx, rng):
        super().reset(ctx, rng)
        self.rounds_checked = 0
        self.ever_discredited = 0

    def _discredited(self, view):
        got = super()._discredited(view)
        want = discredited_objects(
            view, self.slander_threshold, self.ctx.good_threshold
        )
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), view.before_round
        self.rounds_checked += 1
        self.ever_discredited = max(self.ever_discredited, got.size)
        return got


class TestSlander:
    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            SlanderingDistill(slander_threshold=0)

    @pytest.mark.parametrize("world", ["honest", "smear"])
    def test_carried_counts_match_the_reference(self, world):
        """A1-style trials (needle world, alpha 0.6, reports recorded):
        at every round the strategy's discredited set equals
        ``discredited_objects`` recounted over the whole visible board."""
        from repro.adversaries.silent import SilentAdversary

        n = 96
        adversary = SlanderAdversary if world == "smear" else SilentAdversary
        checked = discredited = 0
        for seed in range(3):
            world_rng, honest_rng, adversary_rng = (
                np.random.default_rng(s)
                for s in np.random.SeedSequence([seed, n]).spawn(3)
            )
            strategy = CheckedSlanderingDistill(slander_threshold=3)
            SynchronousEngine(
                planted_instance(n=n, m=n, beta=1 / n, alpha=0.6, rng=world_rng),
                strategy,
                adversary=adversary(),
                rng=honest_rng,
                adversary_rng=adversary_rng,
                config=EngineConfig(
                    record_reports=True, max_rounds=4 * n, strict=False
                ),
            ).run()
            checked += strategy.rounds_checked
            discredited += strategy.ever_discredited
        assert checked > 3 * 10
        assert discredited > 0  # the sets compared were not all empty

    def test_smear_suppresses_slander_reader(self):
        inst = planted_instance(
            n=96, m=96, beta=1 / 96, alpha=0.6,
            rng=np.random.default_rng(3),
        )
        engine = SynchronousEngine(
            inst,
            SlanderingDistill(slander_threshold=3),
            adversary=SlanderAdversary(),
            rng=np.random.default_rng(4),
            adversary_rng=np.random.default_rng(5),
            config=EngineConfig(
                record_reports=True, max_rounds=800, strict=False
            ),
        )
        metrics = engine.run()
        assert metrics.satisfied_fraction < 0.5

    def test_plain_distill_immune_to_smear(self):
        inst = planted_instance(
            n=96, m=96, beta=1 / 96, alpha=0.6,
            rng=np.random.default_rng(3),
        )
        engine = SynchronousEngine(
            inst,
            DistillStrategy(),
            adversary=SlanderAdversary(),
            rng=np.random.default_rng(4),
            adversary_rng=np.random.default_rng(5),
            config=EngineConfig(record_reports=True, max_rounds=100_000),
        )
        assert engine.run().all_honest_satisfied


class TestOwnership:
    def test_instance_couples_goodness_to_honesty(self, rng):
        inst = ownership_instance(64, 0.5, 0.5, rng)
        assert inst.m == inst.n
        dishonest_goods = inst.space.good_mask & ~inst.honest_mask
        assert not dishonest_goods.any()

    def test_at_least_one_good(self, rng):
        inst = ownership_instance(16, 0.2, 1e-9, rng)
        assert inst.space.good_mask.sum() >= 1

    def test_p_good_validation(self, rng):
        with pytest.raises(ConfigurationError):
            ownership_instance(16, 0.5, 0.0, rng)

    def test_self_promotion_votes_own_objects(self, rng):
        inst = ownership_instance(32, 0.5, 0.5, rng)
        adv = SelfPromotionAdversary()
        adv.reset(inst, np.random.default_rng(1))
        block = adv.act(0, BillboardView(Billboard(32, 32)))
        assert np.array_equal(block.players, block.objects)
        assert block.players.size == inst.n_dishonest

    def test_self_promotion_needs_coupling(self, rng):
        inst = planted_instance(n=8, m=16, beta=0.25, alpha=0.5, rng=rng)
        adv = SelfPromotionAdversary()
        with pytest.raises(ConfigurationError):
            adv.reset(inst, np.random.default_rng(1))

    def test_distill_wins_the_coupled_world(self, rng):
        inst = ownership_instance(128, 0.6, 0.5, np.random.default_rng(7))
        engine = SynchronousEngine(
            inst,
            DistillStrategy(),
            adversary=SelfPromotionAdversary(),
            rng=np.random.default_rng(8),
            adversary_rng=np.random.default_rng(9),
        )
        assert engine.run().all_honest_satisfied


class TestPricing:
    def run_priced(self, premium, seed=11):
        world_ss, honest_ss = np.random.SeedSequence(seed).spawn(2)
        inst = planted_instance(
            n=128, m=128, beta=1 / 128, alpha=0.8,
            rng=np.random.default_rng(world_ss),
        )
        engine = PricedEngine(
            inst,
            DistillStrategy(),
            rng=np.random.default_rng(honest_ss),
            premium=premium,
        )
        return engine.run()

    def test_zero_premium_equals_probe_count(self):
        metrics = self.run_priced(0.0)
        assert np.array_equal(
            metrics.paid, metrics.probes.astype(float)
        )

    def test_premium_raises_payments(self):
        cheap = self.run_priced(0.0)
        dear = self.run_priced(1.0)
        assert dear.mean_individual_paid > cheap.mean_individual_paid

    def test_premium_validation(self):
        inst = planted_instance(
            n=8, m=8, beta=0.25, alpha=1.0, rng=np.random.default_rng(0)
        )
        with pytest.raises(ConfigurationError):
            PricedEngine(inst, DistillStrategy(), premium=-0.1)

    def test_time_complexity_unaffected(self):
        a = self.run_priced(0.0, seed=21)
        b = self.run_priced(5.0, seed=21)
        assert a.rounds == b.rounds  # identical coin streams, same world


class TestNoAdvice:
    def test_still_succeeds(self):
        inst = planted_instance(
            n=128, m=128, beta=1 / 16, alpha=0.6,
            rng=np.random.default_rng(31),
        )
        engine = SynchronousEngine(
            inst,
            NoAdviceDistill(),
            rng=np.random.default_rng(32),
            config=EngineConfig(max_rounds=500_000),
        )
        assert engine.run().all_honest_satisfied

    def test_never_probes_by_advice(self):
        """All probes come from the tracker's pool, never from votes of
        players outside it."""
        inst = planted_instance(
            n=64, m=64, beta=1 / 8, alpha=1.0,
            rng=np.random.default_rng(41),
        )
        engine = SynchronousEngine(
            inst, NoAdviceDistill(), rng=np.random.default_rng(42)
        )
        metrics = engine.run()
        assert metrics.all_honest_satisfied
