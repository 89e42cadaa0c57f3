"""Tests for the adaptive split-vote adversary."""

import numpy as np
import pytest

from repro.adversaries.silent import SilentAdversary
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.core.distill import DistillStrategy
from repro.sim.engine import SynchronousEngine
from repro.sim.runner import run_trials
from repro.world.generators import planted_instance


def run_engine(adversary, n=128, alpha=0.4, beta=1 / 16, seed=7):
    world_ss, honest_ss, adversary_ss = np.random.SeedSequence(seed).spawn(3)
    inst = planted_instance(
        n=n, m=n, beta=beta, alpha=alpha, rng=np.random.default_rng(world_ss)
    )
    engine = SynchronousEngine(
        inst,
        DistillStrategy(),
        adversary=adversary,
        rng=np.random.default_rng(honest_ss),
        adversary_rng=np.random.default_rng(adversary_ss),
    )
    return inst, engine, engine.run()


def reset_adversary(votes_per_identity, n=32, alpha=0.5, seed=3):
    """A split-vote adversary whose slot pool ``reset`` built."""
    world_ss, adversary_ss = np.random.SeedSequence(seed).spawn(2)
    inst = planted_instance(
        n=n, m=n, beta=1 / 8, alpha=alpha, rng=np.random.default_rng(world_ss)
    )
    adv = SplitVoteAdversary(votes_per_identity=votes_per_identity)
    adv.reset(inst, np.random.default_rng(adversary_ss))
    return inst, adv


class TestConstruction:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitVoteAdversary(step11_fraction=-0.1)
        with pytest.raises(ValueError):
            SplitVoteAdversary(step13_fraction=1.1)

    def test_rejects_bad_vote_multiplier(self):
        with pytest.raises(ValueError):
            SplitVoteAdversary(votes_per_identity=0)


class TestBudget:
    def test_never_exceeds_one_vote_per_identity(self):
        adv = SplitVoteAdversary()
        inst, engine, _metrics = run_engine(adv)
        ledger = engine.board.ledger
        assert (
            ledger.votes_cast_by(inst.dishonest_ids)
            <= inst.n_dishonest
        )

    def test_votes_target_bad_objects_only(self):
        adv = SplitVoteAdversary()
        inst, engine, _metrics = run_engine(adv)
        for post in engine.board.vote_posts():
            if not inst.honest_mask[post.player]:
                assert not inst.space.good_mask[post.object_id]

    def test_batches_have_distinct_voters(self):
        """With votes_per_identity > 1 a threshold batch must still use
        distinct identities (the ledger dedups same-player same-object),
        and slots leave from the front of the pool ``reset`` built."""
        inst, adv = reset_adversary(votes_per_identity=3)
        pool = adv._unused.copy()
        assert np.array_equal(
            np.sort(pool), np.repeat(inst.dishonest_ids, 3)
        )
        # one short of the identity count, so the second batch straddles
        # the seam between two copies of the permutation
        need = inst.n_dishonest - 1
        targets = adv.bad_object_ids()[:3]
        block = adv._cast(targets, need)
        assert block.players.size == 3 * need
        for k, obj in enumerate(targets):
            batch = slice(k * need, (k + 1) * need)
            voters = block.players[batch].tolist()
            assert set(block.objects[batch].tolist()) == {int(obj)}
            assert len(set(voters)) == need
            assert not inst.honest_mask[voters].any()
        assert block.players.tolist() == pool[: 3 * need].tolist()
        assert np.array_equal(adv._unused, pool[3 * need :])

    def test_cast_refuses_partial_batch(self):
        """A ``need`` above the number of identities, or above the
        remaining pool, casts nothing and consumes nothing."""
        inst, adv = reset_adversary(votes_per_identity=3)
        bad = adv.bad_object_ids()
        pool = adv._unused.copy()
        assert adv._cast(bad[:1], inst.n_dishonest + 1) is None
        assert np.array_equal(adv._unused, pool)
        # drain the pool to two slots: 2 batches of every identity, then
        # single votes
        adv._cast(bad[:2], inst.n_dishonest)
        adv._cast(bad[: inst.n_dishonest - 2], 1)
        assert adv.remaining_budget == 2
        left = adv._unused.copy()
        assert adv._cast(bad[:1], 3) is None
        assert np.array_equal(adv._unused, left)


class TestEffectiveness:
    def test_costs_more_than_silence(self):
        def mean_cost(factory, seed=41):
            return run_trials(
                lambda rng: planted_instance(
                    n=256, m=256, beta=1 / 16, alpha=0.3, rng=rng
                ),
                DistillStrategy,
                make_adversary=factory,
                n_trials=12,
                seed=seed,
            ).mean("mean_individual_rounds")

        assert mean_cost(SplitVoteAdversary) > mean_cost(SilentAdversary)

    def test_iterations_stay_within_lemma7(self):
        """Full engine runs never exceed the Lemma 7 iteration budget —
        in fact at simulable n the Lemma 6 advice cascade usually ends
        the run during Step 1.3 with zero iterations (see bench E5; the
        worst-case combinatorics are exercised by the Lemma 7 kernel)."""
        from repro.analysis.bounds import lemma7_iteration_bound

        res = run_trials(
            lambda rng: planted_instance(
                n=512, m=512, beta=1 / 16, alpha=0.2, rng=rng
            ),
            DistillStrategy,
            make_adversary=SplitVoteAdversary,
            n_trials=8,
            seed=43,
        )
        bound = lemma7_iteration_bound(512, 0.2)
        for info in res.strategy_infos:
            assert info["max_iterations_per_attempt"] <= 2.5 * bound

    def test_mirror_tracks_phases_without_crashing(self):
        """Long adversarial run exercising every phase transition in the
        mirror tracker."""
        adv = SplitVoteAdversary()
        _inst, _engine, metrics = run_engine(adv, alpha=0.2, seed=51)
        assert metrics.all_honest_satisfied
