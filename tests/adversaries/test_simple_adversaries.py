"""Tests for the silent, flood, random-votes, and concentrate adversaries."""

import numpy as np
import pytest

from repro.adversaries.concentrate import ConcentrateAdversary
from repro.adversaries.flood import FloodAdversary
from repro.adversaries.random_votes import RandomVotesAdversary
from repro.adversaries.silent import SilentAdversary
from repro.billboard.board import Billboard
from repro.billboard.views import BillboardView
from repro.errors import ConfigurationError
from repro.world.generators import planted_instance


@pytest.fixture
def instance(rng):
    return planted_instance(n=16, m=16, beta=0.25, alpha=0.5, rng=rng)


def view_for(instance):
    return BillboardView(Billboard(instance.n, instance.m))


class TestSilent:
    def test_never_acts(self, instance, rng):
        adv = SilentAdversary()
        adv.reset(instance, rng)
        for r in range(10):
            assert adv.act(r, view_for(instance)) is None


class TestFlood:
    def test_votes_all_at_round_zero(self, instance, rng):
        adv = FloodAdversary()
        adv.reset(instance, rng)
        block = adv.act(0, view_for(instance))
        assert block.players.size == instance.n_dishonest
        assert adv.act(1, view_for(instance)) is None

    def test_targets_are_bad_objects(self, instance, rng):
        adv = FloodAdversary()
        adv.reset(instance, rng)
        bad = set(np.flatnonzero(~instance.space.good_mask).tolist())
        for object_id in adv.act(0, view_for(instance)).objects.tolist():
            assert object_id in bad

    def test_targets_distinct_when_enough_bad(self, instance, rng):
        adv = FloodAdversary()
        adv.reset(instance, rng)
        targets = adv.act(0, view_for(instance)).objects.tolist()
        assert len(set(targets)) == len(targets)

    def test_each_identity_used_once(self, instance, rng):
        adv = FloodAdversary()
        adv.reset(instance, rng)
        voters = adv.act(0, view_for(instance)).players.tolist()
        assert len(set(voters)) == len(voters)
        assert set(voters) == set(instance.dishonest_ids.tolist())


class TestRandomVotes:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            RandomVotesAdversary(horizon=0)

    def test_total_budget_respected(self, instance, rng):
        adv = RandomVotesAdversary(horizon=8)
        adv.reset(instance, rng)
        blocks = [adv.act(r, view_for(instance)) for r in range(10)]
        total = sum(b.players.size for b in blocks if b is not None)
        assert total == instance.n_dishonest

    def test_votes_spread_over_horizon(self, instance):
        adv = RandomVotesAdversary(horizon=64)
        big = planted_instance(
            n=256, m=256, beta=0.25, alpha=0.2,
            rng=np.random.default_rng(0),
        )
        adv.reset(big, np.random.default_rng(1))
        rounds_with_votes = sum(
            1 for r in range(64) if adv.act(r, view_for(big)) is not None
        )
        assert rounds_with_votes > 10


class TestConcentrate:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConcentrateAdversary(n_targets=0)
        with pytest.raises(ConfigurationError):
            ConcentrateAdversary(votes_each=0)
        with pytest.raises(ConfigurationError):
            ConcentrateAdversary(at_round=-1)

    def test_fires_once_at_round(self, instance, rng):
        adv = ConcentrateAdversary(n_targets=2, votes_each=3, at_round=2)
        adv.reset(instance, rng)
        assert adv.act(0, view_for(instance)) is None
        assert adv.act(1, view_for(instance)) is None
        block = adv.act(2, view_for(instance))
        assert block.players.size == 6
        assert adv.act(3, view_for(instance)) is None

    def test_votes_stack_per_target(self, instance, rng):
        adv = ConcentrateAdversary(n_targets=2, votes_each=3)
        adv.reset(instance, rng)
        block = adv.act(0, view_for(instance))
        per_target = {}
        for player, object_id in zip(
            block.players.tolist(), block.objects.tolist()
        ):
            per_target.setdefault(object_id, set()).add(player)
        assert len(per_target) == 2
        assert all(len(v) == 3 for v in per_target.values())

    def test_budget_cap(self, instance, rng):
        adv = ConcentrateAdversary(n_targets=4, votes_each=100)
        adv.reset(instance, rng)
        block = adv.act(0, view_for(instance))
        assert block.players.size <= instance.n_dishonest

    def test_even_split_when_votes_each_omitted(self, instance, rng):
        adv = ConcentrateAdversary(n_targets=2)
        adv.reset(instance, rng)
        block = adv.act(0, view_for(instance))
        assert block.players.size == 2 * (instance.n_dishonest // 2)
