"""Tests for protocol-mimicking adversaries (spoofed values, lures)."""

import numpy as np
import pytest

from repro.adversaries.mimic import MimicAdversary
from repro.adversaries.spoofed import SpoofedProtocolAdversary
from repro.core.distill import DistillStrategy
from repro.sim.engine import SynchronousEngine
from repro.world.generators import planted_instance
from repro.world.valuemodel import constant_spoof_table


def make_world(seed=5, n=64, alpha=0.5):
    return planted_instance(
        n=n, m=n, beta=1 / 8, alpha=alpha, rng=np.random.default_rng(seed)
    )


def run_with(adversary, inst, seed=6):
    honest_ss, adversary_ss = np.random.SeedSequence(seed).spawn(2)
    engine = SynchronousEngine(
        inst,
        DistillStrategy(),
        adversary=adversary,
        rng=np.random.default_rng(honest_ss),
        adversary_rng=np.random.default_rng(adversary_ss),
    )
    return engine, engine.run()


class TestSpoofedProtocol:
    def test_spoofed_players_vote_for_their_spoofed_goods(self):
        inst = make_world()
        lure = int(np.flatnonzero(~inst.space.good_mask)[0])
        table = constant_spoof_table(inst.space, np.array([lure]))
        adversary = SpoofedProtocolAdversary(
            strategy_factory=DistillStrategy,
            spoof_tables={int(p): table for p in inst.dishonest_ids},
        )
        # seed picked so the mimicked cohort's DISTILL runs reach their
        # vote step before the honest cohort satisfies and the run halts
        engine, metrics = run_with(adversary, inst, seed=9)
        dishonest_votes = [
            p
            for p in engine.board.vote_posts()
            if not inst.honest_mask[p.player]
        ]
        assert dishonest_votes, "spoofed cohort should eventually vote"
        assert all(p.object_id == lure for p in dishonest_votes)
        assert metrics.all_honest_satisfied

    def test_players_without_tables_never_vote(self):
        inst = make_world()
        adversary = SpoofedProtocolAdversary(
            strategy_factory=DistillStrategy, spoof_tables={}
        )
        engine, _metrics = run_with(adversary, inst)
        dishonest_votes = [
            p
            for p in engine.board.vote_posts()
            if not inst.honest_mask[p.player]
        ]
        assert dishonest_votes == []

    def test_votes_at_protocol_plausible_times(self):
        """A spoofed player's vote must come while its mimicked protocol
        is actually probing — i.e., at some round within the run, not all
        in a burst at round 0 like the flood adversary."""
        inst = make_world(alpha=0.3, seed=9)
        lures = np.flatnonzero(~inst.space.good_mask)[:4]
        table = constant_spoof_table(inst.space, lures)
        adversary = SpoofedProtocolAdversary(
            strategy_factory=DistillStrategy,
            spoof_tables={int(p): table for p in inst.dishonest_ids},
        )
        engine, _metrics = run_with(adversary, inst, seed=10)
        vote_rounds = sorted(
            p.round_no
            for p in engine.board.vote_posts()
            if not inst.honest_mask[p.player]
        )
        assert len(set(vote_rounds)) > 1  # spread over time


class TestSpoofedObservation:
    """``_observe`` gathers from a stack of the distinct tables; it must
    see exactly what a per-prober table lookup sees."""

    @staticmethod
    def per_player_reference(adversary, players, objects, m):
        zeros = np.zeros(m)
        return np.array(
            [
                adversary.spoof_tables.get(int(p), zeros)[int(o)]
                for p, o in zip(players, objects)
            ],
            dtype=np.float64,
        )

    def _tables(self, inst, layout, rng):
        dishonest = inst.dishonest_ids.tolist()
        if layout == "shared":
            table = rng.random(inst.m)
            return {p: table for p in dishonest}
        if layout == "per-player":
            return {p: rng.random(inst.m) for p in dishonest}
        # half the cohort without a table, the rest split over two
        shared = [rng.random(inst.m), rng.random(inst.m)]
        return {p: shared[i % 2] for i, p in enumerate(dishonest[::2])}

    @pytest.mark.parametrize("layout", ["shared", "per-player", "partial"])
    def test_gather_matches_per_player_lookup(self, layout):
        rng = np.random.default_rng(21)
        inst = make_world(alpha=0.5, seed=21)
        adversary = SpoofedProtocolAdversary(
            strategy_factory=DistillStrategy,
            spoof_tables=self._tables(inst, layout, rng),
        )
        adversary.reset(inst, np.random.default_rng(22))
        for _ in range(20):
            k = int(rng.integers(0, 3 * inst.n))
            players = rng.choice(inst.dishonest_ids, size=k)
            objects = rng.integers(0, inst.m, size=k)
            got = adversary._observe(players, objects)
            want = self.per_player_reference(adversary, players, objects, inst.m)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_players_without_tables_observe_zeros(self):
        inst = make_world()
        adversary = SpoofedProtocolAdversary(
            strategy_factory=DistillStrategy, spoof_tables={}
        )
        adversary.reset(inst, np.random.default_rng(1))
        players = inst.dishonest_ids
        values = adversary._observe(players, np.zeros(players.size, dtype=np.int64))
        assert np.array_equal(values, np.zeros(players.size))


class TestMimic:
    def test_mimic_runs_and_honest_win(self):
        inst = make_world(alpha=0.4, seed=11)
        engine, metrics = run_with(MimicAdversary(), inst, seed=12)
        assert metrics.all_honest_satisfied

    def test_mimic_votes_concentrate_on_lures(self):
        inst = make_world(alpha=0.4, seed=13)
        engine, _metrics = run_with(
            MimicAdversary(n_lures=2), inst, seed=14
        )
        lure_votes = {
            p.object_id
            for p in engine.board.vote_posts()
            if not inst.honest_mask[p.player]
        }
        assert len(lure_votes) <= 2
        assert all(
            not inst.space.good_mask[obj] for obj in lure_votes
        )

    def test_mimic_costs_more_than_nothing(self):
        from repro.adversaries.silent import SilentAdversary
        from repro.sim.runner import run_trials

        def mean_cost(factory):
            return run_trials(
                lambda rng: planted_instance(
                    n=256, m=256, beta=1 / 32, alpha=0.3, rng=rng
                ),
                DistillStrategy,
                make_adversary=factory,
                n_trials=10,
                seed=15,
            ).mean("mean_individual_rounds")

        assert mean_cost(MimicAdversary) > mean_cost(SilentAdversary)
