"""Fault behavior of the synchronous engine.

The contract under test, per fault kind:

* lossy billboard — honest votes vanish but a player's *own* probe
  still satisfies it: faults cost time, never correctness;
* churn — crashed players stop probing; restartable ones rejoin with no
  memory and the strategy is notified; permanent ones are halted;
* null plan — byte-identical to running with no fault layer at all;
* adversary posts are never filtered (it is already Byzantine).
"""

import numpy as np
import pytest

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock, PostKind
from repro.core.distill import DistillStrategy
from repro.faults import FaultInjector, FaultPlan
from repro.sim.engine import EngineConfig, SynchronousEngine
from repro.strategies.base import Strategy
from repro.world.generators import explicit_instance, planted_instance


class FixedProbeStrategy(Strategy):
    name = "fixed"

    def __init__(self, target=1):
        self.target = target

    def choose_probes(self, round_no, active_players, view):
        return np.full(active_players.size, self.target, dtype=np.int64)


class RestartSpyStrategy(FixedProbeStrategy):
    """Records every restart notification it receives."""

    def reset(self, ctx, rng):
        super().reset(ctx, rng)
        self.restarted = []

    def on_player_restart(self, round_no, players):
        self.restarted.append((round_no, sorted(int(p) for p in players)))


class StubbornVoteAdversary(Adversary):
    """Votes for a scripted object every round, forever."""

    name = "stubborn"

    def __init__(self, player, obj):
        self.player = player
        self.obj = obj

    def act(self, round_no, view):
        return PostBlock.votes([self.player], [self.obj])


def two_object_instance(honest=(True, True, False)):
    """Object 0 bad, object 1 good."""
    return explicit_instance(
        values=np.array([0.0, 1.0]),
        good_mask=np.array([False, True]),
        honest_mask=np.array(honest),
        good_threshold=0.5,
    )


def injector(plan, seed=0):
    return FaultInjector(plan, np.random.default_rng(seed))


class TestLossyBillboard:
    def test_total_loss_keeps_correctness_loses_votes(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy(1),
            fault_injector=injector(FaultPlan(post_loss_rate=1.0)),
        )
        metrics = engine.run()
        # their own probe of the good object satisfies them regardless
        assert metrics.all_honest_satisfied
        assert engine.board.posts(kind=PostKind.VOTE) == []
        assert metrics.fault_info["dropped_posts"] == 2

    def test_adversary_posts_bypass_the_filter(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy(1),
            adversary=StubbornVoteAdversary(player=2, obj=0),
            fault_injector=injector(FaultPlan(post_loss_rate=1.0)),
        )
        engine.run()
        votes = engine.board.posts(kind=PostKind.VOTE)
        assert votes  # the Byzantine vote survives
        assert all(post.player == 2 for post in votes)


class TestChurn:
    def test_permanent_crashes_halt_players_unsatisfied(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy(1),
            fault_injector=injector(
                FaultPlan(crash_rate=1.0, restart_after=None)
            ),
        )
        metrics = engine.run()
        # everyone crashed before their first probe
        assert not metrics.all_honest_satisfied
        assert metrics.satisfied_round[inst.honest_mask].tolist() == [-1, -1]
        assert metrics.halted_round[inst.honest_mask].tolist() == [0, 0]
        assert metrics.probes.sum() == 0
        assert metrics.fault_info["crashes"] == 2
        assert metrics.fault_info["restarts"] == 0

    def test_restarts_rejoin_and_notify_the_strategy(self):
        inst = two_object_instance()
        spy = RestartSpyStrategy(1)
        engine = SynchronousEngine(
            inst,
            spy,
            fault_injector=injector(
                FaultPlan(crash_rate=0.5, restart_after=2), seed=3
            ),
            config=EngineConfig(max_rounds=200),
        )
        metrics = engine.run()
        # with restarts, every honest player finishes eventually
        assert metrics.all_honest_satisfied
        assert metrics.fault_info["crashes"] >= 1
        assert metrics.fault_info["restarts"] == metrics.fault_info["crashes"]
        assert len(spy.restarted) >= 1
        for round_no, players in spy.restarted:
            assert round_no >= 2 and players

    def test_all_down_rounds_idle_instead_of_ending_the_run(self):
        inst = two_object_instance(honest=(True, False, False))
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy(1),
            fault_injector=injector(
                FaultPlan(crash_rate=1.0, restart_after=3), seed=1
            ),
            config=EngineConfig(max_rounds=20, strict=False),
        )
        metrics = engine.run()
        # the lone honest player crashes every time it is up, so the run
        # alternates down-time and crashes until the budget: the engine
        # must keep ticking through all-down rounds rather than stopping
        assert metrics.rounds == 20
        assert not metrics.all_honest_satisfied
        assert metrics.fault_info["crashes"] >= 2
        assert metrics.fault_info["restarts"] >= 1


class ActiveSetSpyStrategy(Strategy):
    """Probes a random object per active player (so some hit a good one,
    vote and halt) and records the active ids it is handed each round."""

    name = "active-spy"

    def reset(self, ctx, rng):
        super().reset(ctx, rng)
        self.seen = {}

    def choose_probes(self, round_no, active_players, view):
        self.seen[round_no] = active_players.copy()
        return self.rng.integers(0, self.ctx.m, size=active_players.size)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "crash_rate,restart_after",
    [(0.05, 4), (0.2, 1), (0.5, 2), (0.3, None)],
)
def test_active_set_matches_the_set_operations(seed, crash_rate, restart_after):
    """Each round's active set, as the strategy is handed it, is the
    sorted int64 array that ``np.union1d`` on restart and
    ``np.setdiff1d`` on crash and halt give, rebuilt from the run's
    trace over a random crash/restart schedule."""
    world, coins, churn_rng = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(3)
    )
    inst = planted_instance(n=96, m=96, beta=1 / 12, alpha=0.75, rng=world)
    spy = ActiveSetSpyStrategy()
    engine = SynchronousEngine(
        inst,
        spy,
        rng=coins,
        fault_injector=FaultInjector(
            FaultPlan(crash_rate=crash_rate, restart_after=restart_after),
            churn_rng,
        ),
        config=EngineConfig(max_rounds=400, strict=False, trace=True),
    )
    metrics = engine.run()
    events = {}
    for event in engine.trace:
        events.setdefault((event.round_no, event.kind), []).append(
            np.array(event.payload.get("players", ()), dtype=np.int64)
        )
    active = inst.honest_ids.astype(np.int64)
    churn = 0
    for round_no in range(metrics.rounds):
        for players in events.get((round_no, "fault_restart"), []):
            active = np.union1d(active, players)
            churn += 1
        for players in events.get((round_no, "fault_crash"), []):
            active = np.setdiff1d(active, players, assume_unique=True)
            churn += 1
        if round_no in spy.seen:
            seen = spy.seen[round_no]
            assert seen.dtype == active.dtype
            assert np.array_equal(seen, active), round_no
        else:  # only a round with every player down probes nobody
            assert active.size == 0, round_no
        for players in events.get((round_no, "halt"), []):
            active = np.setdiff1d(active, players, assume_unique=True)
    assert churn > 2
    assert metrics.fault_info["crashes"] > 0


class TestNullPlanIdentity:
    def _run(self, fault_injector):
        inst = planted_instance(
            n=32, m=32, beta=0.125, alpha=0.75,
            rng=np.random.default_rng(42),
        )
        engine = SynchronousEngine(
            inst,
            DistillStrategy(),
            rng=np.random.default_rng(1),
            adversary_rng=np.random.default_rng(2),
            fault_injector=fault_injector,
        )
        metrics = engine.run()
        return metrics, engine.board

    def test_null_plan_is_bit_identical_to_no_fault_layer(self):
        clean_metrics, clean_board = self._run(None)
        null_metrics, null_board = self._run(injector(FaultPlan()))
        assert np.array_equal(clean_metrics.probes, null_metrics.probes)
        assert np.array_equal(
            clean_metrics.satisfied_round, null_metrics.satisfied_round
        )
        assert np.array_equal(
            clean_metrics.halted_round, null_metrics.halted_round
        )
        assert clean_metrics.rounds == null_metrics.rounds
        assert len(clean_board.posts()) == len(null_board.posts())
        # the only observable difference: the null injector reports its
        # (empty) realization
        assert clean_metrics.fault_info == {}
        assert null_metrics.fault_info["dropped_posts"] == 0

    def test_fault_realization_reproducible(self):
        plan = FaultPlan(post_loss_rate=0.3, crash_rate=0.1,
                         restart_after=2)
        a, _ = self._run(injector(plan, seed=9))
        b, _ = self._run(injector(plan, seed=9))
        assert a.fault_info == b.fault_info
        assert np.array_equal(a.probes, b.probes)
        assert a.rounds == b.rounds

