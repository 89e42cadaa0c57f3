"""Tests for the synchronous round engine."""

import numpy as np
import pytest

from repro.adversaries.base import Adversary
from repro.adversaries.batched import PerLaneAdversary
from repro.billboard.board import Billboard
from repro.billboard.post import PostBlock, PostKind
from repro.billboard.views import BillboardView
from repro.core.distill import DistillStrategy
from repro.errors import (
    AdversaryViolationError,
    BudgetExceededError,
    SimulationError,
)
from repro.sim.async_engine import AsyncStrategy, AsynchronousEngine
from repro.sim.batch_engine import BatchedEngine
from repro.sim.engine import EngineConfig, SynchronousEngine
from repro.strategies.base import Strategy, StrategyContext
from repro.strategies.batched import PerLaneStrategy
from repro.world.generators import explicit_instance


class FixedProbeStrategy(Strategy):
    """Probes a scripted object id every round (or idles on -1)."""

    name = "fixed"

    def __init__(self, script):
        self.script = script

    def choose_probes(self, round_no, active_players, view):
        target = self.script[min(round_no, len(self.script) - 1)]
        return np.full(active_players.size, target, dtype=np.int64)


class OneShotVoteAdversary(Adversary):
    name = "one-shot"

    def __init__(self, player, obj, at_round=0):
        self.player = player
        self.obj = obj
        self.at_round = at_round

    def act(self, round_no, view):
        if round_no == self.at_round:
            return PostBlock.votes([self.player], [self.obj])
        return None


def two_object_instance(honest=(True, True, False)):
    """Object 0 bad, object 1 good."""
    return explicit_instance(
        values=np.array([0.0, 1.0]),
        good_mask=np.array([False, True]),
        honest_mask=np.array(honest),
        good_threshold=0.5,
    )


class TestBasicRun:
    def test_all_satisfied_when_probing_good(self):
        inst = two_object_instance()
        engine = SynchronousEngine(inst, FixedProbeStrategy([1]))
        metrics = engine.run()
        assert metrics.all_honest_satisfied
        assert metrics.rounds == 1
        assert np.array_equal(metrics.probes[:2], [1, 1])

    def test_bad_probes_accumulate_cost(self):
        inst = two_object_instance()
        engine = SynchronousEngine(inst, FixedProbeStrategy([0, 0, 1]))
        metrics = engine.run()
        assert metrics.rounds == 3
        assert np.array_equal(metrics.probes[:2], [3, 3])
        assert np.array_equal(metrics.satisfied_round[:2], [2, 2])

    def test_idle_rounds_cost_nothing(self):
        inst = two_object_instance()
        engine = SynchronousEngine(inst, FixedProbeStrategy([-1, 1]))
        metrics = engine.run()
        assert metrics.rounds == 2
        assert np.array_equal(metrics.probes[:2], [1, 1])

    def test_dishonest_players_never_probe(self):
        inst = two_object_instance()
        metrics = SynchronousEngine(inst, FixedProbeStrategy([1])).run()
        assert metrics.probes[2] == 0

    def test_votes_are_posted_on_success(self):
        inst = two_object_instance()
        engine = SynchronousEngine(inst, FixedProbeStrategy([1]))
        engine.run()
        votes = engine.board.vote_posts()
        assert {p.player for p in votes} == {0, 1}
        assert all(p.object_id == 1 for p in votes)

    def test_reports_recorded_only_when_enabled(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy([0, 1]),
            config=EngineConfig(record_reports=True),
        )
        engine.run()
        reports = engine.board.posts(kind=PostKind.REPORT)
        assert len(reports) == 2  # the round-0 bad probes

        engine2 = SynchronousEngine(inst, FixedProbeStrategy([0, 1]))
        engine2.run()
        assert engine2.board.posts(kind=PostKind.REPORT) == []


class TestStopConditions:
    def test_budget_exceeded_raises_when_strict(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy([0]),  # never finds the good object
            config=EngineConfig(max_rounds=5, strict=True),
        )
        with pytest.raises(BudgetExceededError):
            engine.run()

    def test_budget_exceeded_returns_when_lenient(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy([0]),
            config=EngineConfig(max_rounds=5, strict=False),
        )
        metrics = engine.run()
        assert metrics.rounds == 5
        assert not metrics.all_honest_satisfied

    def test_strategy_finished_stops_run(self):
        class Bell(FixedProbeStrategy):
            def finished(self, round_no):
                return round_no >= 2

        inst = two_object_instance()
        metrics = SynchronousEngine(inst, Bell([0])).run()
        assert metrics.rounds == 2
        assert not metrics.all_honest_satisfied


class TestStrategyContract:
    def test_wrong_shape_raises(self):
        class Broken(Strategy):
            name = "broken"

            def choose_probes(self, round_no, active_players, view):
                return np.array([0])  # wrong length

        inst = two_object_instance()
        with pytest.raises(SimulationError):
            SynchronousEngine(inst, Broken()).run()

    @pytest.mark.parametrize("short", ["vote", "halt"])
    def test_result_mask_of_wrong_length_raises(self, short):
        """The round gathers votes and halts by position, so a mask
        shorter than the probes must fail, not pick the wrong rows."""

        class ShortMask(FixedProbeStrategy):
            def handle_results(self, round_no, players, objects, values):
                full = np.zeros(players.size, dtype=bool)
                cut = full[:-1]
                return (cut, full) if short == "vote" else (full, cut)

        inst = two_object_instance()
        with pytest.raises(SimulationError, match="returned masks"):
            SynchronousEngine(inst, ShortMask([0])).run()

    def test_unknown_object_raises(self):
        inst = two_object_instance()
        with pytest.raises(SimulationError):
            SynchronousEngine(inst, FixedProbeStrategy([9])).run()


class TestAdversaryMediation:
    def test_adversary_vote_lands_on_board(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy([0, 1]),
            adversary=OneShotVoteAdversary(player=2, obj=0),
        )
        engine.run()
        assert engine.board.current_vote_array()[2] == 0

    def test_adversary_cannot_impersonate_honest(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy([0, 1]),
            adversary=OneShotVoteAdversary(player=0, obj=0),
        )
        with pytest.raises(AdversaryViolationError):
            engine.run()

    def test_adversary_sees_same_round_honest_posts(self):
        seen = {}

        class Peek(Adversary):
            name = "peek"

            def act(self, round_no, view):
                if round_no == 0:
                    seen["votes"] = len(view.vote_posts())
                return None

        inst = two_object_instance()
        SynchronousEngine(
            inst, FixedProbeStrategy([1]), adversary=Peek()
        ).run()
        assert seen["votes"] == 2  # both honest voted in round 0


class RoundZeroBlockAdversary(Adversary):
    """Posts one scripted block in round (or step) 0."""

    name = "round-zero"

    def __init__(self, block):
        self.block = block

    def act(self, round_no, view):
        return self.block if round_no == 0 else None


class IdleAsyncStrategy(AsyncStrategy):
    name = "idle"

    def step(self, step_no, player, view):
        return -1


def idle_sync_engine(inst, adversary):
    engine = SynchronousEngine(
        inst,
        FixedProbeStrategy([-1]),
        adversary=adversary,
        config=EngineConfig(max_rounds=4, strict=False),
    )
    return engine, [engine.board]


def idle_lane_engine(inst, adversary):
    engine = BatchedEngine(
        [inst],
        PerLaneStrategy([FixedProbeStrategy([-1])]),
        adversary=PerLaneAdversary([adversary]),
        rngs=[np.random.default_rng(0)],
        adversary_rngs=[np.random.default_rng(1)],
        config=EngineConfig(max_rounds=4, strict=False),
    )
    return engine, engine.boards.lanes


def idle_async_engine(inst, adversary):
    engine = AsynchronousEngine(
        inst,
        IdleAsyncStrategy(),
        adversary=adversary,
        rng=np.random.default_rng(0),
        schedule_rng=np.random.default_rng(1),
        adversary_rng=np.random.default_rng(2),
        max_steps=4,
        strict=False,
    )
    return engine, [engine.board]


class TestIdentityCheck:
    """Every engine checks an adversary's turn the same way: a block with
    any poster outside the dishonest identities raises
    AdversaryViolationError naming the first offender, and no post of
    that turn reaches the board."""

    @pytest.mark.parametrize(
        "offender",
        [0, -1, 4],
        ids=["honest-after-dishonest", "negative-id", "id-at-n"],
    )
    @pytest.mark.parametrize(
        "build",
        [idle_sync_engine, idle_lane_engine, idle_async_engine],
        ids=["sync", "lanes", "async"],
    )
    def test_violating_turn_raises_and_posts_nothing(self, build, offender):
        # players 2 and 3 are dishonest, so a -1 that wrapped around the
        # honest mask would read player 3's slot and pass
        inst = two_object_instance(honest=(True, True, False, False))
        # a legal post by dishonest player 2 comes first, and honest
        # player 1 after the offender
        adversary = RoundZeroBlockAdversary(
            PostBlock.votes([2, offender, 1], [0, 0, 0])
        )
        engine, boards = build(inst, adversary)
        with pytest.raises(
            AdversaryViolationError, match=f"player {offender}, "
        ):
            engine.run()
        assert [len(board) for board in boards] == [0] * len(boards)


class TestDeterminism:
    def test_same_seed_same_outcome(self, rng):
        from repro.core.distill import DistillStrategy
        from repro.world.generators import planted_instance

        def once(seed):
            inst = planted_instance(
                n=32, m=32, beta=1 / 8, alpha=0.75,
                rng=np.random.default_rng(7),
            )
            engine = SynchronousEngine(
                inst,
                DistillStrategy(),
                rng=np.random.default_rng(seed),
            )
            metrics = engine.run()
            return metrics.rounds, metrics.probes.tolist()

        assert once(3) == once(3)
        # And a different seed genuinely differs (overwhelmingly likely).
        assert once(3) != once(4)


class TestLenientPartialMetrics:
    """Pin the strict=False contract: max_rounds exhaustion returns a
    partial RunMetrics in which every unsatisfied player reads
    satisfied_round == -1 (and stays unhalted), rather than raising."""

    def test_unsatisfied_players_read_minus_one(self):
        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            FixedProbeStrategy([0]),  # only ever probes the bad object
            config=EngineConfig(max_rounds=7, strict=False),
        )
        metrics = engine.run()
        assert metrics.rounds == 7
        assert not metrics.all_honest_satisfied
        assert metrics.satisfied_round[inst.honest_mask].tolist() == [-1, -1]
        assert metrics.halted_round[inst.honest_mask].tolist() == [-1, -1]
        # the truncated run still accounts for the probes it did make
        assert metrics.probes[inst.honest_mask].tolist() == [7, 7]
        assert metrics.satisfied_fraction == 0.0

    def test_partially_satisfied_run_reports_the_split(self):
        class SplitStrategy(FixedProbeStrategy):
            """Player 0 probes the good object, player 1 the bad one."""

            def choose_probes(self, round_no, active_players, view):
                return np.where(active_players == 0, 1, 0).astype(np.int64)

        inst = two_object_instance()
        engine = SynchronousEngine(
            inst,
            SplitStrategy([0]),
            config=EngineConfig(max_rounds=4, strict=False),
        )
        metrics = engine.run()
        assert metrics.rounds == 4
        assert metrics.satisfied_round[0] == 0
        assert metrics.satisfied_round[1] == -1
        assert metrics.halted_round[1] == -1
        assert not metrics.all_honest_satisfied
        assert metrics.satisfied_fraction == 0.5


def reference_run(inst, strategy, rng, adversary=None, adversary_rng=None,
                  record_reports=False, max_rounds=500):
    """The round of :mod:`repro.sim.engine`'s docstring, one player at a
    time: each probe is accounted for alone and each post is appended
    alone, through the board's one-row write. Returns the engine's
    per-player arrays, the round count and the board."""
    n = inst.n
    space = inst.space
    board = Billboard(n, inst.m)
    probes, paid = [0] * n, [0.0] * n
    satisfied, halted = [-1] * n, [-1] * n
    active = inst.honest_ids.tolist()
    strategy.reset(
        StrategyContext(n=n, m=inst.m, alpha=inst.alpha, beta=inst.beta,
                        good_threshold=space.good_threshold),
        rng,
    )
    if adversary is not None:
        adversary.reset(inst, adversary_rng)
    round_no = 0
    while active and round_no < max_rounds:
        view = BillboardView(board, before_round=round_no)
        choices = strategy.choose_probes(
            round_no, np.array(active, dtype=np.int64), view
        )
        probed = [(p, int(c)) for p, c in zip(active, choices) if c >= 0]
        for player, obj in probed:
            probes[player] += 1
            paid[player] += float(space.costs[obj])
            if space.good_mask[obj] and satisfied[player] < 0:
                satisfied[player] = round_no
        if probed:
            players = np.array([p for p, _ in probed], dtype=np.int64)
            objects = np.array([o for _, o in probed], dtype=np.int64)
            values = space.values[objects]
            vote, halt = strategy.handle_results(
                round_no, players, objects, values
            )
            posts = [
                (PostKind.VOTE, i) for i in range(len(probed)) if vote[i]
            ]
            if record_reports:
                posts += [
                    (PostKind.REPORT, i)
                    for i in range(len(probed))
                    if not vote[i]
                ]
            for kind, i in posts:
                board.append(round_no, probed[i][0], probed[i][1],
                             values[i], kind)
            halters = {probed[i][0] for i in range(len(probed)) if halt[i]}
            for player in halters:
                halted[player] = round_no
            active = [p for p in active if p not in halters]
        if adversary is not None:
            block = adversary.act(round_no, BillboardView(board, None))
            if block is not None:
                for player, obj, value in zip(*block[:3]):
                    board.append(round_no, int(player), int(obj),
                                 float(value), block.kind)
        round_no += 1
    return probes, paid, satisfied, halted, round_no, board


class ScriptedMixStrategy(Strategy):
    """Cycles through four round shapes so that every fast path of the
    engine's round runs, and logs each round's shape:

    0. every active player probes; ``good, good`` (one mask object);
    1. some players idle; every prober votes, nobody halts;
    2. every active player probes; nobody votes, good probes halt;
    3. some players idle; votes (some for bad objects) and halts
       differ, from coin flips.
    """

    name = "scripted-mix"

    def reset(self, ctx, rng):
        super().reset(ctx, rng)
        self.log = []

    def choose_probes(self, round_no, active_players, view):
        picks = self.rng.integers(0, self.ctx.m, size=active_players.size)
        if round_no % 2 == 1:
            idle = self.rng.random(active_players.size) < 0.4
            picks[idle] = -1
        return picks

    def handle_results(self, round_no, players, objects, values):
        good = values >= self.ctx.good_threshold
        shape = round_no % 4
        if shape == 0:
            vote = halt = good
        elif shape == 1:
            vote, halt = np.ones(players.size, bool), np.zeros(players.size, bool)
        elif shape == 2:
            vote, halt = np.zeros(players.size, bool), good.copy()
        else:
            coins = self.rng.random((2, players.size))
            vote, halt = good | (coins[0] < 0.3), good & (coins[1] < 0.8)
        self.log.append((shape, int(np.count_nonzero(vote)),
                         int(np.count_nonzero(halt)), int(players.size),
                         bool((vote != halt).any())))
        return vote, halt


class LoggingDistill(DistillStrategy):
    """DISTILL, logging each advice round's active and probing counts."""

    def reset(self, ctx, rng):
        super().reset(ctx, rng)
        self.advice = []

    def choose_probes(self, round_no, active_players, view):
        choices = super().choose_probes(round_no, active_players, view)
        if self.tracker.is_advice_round(round_no):
            self.advice.append(
                (active_players.size, int(np.count_nonzero(choices >= 0)))
            )
        return choices


def _assert_matches_reference(engine, metrics, reference):
    probes, paid, satisfied, halted, rounds, board = reference
    assert metrics.rounds == rounds
    assert metrics.probes.tolist() == probes
    assert metrics.paid.tolist() == paid  # bit for bit
    assert metrics.satisfied_round.tolist() == satisfied
    assert metrics.halted_round.tolist() == halted
    assert engine.board.posts() == board.posts()
    assert engine.board.head_digest == board.head_digest


class TestRoundAgainstReference:
    """The engine's round against :func:`reference_run`, over strategies
    whose rounds take every fast path: all or some players probing, one
    mask object or two for votes and halts, every prober or none voting
    with reports recorded, and halters dropped from a full or a partial
    prober set."""

    @staticmethod
    def _mixed_instance(seed):
        rng = np.random.default_rng(seed)
        m = 16
        good = np.zeros(m, dtype=bool)
        good[rng.choice(m, 2, replace=False)] = True
        return explicit_instance(
            values=np.where(good, 1.0, 0.0),
            good_mask=good,
            honest_mask=rng.random(40) < 0.7,
            costs=rng.uniform(0.1, 3.0, m),  # paid sums non-unit costs
            good_threshold=0.5,
        )

    @pytest.mark.parametrize("record_reports", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scripted_mix_matches_reference(self, seed, record_reports):
        inst = self._mixed_instance(seed)
        strategy = ScriptedMixStrategy()
        engine = SynchronousEngine(
            inst, strategy, rng=np.random.default_rng(seed),
            config=EngineConfig(record_reports=record_reports),
        )
        metrics = engine.run()
        log = strategy.log
        reference = reference_run(
            inst, ScriptedMixStrategy(), np.random.default_rng(seed),
            record_reports=record_reports,
        )
        _assert_matches_reference(engine, metrics, reference)
        assert metrics.all_honest_satisfied
        shapes = {shape for shape, *_ in log}
        assert shapes == {0, 1, 2, 3}
        # every prober voted (shape 1) and nobody voted (shape 2), with
        # halts from one shared mask, from a full prober set (shape 2) and
        # from a partial one whose halters are not its voters (shape 3)
        assert any(votes == size for shape, votes, _h, size, _d in log if shape == 1)
        assert any(halts for shape, _v, halts, _s, _d in log if shape == 0)
        assert any(halts for shape, _v, halts, _s, _d in log if shape == 2)
        assert any(
            halts and differ for shape, _v, halts, _s, differ in log
            if shape == 3
        )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_distill_with_idle_advice_matches_reference(self, seed):
        from repro.adversaries.split_vote import SplitVoteAdversary
        from repro.world.generators import planted_instance

        inst = planted_instance(
            n=64, m=64, beta=1 / 16, alpha=0.75,
            rng=np.random.default_rng(seed),
        )
        strategy = LoggingDistill()
        engine = SynchronousEngine(
            inst, strategy, adversary=SplitVoteAdversary(),
            rng=np.random.default_rng(seed),
            adversary_rng=np.random.default_rng([seed, 1]),
            config=EngineConfig(record_reports=True),
        )
        metrics = engine.run()
        reference = reference_run(
            inst, LoggingDistill(), np.random.default_rng(seed),
            adversary=SplitVoteAdversary(),
            adversary_rng=np.random.default_rng([seed, 1]),
            record_reports=True,
        )
        _assert_matches_reference(engine, metrics, reference)
        # advice rounds in which some advisors had no vote, so only part
        # of the active players probed
        assert any(0 < probing < active for active, probing in strategy.advice)
