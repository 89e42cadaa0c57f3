"""Tests for reader-side vote accounting (the VoteLedger)."""

import numpy as np
import pytest

from repro.billboard.post import Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode
from repro.errors import ConfigurationError


def vote(ledger, round_no, player, obj):
    post = Post(
        seq=0,
        round_no=round_no,
        player=player,
        object_id=obj,
        reported_value=1.0,
        kind=PostKind.VOTE,
    )
    return ledger.record(post)


@pytest.fixture
def single():
    return VoteLedger(n_players=6, n_objects=10, mode=VoteMode.SINGLE)


@pytest.fixture
def multi():
    return VoteLedger(
        n_players=6, n_objects=10, mode=VoteMode.MULTI, max_votes_per_player=2
    )


@pytest.fixture
def mutable():
    return VoteLedger(n_players=6, n_objects=10, mode=VoteMode.MUTABLE)


class TestConstruction:
    def test_rejects_zero_players(self):
        with pytest.raises(ConfigurationError):
            VoteLedger(0, 5)

    def test_rejects_zero_objects(self):
        with pytest.raises(ConfigurationError):
            VoteLedger(5, 0)

    def test_rejects_zero_vote_cap(self):
        with pytest.raises(ConfigurationError):
            VoteLedger(5, 5, mode=VoteMode.MULTI, max_votes_per_player=0)

    def test_single_mode_forces_cap_one(self):
        ledger = VoteLedger(
            5, 5, mode=VoteMode.SINGLE, max_votes_per_player=7
        )
        assert ledger.max_votes_per_player == 1


class TestSingleMode:
    def test_first_vote_is_effective(self, single):
        assert vote(single, 0, 1, 3)

    def test_second_vote_by_same_player_ignored(self, single):
        vote(single, 0, 1, 3)
        assert not vote(single, 1, 1, 4)
        assert single.current_vote_array()[1] == 3

    def test_one_vote_per_player_invariant(self, single):
        for obj in range(5):
            vote(single, obj, 2, obj)
        assert single.votes_of(2) == (0,)
        assert single.effective_vote_count == 1

    def test_current_vote_defaults_minus_one(self, single):
        assert (single.current_vote_array() == -1).all()

    def test_objects_with_votes_sorted_unique(self, single):
        vote(single, 0, 0, 7)
        vote(single, 0, 1, 2)
        vote(single, 1, 2, 7)
        assert np.array_equal(single.objects_with_votes(), [2, 7])


class TestMultiMode:
    def test_up_to_f_votes_count(self, multi):
        assert vote(multi, 0, 1, 3)
        assert vote(multi, 1, 1, 4)
        assert not vote(multi, 2, 1, 5)
        assert multi.votes_of(1) == (3, 4)

    def test_duplicate_object_vote_ignored(self, multi):
        vote(multi, 0, 1, 3)
        assert not vote(multi, 1, 1, 3)
        assert multi.votes_of(1) == (3,)

    def test_advice_target_is_first_vote(self, multi):
        vote(multi, 0, 1, 3)
        vote(multi, 1, 1, 4)
        assert multi.current_vote_array()[1] == 3

    def test_budget_accounting(self, multi):
        vote(multi, 0, 1, 3)
        vote(multi, 0, 1, 4)
        vote(multi, 0, 2, 5)
        assert multi.votes_cast_by(np.array([1, 2])) == 3


class TestMutableMode:
    def test_latest_vote_is_current(self, mutable):
        vote(mutable, 0, 1, 3)
        vote(mutable, 1, 1, 4)
        assert mutable.current_vote_array()[1] == 4

    def test_repeat_of_same_object_is_noop(self, mutable):
        vote(mutable, 0, 1, 3)
        assert not vote(mutable, 1, 1, 3)

    def test_switch_back_is_effective(self, mutable):
        vote(mutable, 0, 1, 3)
        vote(mutable, 1, 1, 4)
        assert vote(mutable, 2, 1, 3)
        assert mutable.current_vote_array()[1] == 3

    def test_window_counts_last_switch_only(self, mutable):
        vote(mutable, 0, 1, 3)
        vote(mutable, 1, 1, 4)
        counts = mutable.counts_in_window(0, 2)
        assert counts[3] == 0
        assert counts[4] == 1
        assert counts.sum() == 1


class TestWindows:
    def test_window_bounds_are_half_open(self, single):
        vote(single, 0, 0, 1)
        vote(single, 1, 1, 1)
        vote(single, 2, 2, 1)
        assert single.counts_in_window(1, 2)[1] == 1

    def test_negative_window_rejected(self, single):
        with pytest.raises(ConfigurationError):
            single.counts_in_window(3, 2)

    def test_empty_window_all_zero(self, single):
        vote(single, 0, 0, 1)
        assert single.counts_in_window(5, 9).sum() == 0

    def test_window_additivity(self, single):
        for r, (p, o) in enumerate([(0, 1), (1, 1), (2, 2), (3, 2), (4, 1)]):
            vote(single, r, p, o)
        whole = single.counts_in_window(0, 5)
        split = single.counts_in_window(0, 2) + single.counts_in_window(2, 5)
        assert np.array_equal(whole, split)


class TestHorizons:
    def test_current_votes_respect_horizon(self, single):
        vote(single, 0, 0, 1)
        vote(single, 3, 1, 2)
        asof = single.current_vote_array(before_round=3)
        assert asof[0] == 1
        assert asof[1] == -1

    def test_objects_with_votes_respect_horizon(self, single):
        vote(single, 0, 0, 5)
        vote(single, 4, 1, 6)
        assert np.array_equal(single.objects_with_votes(before_round=1), [5])

    def test_mutable_horizon_gives_vote_at_that_time(self, mutable):
        vote(mutable, 0, 1, 3)
        vote(mutable, 5, 1, 4)
        assert mutable.current_vote_array(before_round=5)[1] == 3
        assert mutable.current_vote_array(before_round=6)[1] == 4

    def test_multi_horizon_first_vote(self, multi):
        vote(multi, 0, 1, 3)
        vote(multi, 2, 1, 4)
        assert multi.current_vote_array(before_round=1)[1] == 3
        assert multi.current_vote_array(before_round=3)[1] == 3


class _ReferenceLedger:
    """The vote rules in plain Python: Figure 1's one vote per player,
    Section 4.1's first ``f`` distinct objects, and Section 5.3's latest
    vote, with a repeat of the current object not counted."""

    def __init__(self, mode, f):
        self.mode = mode
        self.cap = 1 if mode is VoteMode.SINGLE else f
        self.effective = []  # (round, player, object), in posting order
        self.rejected = set()  # why votes did not count

    def targets(self, player, before_round=None):
        return [
            o
            for r, p, o in self.effective
            if p == player and (before_round is None or r < before_round)
        ]

    def record(self, round_no, player, obj):
        mine = self.targets(player)
        if self.mode is VoteMode.MUTABLE:
            why = "repeat" if mine and mine[-1] == obj else ""
        elif len(mine) >= self.cap:
            why = "cap"
        else:
            why = "repeat" if obj in mine else ""
        if why:
            self.rejected.add(why)
        else:
            self.effective.append((round_no, player, obj))
        return not why

    def current(self, player, before_round=None):
        mine = self.targets(player, before_round)
        if not mine:
            return -1
        return mine[0] if self.mode is VoteMode.MULTI else mine[-1]


def _draw_block(rng, n, kind):
    """Two to five voters whose ids strictly increase, repeat a player,
    or come in some other order (distinct, not increasing)."""
    size = int(rng.integers(2, 6))
    if kind == "increasing":
        return np.sort(rng.choice(n, size, replace=False))
    if kind == "repeated":
        players = rng.choice(n, size - 1, replace=False)
        return np.insert(players, rng.integers(0, size), rng.choice(players))
    players = rng.choice(n, size, replace=False)
    return players[::-1] if (np.diff(players) > 0).all() else players


def _block_kind(players):
    if np.unique(players).size < players.size:
        return "repeated"
    return "increasing" if (np.diff(players) > 0).all() else "other"


class TestAgainstReference:
    """One interleaved random stream through ``record`` and through
    ``record_block``: both follow the plain-Python rules."""

    @pytest.mark.parametrize(
        "mode,f",
        [(VoteMode.SINGLE, 1), (VoteMode.MULTI, 3), (VoteMode.MUTABLE, 1)],
    )
    def test_record_and_record_block_follow_the_rules(self, mode, f):
        rng = np.random.default_rng(16)
        n, m = 64, 6
        per_post = VoteLedger(n, m, mode=mode, max_votes_per_player=f)
        blocked = VoteLedger(n, m, mode=mode, max_votes_per_player=f)
        reference = _ReferenceLedger(mode, f)
        kinds = ("increasing", "repeated", "other")
        # block kind -> how many such blocks had every vote effective,
        # and how many had some vote that did not count
        seen = {kind: [0, 0] for kind in kinds}
        round_no = 0
        for _block in range(60):
            players = _draw_block(rng, n, kinds[int(rng.integers(0, 3))])
            objects = rng.integers(0, m, size=players.size)
            expected = [
                reference.record(round_no, int(p), int(o))
                for p, o in zip(players, objects)
            ]
            assert [
                vote(per_post, round_no, int(p), int(o))
                for p, o in zip(players, objects)
            ] == expected
            mask = blocked.record_block(round_no, players, objects)
            assert mask.tolist() == expected
            seen[_block_kind(players)][0 if all(expected) else 1] += 1
            round_no += int(rng.integers(0, 2))
            for horizon in (None, round_no, max(round_no - 3, 0)):
                want = [reference.current(p, horizon) for p in range(n)]
                for ledger in (per_post, blocked):
                    assert ledger.current_vote_array(horizon).tolist() == want
        # every block order occurred, strictly increasing ones both with
        # every vote effective and with some vote not counted (a repeat
        # always carries an ineffective vote)
        assert all(sum(counts) for counts in seen.values()), seen
        assert min(seen["increasing"]) > 0, seen
        # the stream reached every rule of its mode
        assert reference.rejected == {
            VoteMode.SINGLE: {"cap"},
            VoteMode.MULTI: {"cap", "repeat"},
            VoteMode.MUTABLE: {"repeat"},
        }[mode]
        some = np.array([0, 3, 7])
        for ledger in (per_post, blocked):
            for p in range(n):
                assert ledger.votes_of(p) == tuple(reference.targets(p))
            assert ledger.votes_cast_by(np.arange(n)) == len(
                reference.effective
            )
            assert ledger.votes_cast_by(some) == sum(
                len(reference.targets(int(p))) for p in some
            )
