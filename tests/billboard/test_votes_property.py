"""Property-based tests for the VoteLedger (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.post import Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode

N_PLAYERS = 8
N_OBJECTS = 12

# A vote stream: (player, object) pairs posted in consecutive rounds.
vote_streams = st.lists(
    st.tuples(
        st.integers(0, N_PLAYERS - 1), st.integers(0, N_OBJECTS - 1)
    ),
    max_size=60,
)


def replay(mode, stream, f=2):
    ledger = VoteLedger(
        N_PLAYERS, N_OBJECTS, mode=mode, max_votes_per_player=f
    )
    for round_no, (player, obj) in enumerate(stream):
        ledger.record(
            Post(
                seq=round_no,
                round_no=round_no,
                player=player,
                object_id=obj,
                reported_value=1.0,
                kind=PostKind.VOTE,
            )
        )
    return ledger


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_single_mode_at_most_one_vote_per_player(stream):
    ledger = replay(VoteMode.SINGLE, stream)
    for player in range(N_PLAYERS):
        assert len(ledger.votes_of(player)) <= 1


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_single_mode_first_vote_wins(stream):
    ledger = replay(VoteMode.SINGLE, stream)
    first_by_player = {}
    for player, obj in stream:
        first_by_player.setdefault(player, obj)
    votes = ledger.current_vote_array()
    for player in range(N_PLAYERS):
        expected = first_by_player.get(player, -1)
        assert votes[player] == expected


@given(vote_streams, st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_multi_mode_cap_and_distinctness(stream, f):
    ledger = replay(VoteMode.MULTI, stream, f=f)
    for player in range(N_PLAYERS):
        targets = ledger.votes_of(player)
        assert len(targets) <= f
        assert len(set(targets)) == len(targets)


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_mutable_mode_current_is_last_posted(stream):
    ledger = replay(VoteMode.MUTABLE, stream)
    last_by_player = {}
    for player, obj in stream:
        last_by_player[player] = obj
    votes = ledger.current_vote_array()
    for player in range(N_PLAYERS):
        assert votes[player] == last_by_player.get(player, -1)


@given(vote_streams, st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_window_counts_are_additive(stream, a, b):
    lo, hi = sorted((a, b))
    ledger = replay(VoteMode.SINGLE, stream)
    whole = ledger.counts_in_window(0, 61)
    left = ledger.counts_in_window(0, lo)
    mid = ledger.counts_in_window(lo, hi)
    right = ledger.counts_in_window(hi, 61)
    assert np.array_equal(whole, left + mid + right)


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_total_counts_equal_effective_votes(stream):
    ledger = replay(VoteMode.SINGLE, stream)
    counts = ledger.counts_in_window(0, len(stream) + 1)
    assert counts.sum() == ledger.effective_vote_count


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_objects_with_votes_matches_counts(stream):
    ledger = replay(VoteMode.SINGLE, stream)
    counts = ledger.counts_in_window(0, len(stream) + 1)
    assert np.array_equal(
        ledger.objects_with_votes(), np.flatnonzero(counts > 0)
    )


# A SINGLE-mode write schedule: each step is one per-post ``record``
# (a 1-tuple) or one block (a list, possibly empty, players repeating in
# any order), then a round advance of 0-2.
_pair = st.tuples(st.integers(0, N_PLAYERS - 1), st.integers(0, N_OBJECTS - 1))
write_schedules = st.lists(
    st.tuples(
        st.one_of(st.tuples(_pair), st.lists(_pair, max_size=12)),
        st.integers(0, 2),
    ),
    max_size=25,
)


@given(write_schedules)
@settings(max_examples=120, deadline=None)
def test_single_record_block_equals_per_post_recording(schedule):
    """SINGLE ``record_block`` (one first-vote rule for every block)
    gives each vote the effectiveness one ``record`` per pair gives it,
    whatever the block's order, its repeats, the players who voted
    before it, and the per-post records between blocks; every query
    then agrees at every horizon."""
    blocked = VoteLedger(N_PLAYERS, N_OBJECTS, mode=VoteMode.SINGLE)
    per_post = VoteLedger(N_PLAYERS, N_OBJECTS, mode=VoteMode.SINGLE)
    round_no = 0
    for step, advance in schedule:
        votes = [
            Post(0, round_no, player, obj, 1.0, PostKind.VOTE)
            for player, obj in step
        ]
        expected = [per_post.record(post) for post in votes]
        if isinstance(step, tuple):
            got = [blocked.record(votes[0])]
        else:
            mask = blocked.record_block(
                round_no,
                np.array([p for p, _ in step], dtype=np.int64),
                np.array([o for _, o in step], dtype=np.int64),
            )
            assert mask.dtype == np.bool_
            got = mask.tolist()
        assert got == expected
        assert blocked.effective_vote_count == per_post.effective_vote_count
        round_no += advance
    for horizon in [None, *range(round_no + 2)]:
        for query in ("current_vote_array", "objects_with_votes"):
            assert np.array_equal(
                getattr(blocked, query)(horizon), getattr(per_post, query)(horizon)
            ), (query, horizon)
    for start in range(round_no + 2):
        for end in range(start, round_no + 2):
            assert np.array_equal(
                blocked.counts_in_window(start, end),
                per_post.counts_in_window(start, end),
            ), (start, end)
