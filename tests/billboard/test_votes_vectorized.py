"""Equivalence tests for the vectorized VoteLedger queries.

The ledger's numpy-column queries (``current_vote_array``,
``objects_with_votes``, ``counts_in_window``) replaced straightforward
Python walks over the effective-vote log. These properties replay random
vote streams through the ledger and check every query, at random horizons
and windows, against a pure-Python reference derived directly from the
mode semantics — including interleaved queries, which exercise the
per-horizon memo's invalidation on new effective votes.
"""

import pytest
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

modes = st.sampled_from([VoteMode.SINGLE, VoteMode.MULTI, VoteMode.MUTABLE])


def make_post(round_no, player, obj):
    return Post(
        seq=round_no,
        round_no=round_no,
        player=player,
        object_id=obj,
        reported_value=1.0,
        kind=PostKind.VOTE,
    )


def effective_log(mode, stream, f):
    """(round, player, object) rows the ledger should treat as effective,
    re-derived from the documented mode semantics alone."""
    targets = {player: [] for player in range(N_PLAYERS)}
    log = []
    for round_no, (player, obj) in enumerate(stream):
        held = targets[player]
        if mode is VoteMode.MUTABLE:
            if held and held[-1] == obj:
                continue
        else:
            cap = 1 if mode is VoteMode.SINGLE else f
            if len(held) >= cap or obj in held:
                continue
        held.append(obj)
        log.append((round_no, player, obj))
    return log


def ref_current_votes(mode, log, before_round):
    """Reference current_vote_array: first effective vote under MULTI,
    latest otherwise."""
    result = [-1] * N_PLAYERS
    for round_no, player, obj in log:
        if before_round is not None and round_no >= before_round:
            break
        if mode is VoteMode.MULTI and result[player] != -1:
            continue
        result[player] = obj
    return result


def ref_counts(mode, log, start, end):
    """Reference counts_in_window: one count per effective vote, except
    MUTABLE where only each player's last in-window switch counts."""
    in_window = [row for row in log if start <= row[0] < end]
    if mode is VoteMode.MUTABLE:
        last = {}
        for round_no, player, obj in in_window:
            last[player] = obj
        voted = list(last.values())
    else:
        voted = [obj for _round, _player, obj in in_window]
    counts = [0] * N_OBJECTS
    for obj in voted:
        counts[obj] += 1
    return counts


def replay(mode, stream, f):
    ledger = VoteLedger(
        N_PLAYERS, N_OBJECTS, mode=mode, max_votes_per_player=f
    )
    for round_no, (player, obj) in enumerate(stream):
        ledger.record(make_post(round_no, player, obj))
    return ledger


@given(modes, vote_streams, st.integers(1, 4), st.integers(0, 61))
@settings(max_examples=80, deadline=None)
def test_current_vote_array_matches_reference(mode, stream, f, horizon):
    ledger = replay(mode, stream, f)
    log = effective_log(mode, stream, f)
    assert ledger.current_vote_array(horizon).tolist() == ref_current_votes(
        mode, log, horizon
    )
    assert ledger.current_vote_array().tolist() == ref_current_votes(
        mode, log, None
    )


@given(modes, vote_streams, st.integers(1, 4), st.integers(0, 30),
       st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_counts_in_window_matches_reference(mode, stream, f, a, b):
    lo, hi = sorted((a, b))
    ledger = replay(mode, stream, f)
    log = effective_log(mode, stream, f)
    assert ledger.counts_in_window(lo, hi).tolist() == ref_counts(
        mode, log, lo, hi
    )


@given(modes, vote_streams, st.integers(1, 4), st.integers(0, 61))
@settings(max_examples=80, deadline=None)
def test_objects_with_votes_matches_reference(mode, stream, f, horizon):
    ledger = replay(mode, stream, f)
    log = effective_log(mode, stream, f)
    expected = sorted(
        {obj for round_no, _player, obj in log if round_no < horizon}
    )
    assert ledger.objects_with_votes(horizon).tolist() == expected


@given(modes, vote_streams, st.integers(1, 4), st.integers(0, 61),
       st.integers(0, 61))
@settings(max_examples=80, deadline=None)
def test_memo_survives_interleaved_records(mode, stream, f, h1, h2):
    """Querying between records must never leak stale memo entries, and
    repeated queries at the same horizon must return equal arrays that a
    caller cannot write through."""
    ledger = VoteLedger(
        N_PLAYERS, N_OBJECTS, mode=mode, max_votes_per_player=f
    )
    for round_no, (player, obj) in enumerate(stream):
        ledger.record(make_post(round_no, player, obj))
        ledger.current_vote_array(h1)  # populate the memo mid-stream
        ledger.counts_in_window(0, h2)
    log = effective_log(mode, stream, f)
    first = ledger.current_vote_array(h1)
    again = ledger.current_vote_array(h1)
    assert first.tolist() == again.tolist() == ref_current_votes(
        mode, log, h1
    )
    with pytest.raises(ValueError):
        first[:] = -7  # the memo is shared, so the write must be refused
    assert ledger.current_vote_array(h1).tolist() == ref_current_votes(
        mode, log, h1
    )
    assert ledger.counts_in_window(0, h2).tolist() == ref_counts(
        mode, log, 0, h2
    )


@pytest.mark.parametrize("mode", list(VoteMode))
@pytest.mark.parametrize("horizon", [3, None])
def test_every_query_hands_out_a_read_only_memo(mode, horizon):
    """Each query returns its memoized array itself, non-writeable, on
    the memo miss and on the hit that follows, at a cut horizon and at
    the full one. Player 0 votes twice, so each mode's own rule runs,
    and the cut at round 3 leaves votes on both sides."""
    stream = [(0, 1), (1, 2), (2, 2), (0, 3), (3, 4), (1, 5)]
    ledger = replay(mode, stream, 2)
    end = len(stream) if horizon is None else horizon
    queries = (
        lambda: ledger.current_vote_array(horizon),
        lambda: ledger.objects_with_votes(horizon),
        lambda: ledger.counts_in_window(0, end),
    )
    for query in queries:
        miss = query()
        hit = query()
        assert hit is miss
        assert not miss.flags.writeable
        with pytest.raises(ValueError):
            miss[0] = 99
