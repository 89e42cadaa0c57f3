"""Property-based tests of the DISTILL phase machine.

Hypothesis drives random vote streams (arbitrary players, objects,
timings — i.e. arbitrary Byzantine posting patterns) through the tracker
and asserts its structural invariants: phase clocks never run backwards,
candidate sets are nested within Step 2, restarts reset cleanly, and the
machine is a pure function of the board prefix. A tracker restricted to
a universe (Theorem 12's cost classes) must filter exactly as a
reference that intersects each phase set with the universe.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.board import Billboard
from repro.billboard.post import PostKind
from repro.billboard.views import BillboardView
from repro.core.parameters import DistillParameters
from repro.core.tracker import DistillPhase, DistillPhaseTracker
from repro.strategies.base import StrategyContext

N, M = 16, 16

vote_streams = st.lists(
    st.tuples(
        st.integers(0, 40),      # round offset
        st.integers(0, N - 1),   # player
        st.integers(0, M - 1),   # object
    ),
    max_size=50,
)


def build_board(stream):
    board = Billboard(N, M)
    for round_no, player, obj in sorted(stream, key=lambda t: t[0]):
        board.append(round_no, player, obj, 1.0, PostKind.VOTE)
    return board


def ctx():
    return StrategyContext(
        n=N, m=M, alpha=0.5, beta=0.25, good_threshold=0.5
    )


def drive(board, upto=60):
    """Advance a fresh tracker round by round; return state snapshots."""
    tracker = DistillPhaseTracker(ctx(), DistillParameters())
    states = []
    for round_no in range(upto):
        tracker.advance(
            round_no, BillboardView(board, before_round=round_no)
        )
        states.append(
            (
                round_no,
                tracker.phase,
                tracker.phase_start,
                tuple(tracker.candidates.tolist()),
                tuple(tracker.pool.tolist()),
            )
        )
    return tracker, states


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_phase_start_never_decreases(stream):
    _tracker, states = drive(build_board(stream))
    starts = [s[2] for s in states]
    assert all(a <= b for a, b in zip(starts, starts[1:]))


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_candidates_nested_within_iterations(stream):
    _tracker, states = drive(build_board(stream))
    previous = None
    for _round_no, phase, start, candidates, _pool in states:
        if phase is DistillPhase.ITERATION:
            if previous is not None and previous[0] == start:
                pass  # same window, same candidates
            elif previous is not None:
                # new iteration window: candidates must be a subset of
                # the previous window's candidates
                assert set(candidates) <= set(previous[1]) or not previous[1]
            previous = (start, candidates)
        else:
            previous = None


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_pool_is_always_within_universe(stream):
    _tracker, states = drive(build_board(stream))
    for _round_no, _phase, _start, _candidates, pool in states:
        assert all(0 <= obj < M for obj in pool)


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_step11_pool_is_full_universe(stream):
    _tracker, states = drive(build_board(stream))
    for _round_no, phase, _start, _candidates, pool in states:
        if phase is DistillPhase.STEP11:
            assert pool == tuple(range(M))


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_tracker_is_deterministic_in_the_board(stream):
    board = build_board(stream)
    _t1, s1 = drive(board)
    _t2, s2 = drive(board)
    assert s1 == s2


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_incremental_equals_batch_advance(stream):
    """Advancing round-by-round and jumping straight to the last round
    land in the same state (advance is idempotent over prefixes)."""
    board = build_board(stream)
    stepped, states = drive(board, upto=60)
    jumped = DistillPhaseTracker(ctx(), DistillParameters())
    jumped.advance(59, BillboardView(board, before_round=59))
    assert jumped.phase is stepped.phase
    assert jumped.phase_start == stepped.phase_start
    assert np.array_equal(jumped.candidates, stepped.candidates)


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_diagnostics_account_all_iterations(stream):
    tracker, states = drive(build_board(stream))
    diag = tracker.diagnostics()
    assert diag["attempt_count"] >= 1
    assert diag["total_iterations"] == sum(
        a["iterations"] for a in diag["attempts"]
    )
    assert diag["max_iterations_per_attempt"] <= max(
        (a["iterations"] for a in diag["attempts"]), default=0
    ) + 0


#: a universe as ``ObjectSpace.cost_class_members`` returns one: a
#: sorted subset of the object ids, possibly empty
universes = st.lists(st.integers(0, M - 1), unique=True).map(sorted)


class IntersectReference(DistillPhaseTracker):
    """Steps 1.2 and 1.4 filtering each phase set through
    ``np.intersect1d`` with the universe."""

    def _enter_step13(self, end, view):
        pool = np.intersect1d(view.objects_with_votes(), self.universe)
        self._current["s_size"] = int(pool.size)
        self.phase = DistillPhase.STEP13
        self.phase_start = end
        self.phase_len = self.len_step13
        self.pool = pool

    def _enter_iterations(self, end, view):
        counts = view.counts_in_window(self.phase_start, end)
        c0 = np.intersect1d(
            np.flatnonzero(counts >= self.params.c0_vote_threshold),
            self.universe,
        ).astype(np.int64)
        self._current["c_sizes"].append(int(c0.size))
        self.candidates = c0
        self.iteration = 0
        if c0.size == 0:
            self._restart(end)
        else:
            self.phase = DistillPhase.ITERATION
            self.phase_start = end
            self.phase_len = self.len_iteration
            self.pool = c0


@given(vote_streams, universes)
@settings(max_examples=80, deadline=None)
def test_restricted_universe_matches_intersect1d_reference(stream, members):
    board = build_board(stream)
    universe = np.array(members, dtype=np.int64)
    # short phases (k1=2, k2=4) so a 60-round drive crosses many of them
    params = DistillParameters(k1=2.0, k2=4.0)
    tracker = DistillPhaseTracker(ctx(), params, universe=universe)
    reference = IntersectReference(ctx(), params, universe=universe)
    for round_no in range(60):
        view = BillboardView(board, before_round=round_no)
        tracker.advance(round_no, view)
        reference.advance(round_no, view)
        assert tracker.phase is reference.phase
        assert tracker.phase_start == reference.phase_start
        for got, want in (
            (tracker.pool, reference.pool),
            (tracker.candidates, reference.candidates),
        ):
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()
    assert tracker.diagnostics() == reference.diagnostics()
