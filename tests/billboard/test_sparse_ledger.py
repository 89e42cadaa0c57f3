"""Unit parity for the vote ledger's block write and the columnar board.

:meth:`~repro.billboard.votes.VoteLedger.record_block` promises exactly
what one :meth:`~repro.billboard.votes.VoteLedger.record` call per
``(player, object)`` pair would do, and
:class:`~repro.billboard.columnar.ColumnarBoard` promises
*bit-identical* behaviour to :class:`~repro.billboard.board.Billboard`,
for every vote mode and every query — neither the substrate knob nor the
post log's storage may change a result. This module drives the
implementations through the same randomized workloads and asserts every
observable agrees, plus the pinned satellite contracts: empty batches
are explicit no-ops and column views are read-only.
"""

import itertools

import numpy as np
import pytest

from repro.billboard.board import Billboard
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import Post, PostKind
from repro.billboard.sparse import (
    SPARSE_AUTO_THRESHOLD,
    choose_substrate,
    normalize_substrate,
)
from repro.billboard.views import BillboardView
from repro.billboard.votes import VoteLedger, VoteMode
from repro.errors import ConfigurationError, InvalidPostError, ReproError

MODES = {
    "single": (VoteMode.SINGLE, 1),
    "multi": (VoteMode.MULTI, 3),
    "mutable": (VoteMode.MUTABLE, 2),
}

#: the columnar board's two batch writes
WRITE_PATHS = ("append_many", "post_block")


def _vote_post(round_no, player, obj):
    return Post(
        seq=0,
        round_no=round_no,
        player=player,
        object_id=obj,
        reported_value=1.0,
        kind=PostKind.VOTE,
    )


def _ledger(mode_name, n_players=24, n_objects=12):
    mode, cap = MODES[mode_name]
    return VoteLedger(
        n_players, n_objects, mode=mode, max_votes_per_player=cap
    )


def _assert_ledgers_agree(a, b, horizons):
    for horizon in horizons:
        for name in ("current_vote_array", "objects_with_votes"):
            x = getattr(a, name)(horizon)
            y = getattr(b, name)(horizon)
            assert np.array_equal(x, y), (name, horizon)
            assert x.dtype == y.dtype, (name, horizon)
    for start, end in [(0, 1), (0, 50), (2, 5), (3, 3), (1, 10)]:
        x = a.counts_in_window(start, end)
        y = b.counts_in_window(start, end)
        assert np.array_equal(x, y), (start, end)
    assert a.effective_vote_count == b.effective_vote_count
    for player in range(a.n_players):
        assert a.votes_of(player) == b.votes_of(player), player
    players = np.arange(a.n_players)
    assert a.votes_cast_by(players) == b.votes_cast_by(players)


class TestLedgerParity:
    """Randomized interleaved workload, every mode: ``record_block`` ≡
    one ``record`` per pair, in order."""

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    def test_block_matches_per_post_record(self, mode_name):
        rng = np.random.default_rng(2026)
        repeated_blocks = 0
        for trial in range(10):
            blocked, per_post = _ledger(mode_name), _ledger(mode_name)
            round_no = 0
            for _step in range(40):
                if rng.random() < 0.5:
                    player = int(rng.integers(blocked.n_players))
                    obj = int(rng.integers(blocked.n_objects))
                    post = _vote_post(round_no, player, obj)
                    assert blocked.record(post) == per_post.record(post)
                else:
                    k = int(rng.integers(0, 7))
                    players = rng.integers(0, blocked.n_players, size=k)
                    objects = rng.integers(0, blocked.n_objects, size=k)
                    repeated_blocks += len(set(players.tolist())) < k
                    mask = blocked.record_block(round_no, players, objects)
                    expected = [
                        per_post.record(_vote_post(round_no, int(p), int(o)))
                        for p, o in zip(players, objects)
                    ]
                    assert mask.dtype == np.bool_
                    assert mask.tolist() == expected
                if rng.random() < 0.4:
                    round_no += int(rng.integers(1, 3))
                if rng.random() < 0.3:
                    horizon = int(rng.integers(0, round_no + 2))
                    _assert_ledgers_agree(blocked, per_post, [horizon])
            _assert_ledgers_agree(
                blocked, per_post, [None, 0, 1, round_no + 1]
            )
        # blocks that repeat a player are what the SINGLE-mode
        # vectorized branch must resolve like the per-post rule
        assert repeated_blocks > 0

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    def test_empty_record_block_is_a_no_op(self, mode_name):
        ledger = _ledger(mode_name)
        accepted = ledger.record_block(
            3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert accepted.shape == (0,)
        assert accepted.dtype == np.bool_
        assert ledger.effective_vote_count == 0
        _assert_ledgers_agree(ledger, _ledger(mode_name), [None, 0, 5])


def _write(board, round_no, entries, path):
    """Append one round's entries through ``path``: one ``append_many``
    call, or one ``post_block`` call per run of same-kind entries (entry
    order kept). ``Billboard`` is always written through ``append_many``,
    so the parity tests hold each path against that one."""
    if path == "append_many" or isinstance(board, Billboard):
        board.append_many(round_no, entries)
        return
    for kind, run in itertools.groupby(entries, key=lambda e: e[3]):
        run = list(run)
        board.post_block(
            round_no,
            np.array([e[0] for e in run]),
            np.array([e[1] for e in run]),
            np.array([e[2] for e in run]),
            kind,
        )


def _assert_post_columns_match_posts(board, kind, horizon):
    """``post_columns`` is ``posts()`` as read-only columns, through the
    board and through a view at the same horizon."""
    posts = board.posts(kind=kind, before_round=horizon)
    expected = (
        [p.player for p in posts],
        [p.object_id for p in posts],
        [p.reported_value for p in posts],
    )
    view = BillboardView(board, before_round=horizon)
    for columns in (
        board.post_columns(kind, before_round=horizon),
        view.post_columns(kind),
    ):
        assert [c.tolist() for c in columns] == list(expected), (kind, horizon)
        for column in columns:
            with pytest.raises(ValueError):
                column[:1] = 0


def _assert_boards_agree(dense, columnar):
    """Every read of the Billboard API, including list semantics."""
    assert len(dense) == len(columnar)
    assert dense.last_round == columnar.last_round
    for i in range(-len(dense), len(dense)):
        assert dense[i] == columnar[i], i
    for i in (len(dense), -len(dense) - 1):
        with pytest.raises(IndexError):
            dense[i]
        with pytest.raises(IndexError):
            columnar[i]
    assert list(dense) == list(columnar)
    horizons = [None, 0, 1, dense.last_round, dense.last_round + 1]
    for horizon in horizons:
        for kind in (None, PostKind.VOTE, PostKind.REPORT):
            assert dense.posts(kind=kind, before_round=horizon) == (
                columnar.posts(kind=kind, before_round=horizon)
            ), (kind, horizon)
        assert dense.vote_posts(horizon) == columnar.vote_posts(horizon)
        for name in ("current_vote_array", "objects_with_votes"):
            a = getattr(dense, name)(horizon)
            b = getattr(columnar, name)(horizon)
            assert np.array_equal(a, b) and a.dtype == b.dtype, (name, horizon)
    for player in range(dense.n_players):
        assert dense.posts(player=player) == columnar.posts(player=player)
    for start, end in [(0, 1), (0, 50), (2, 5), (3, 3)]:
        a = dense.counts_in_window(start, end)
        b = columnar.counts_in_window(start, end)
        assert np.array_equal(a, b) and a.dtype == b.dtype, (start, end)


class TestBoardParity:
    """Billboard ≡ ColumnarBoard, written through ``append_many`` or
    ``post_block``: posts read back, list semantics, ledger queries,
    validation errors, and empty batches."""

    def _boards(self, mode_name, n_players=16, n_objects=8):
        mode, cap = MODES[mode_name]
        dense = Billboard(
            n_players, n_objects, vote_mode=mode, max_votes_per_player=cap
        )
        columnar = ColumnarBoard(
            n_players, n_objects, vote_mode=mode, max_votes_per_player=cap
        )
        return dense, columnar

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    def test_append_paths_agree(self, mode_name):
        for path in WRITE_PATHS:
            dense, columnar = self._boards(mode_name)
            assert type(columnar.ledger) is VoteLedger
            rng = np.random.default_rng(7)
            round_no = 0
            for _step in range(25):
                entries = [
                    (
                        int(rng.integers(16)),
                        int(rng.integers(8)),
                        float(rng.random()),
                        PostKind.VOTE if rng.random() < 0.7 else PostKind.REPORT,
                    )
                    for _ in range(int(rng.integers(0, 4)))
                ]
                for board in (dense, columnar):
                    _write(board, round_no, entries, path)
                round_no += int(rng.integers(0, 2))
            _assert_boards_agree(dense, columnar)

    @pytest.mark.parametrize("path", WRITE_PATHS)
    def test_post_columns_match_posts(self, path):
        rng = np.random.default_rng(11)
        boards = self._boards("single")
        round_no = 0
        for _step in range(30):
            entries = [
                (
                    int(rng.integers(16)),
                    int(rng.integers(8)),
                    float(rng.random()),
                    PostKind.VOTE if rng.random() < 0.5 else PostKind.REPORT,
                )
                for _ in range(int(rng.integers(0, 5)))
            ]
            for board in boards:
                _write(board, round_no, entries, path)
            round_no += int(rng.integers(0, 3))
        for board in boards:
            for horizon in [None, *range(round_no + 2)]:
                for kind in PostKind:
                    _assert_post_columns_match_posts(board, kind, horizon)

    def test_empty_append_many_is_a_no_op(self):
        empty_ids = np.zeros(0, dtype=np.int64)
        dense, columnar = self._boards("single")
        digest = dense.head_digest
        for board in (dense, columnar):
            assert board.append_many(5, []) is None
            board.post_block(
                5, empty_ids, empty_ids, np.zeros(0), PostKind.VOTE
            )
        _assert_boards_agree(dense, columnar)
        assert dense.head_digest == digest
        assert len(columnar) == 0 and columnar.last_round == -1
        # a later batch at an *earlier* round still succeeds: the
        # empty batch must not have advanced the round clock
        for board in (dense, columnar):
            board.append_many(2, [(0, 0, 1.0, PostKind.VOTE)])
        _assert_boards_agree(dense, columnar)

    def test_validation_errors_match_dense(self):
        vote = PostKind.VOTE
        two_bad = [(0, 99, 1.0, vote), (99, 0, 1.0, vote)]
        cases = [
            (0, [(8, 0, 1.0, vote)]),
            (0, [(0, 16, 1.0, vote)]),
            (-1, [(0, 0, 1.0, vote)]),
            (1, [(0, 0, 1.0, vote)]),  # before the round already posted
            # the first bad entry wins, in entry order, and an entry's
            # player is checked before its object
            (2, two_bad),
            (2, [(0, 0, 1.0, vote), (99, 99, 1.0, vote), (0, 99, 1.0, vote)]),
            # the round checks surface at entry 0 unless its ids fail first
            (-1, [(0, 0, 1.0, vote), (99, 0, 1.0, vote)]),
            (-1, [(99, 0, 1.0, vote), (0, 0, 1.0, vote)]),
        ]
        for path in WRITE_PATHS:
            dense, columnar = self._boards("single", n_players=8, n_objects=16)
            for board in (dense, columnar):
                _write(board, 2, [(1, 1, 1.0, vote)], path)
            for round_no, entries in cases:
                with pytest.raises(ReproError) as dense_err:
                    _write(dense, round_no, entries, path)
                with pytest.raises(ReproError) as columnar_err:
                    _write(columnar, round_no, entries, path)
                assert type(dense_err.value) is type(columnar_err.value)
                assert str(dense_err.value) == str(columnar_err.value)
                _assert_boards_agree(dense, columnar)  # nothing appended
            for board in (dense, columnar):
                with pytest.raises(InvalidPostError) as err:
                    _write(board, 2, two_bad, path)
                assert str(err.value) == "unknown object 99 (m=16)"


class TestReadOnlyViews:
    """Satellite pin: ledger column views cannot be mutated in place."""

    def test_dense_column_view_is_read_only(self):
        ledger = VoteLedger(4, 4)
        ledger.record(_vote_post(0, 1, 2))
        view = ledger._players.view()
        with pytest.raises(ValueError):
            view[0] = 3

    def test_lane_column_view_is_read_only(self):
        board = ColumnarBoard(4, 4)
        board.post_block(
            0,
            np.array([1]),
            np.array([2]),
            np.array([1.0]),
            PostKind.VOTE,
        )
        view = board._players.view()
        with pytest.raises(ValueError):
            view[0] = 3

    def test_view_does_not_freeze_the_buffer(self):
        # the writeable=False flag is on the returned window only; the
        # ledger itself must keep accepting votes afterwards
        ledger = VoteLedger(4, 4)
        ledger.record(_vote_post(0, 1, 2))
        ledger._players.view()
        assert ledger.record(_vote_post(1, 2, 3))


class TestSubstrateSelection:
    """The knob helpers behind ``substrate=``."""

    def test_normalize_accepts_the_three_choices(self):
        assert normalize_substrate(None) == "auto"
        assert normalize_substrate("auto") == "auto"
        assert normalize_substrate("dense") == "dense"
        assert normalize_substrate("sparse") == "sparse"
        with pytest.raises(ConfigurationError):
            normalize_substrate("bogus")

    def test_auto_picks_sparse_at_the_threshold(self):
        assert choose_substrate("auto", SPARSE_AUTO_THRESHOLD - 1) == "dense"
        assert choose_substrate("auto", SPARSE_AUTO_THRESHOLD) == "sparse"
        assert choose_substrate(None, SPARSE_AUTO_THRESHOLD) == "sparse"
        assert choose_substrate("dense", 10**6) == "dense"
        assert choose_substrate("sparse", 2) == "sparse"
