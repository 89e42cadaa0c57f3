"""Tests for the append-only billboard."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.board import Billboard
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import PostKind
from repro.billboard.votes import KEEP_BUFFER_BYTES
from repro.errors import InvalidPostError, TamperError

#: the head digest of a fixed three-post history, recorded from the eager
#: per-append chain before lazy materialization landed — must never change
GOLDEN_DIGEST = (
    "02ef530994b56ae56f4172b2401bb0c2e9a40e9d9c5811e78388b4d69039150c"
)


def _golden_entries():
    """(round_no, player, object_id, value, kind) rows behind GOLDEN_DIGEST."""
    return [
        (0, 1, 2, 1.0, PostKind.VOTE),
        (1, 2, 3, 0.25, PostKind.REPORT),
        (3, 0, 1, -2.5, PostKind.VOTE),
    ]


def _stored_parts(column):
    """A column's stored rows as writeable arrays, in row order: each
    buffer kept by growth, then the used rows of the current one."""
    kept, buf, used, _size = column._state
    return [*kept, buf[:used]]


def _poke(column, row, value):
    """Overwrite stored row ``row`` of ``column`` in place, behind the
    append API, in whichever buffer holds it."""
    for part in _stored_parts(column):
        if row < part.size:
            part[row] = value
            return
        row -= part.size
    raise IndexError(row)


#: the board's four write paths: a same-kind column block, an all-vote
#: and a mixed-kind entry batch, and one row at a time
WRITE_PATHS = ("post_block", "append_many_votes", "append_many_mixed", "append")


def _history(path):
    """Three rounds of ``(player, object, value, kind)`` entries that
    ``path`` can write, players repeating within and across rounds."""
    rows = [
        [(1, 2, 1.0), (3, 4, 0.5), (1, 5, -2.5)],
        [(6, 7, 0.25), (1, 2, 1.0)],
        [(0, 15, 3.0), (7, 0, -1.0), (3, 3, 0.75)],
    ]
    same_kind = path in ("post_block", "append_many_votes")
    return [
        [
            (p, o, v, PostKind.VOTE if same_kind or (p + o) % 2 else PostKind.REPORT)
            for p, o, v in round_rows
        ]
        for round_rows in rows
    ]


def _write(board, path, round_no, entries):
    """Write one round's ``entries`` through ``path``."""
    if path == "post_block":
        players, objects, values, kinds = zip(*entries)
        assert len(set(kinds)) == 1
        board.post_block(
            round_no, np.array(players), np.array(objects), np.array(values), kinds[0]
        )
    elif path == "append":
        for entry in entries:
            board.append(round_no, *entry)
    else:
        board.append_many(round_no, entries)


#: out-of-API edits: a changed value in each stored column, a reorder
#: and a delete
_EDITS = {
    "round": lambda board: _poke(board._rounds, 4, 2),
    "player": lambda board: _poke(board._players, 1, 5),
    "object": lambda board: _poke(board._objects, 4, 9),
    "value": lambda board: _poke(board._values, 0, 0.125),
    "kind": lambda board: _poke(
        board._kinds, 3, 1 - board._kinds.view()[3]
    ),
    "reorder": lambda board: _edit_columns(board, lambda rows: rows[::-1]),
    "delete": lambda board: _edit_columns(board, lambda rows: rows[:-1]),
}


def _edit_columns(board, edit):
    """Rewrite every stored column in place, behind the append API:
    ``edit`` maps a column's rows to the rows to store instead, as many
    or fewer (the column then ends early)."""
    for column in board._columns():
        parts = _stored_parts(column)
        rows = edit(np.concatenate(parts))
        offset = 0
        for part in parts:
            chunk = rows[offset : offset + part.size]
            part[: chunk.size] = chunk
            offset += part.size
        kept, buf, used, size = column._state
        column._state = (kept, buf, used - (size - rows.size), rows.size)


class TestAppend:
    def test_append_assigns_sequential_seq(self, board):
        p0 = board.append(0, 1, 2, 0.0, PostKind.REPORT)
        p1 = board.append(0, 2, 3, 1.0, PostKind.VOTE)
        assert (p0.seq, p1.seq) == (0, 1)

    def test_append_stamps_round(self, board):
        post = board.append(5, 0, 0, 0.0, PostKind.REPORT)
        assert post.round_no == 5
        assert board.last_round == 5

    def test_rejects_unknown_player(self, board):
        with pytest.raises(InvalidPostError):
            board.append(0, 8, 0, 0.0, PostKind.REPORT)

    def test_rejects_negative_player(self, board):
        with pytest.raises(InvalidPostError):
            board.append(0, -1, 0, 0.0, PostKind.REPORT)

    def test_rejects_unknown_object(self, board):
        with pytest.raises(InvalidPostError):
            board.append(0, 0, 16, 0.0, PostKind.REPORT)

    def test_rejects_negative_round(self, board):
        with pytest.raises(InvalidPostError):
            board.append(-1, 0, 0, 0.0, PostKind.REPORT)

    def test_append_only_rounds_must_not_decrease(self, board):
        board.append(4, 0, 0, 0.0, PostKind.REPORT)
        with pytest.raises(TamperError):
            board.append(3, 0, 0, 0.0, PostKind.REPORT)

    def test_same_round_multiple_posts_allowed(self, board):
        board.append(2, 0, 0, 0.0, PostKind.REPORT)
        board.append(2, 1, 1, 0.0, PostKind.REPORT)
        assert len(board) == 2


class TestPostBlockValidation:
    """A block is checked whole: a bad id anywhere raises that entry's
    error, the first bad entry's, and nothing lands."""

    @pytest.mark.parametrize("cls", [Billboard, ColumnarBoard])
    @pytest.mark.parametrize(
        "players,objects,message",
        [
            ([0, 3, 8, 2], [1, 1, 1, 1], "unknown player identity 8 (n=8)"),
            ([0, 3, -1, 9], [1, 1, 1, 1], "unknown player identity -1 (n=8)"),
            ([0, 3, -1], [1, 1, 1], "unknown player identity -1 (n=8)"),
            ([0, 3, 5], [1, -4, 16], "unknown object -4 (m=16)"),
            ([0, 3, 5], [1, -4, 2], "unknown object -4 (m=16)"),
            ([0, 3, 5], [1, 2, 16], "unknown object 16 (m=16)"),
            # an entry's player is checked before its object
            ([0, 9, 5], [1, 16, 1], "unknown player identity 9 (n=8)"),
        ],
    )
    def test_first_bad_entry_raises(self, cls, players, objects, message):
        board = cls(8, 16)
        board.post_block(0, np.array([1]), np.array([2]), np.ones(1), PostKind.VOTE)
        with pytest.raises(InvalidPostError) as err:
            board.post_block(
                1, np.array(players), np.array(objects),
                np.ones(len(players)), PostKind.VOTE,
            )
        assert str(err.value) == message
        assert len(board) == 1
        assert board.current_vote_array().tolist() == [-1, 2] + [-1] * 6

    @pytest.mark.parametrize("cls", [Billboard, ColumnarBoard])
    def test_ids_at_the_bounds_pass(self, cls):
        board = cls(8, 16)
        board.post_block(
            0, np.array([0, 7]), np.array([15, 0]), np.ones(2), PostKind.REPORT
        )
        assert [(p.player, p.object_id) for p in board] == [(0, 15), (7, 0)]


class TestReading:
    def test_len_counts_all_posts(self, board):
        for r in range(3):
            board.append(r, r, r, 0.0, PostKind.REPORT)
        assert len(board) == 3

    def test_iteration_preserves_order(self, board):
        board.append(0, 0, 1, 0.0, PostKind.REPORT)
        board.append(1, 1, 2, 0.0, PostKind.VOTE)
        seqs = [p.seq for p in board]
        assert seqs == [0, 1]

    def test_getitem_by_seq(self, board):
        board.append(0, 3, 4, 0.5, PostKind.VOTE)
        assert board[0].player == 3

    def test_posts_filter_by_kind(self, board):
        board.append(0, 0, 0, 0.0, PostKind.REPORT)
        board.append(0, 1, 1, 1.0, PostKind.VOTE)
        votes = board.posts(kind=PostKind.VOTE)
        assert len(votes) == 1
        assert votes[0].player == 1

    def test_posts_filter_by_player(self, board):
        board.append(0, 2, 0, 0.0, PostKind.REPORT)
        board.append(0, 3, 1, 0.0, PostKind.REPORT)
        assert len(board.posts(player=2)) == 1

    def test_posts_before_round_excludes_current(self, board):
        board.append(0, 0, 0, 1.0, PostKind.VOTE)
        board.append(1, 1, 1, 1.0, PostKind.VOTE)
        visible = board.posts(before_round=1)
        assert [p.player for p in visible] == [0]

    def test_empty_board_last_round(self, board):
        assert board.last_round == -1


class TestLedgerIntegration:
    def test_vote_posts_feed_ledger(self, board):
        board.append(0, 1, 5, 1.0, PostKind.VOTE)
        votes = board.current_vote_array()
        assert votes[1] == 5

    def test_reports_do_not_feed_ledger(self, board):
        board.append(0, 1, 5, 0.0, PostKind.REPORT)
        assert board.current_vote_array()[1] == -1

    def test_counts_in_window_passthrough(self, board):
        board.append(0, 1, 5, 1.0, PostKind.VOTE)
        board.append(3, 2, 5, 1.0, PostKind.VOTE)
        counts = board.counts_in_window(0, 2)
        assert counts[5] == 1

    def test_objects_with_votes_passthrough(self, board):
        board.append(0, 0, 7, 1.0, PostKind.VOTE)
        board.append(1, 1, 3, 1.0, PostKind.VOTE)
        assert np.array_equal(board.objects_with_votes(), [3, 7])


class TestIntegrityChain:
    def test_fresh_board_verifies(self, board):
        board.verify_integrity()

    def test_head_digest_changes_per_append(self, board):
        d0 = board.head_digest
        board.append(0, 0, 0, 0.0, PostKind.REPORT)
        d1 = board.head_digest
        board.append(0, 1, 1, 1.0, PostKind.VOTE)
        assert len({d0, d1, board.head_digest}) == 3

    def test_identical_histories_share_digests(self):
        a = Billboard(4, 4)
        b = Billboard(4, 4)
        for board_ in (a, b):
            board_.append(0, 1, 2, 1.0, PostKind.VOTE)
            board_.append(1, 2, 3, 0.0, PostKind.REPORT)
        assert a.head_digest == b.head_digest

    def test_populated_board_verifies(self, board):
        for r in range(5):
            board.append(r, r % 8, r % 16, float(r % 2), PostKind.VOTE)
        board.verify_integrity()

    def test_mutated_post_detected(self, board):
        board.append(0, 1, 2, 1.0, PostKind.VOTE)
        board.append(1, 2, 3, 1.0, PostKind.VOTE)
        # simulate an out-of-API mutation of history
        _poke(board._objects, 0, 9)
        assert board[0].object_id == 9
        with pytest.raises(TamperError):
            board.verify_integrity()

    def test_reordered_posts_detected(self, board):
        board.append(0, 1, 2, 1.0, PostKind.VOTE)
        board.append(1, 2, 3, 1.0, PostKind.VOTE)
        _edit_columns(board, lambda rows: rows[::-1])
        assert [p.player for p in board] == [2, 1]
        with pytest.raises(TamperError):
            board.verify_integrity()

    def test_deleted_post_detected(self, board):
        board.append(0, 1, 2, 1.0, PostKind.VOTE)
        board.append(1, 2, 3, 1.0, PostKind.VOTE)
        _edit_columns(board, lambda rows: rows[1:])
        assert len(board) == 1
        with pytest.raises(TamperError):
            board.verify_integrity()

    def test_digest_matches_pre_lazy_golden(self):
        b = Billboard(4, 4)
        for round_no, player, obj, value, kind in _golden_entries():
            b.append(round_no, player, obj, value, kind)
        assert b.head_digest == GOLDEN_DIGEST

    def test_mutation_before_materialization_detected(self, board):
        """The lazy chain copies each write's rows, so tampering with a
        stored post before the digest is ever read still fails."""
        board.append(0, 1, 2, 1.0, PostKind.VOTE)
        _poke(board._objects, 0, 9)  # changed without reading head_digest first
        with pytest.raises(TamperError):
            board.verify_integrity()

    def test_edit_in_a_kept_buffer_detected(self):
        """Past the size rule a column's early rows stay in the buffer
        growth kept; an edit there, made before the digest is ever read,
        still fails verification."""
        board = Billboard(8, 16)
        block = 4096
        ids = np.arange(block) % 8
        # enough float64 values to fill one kept buffer and start another
        for round_no in range(KEEP_BUFFER_BYTES // 8 // block + 1):
            board.post_block(
                round_no, ids, ids, np.full(block, 0.5), PostKind.REPORT
            )
        kept, _buf, _used, _size = board._values._state
        assert kept and kept[0].nbytes >= KEEP_BUFFER_BYTES
        _poke(board._values, 0, 0.25)
        assert board[0].reported_value == 0.25
        with pytest.raises(TamperError):
            board.verify_integrity()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: np.where(np.arange(rows.size) == 1, rows + 1, rows),
            lambda rows: rows[::-1],
            lambda rows: rows[1:],
        ],
        ids=["mutated", "reordered", "deleted"],
    )
    def test_digest_first_read_after_an_edit_is_the_untampered_one(self, edit):
        """The head digest folds the copies taken at write time, not the
        live columns: read first after an edit, it is still the clean
        board's, and verification sees the edit whether the digest was
        read before it or not."""
        clean, tampered, read_first = (Billboard(4, 4) for _ in range(3))
        for board_ in (clean, tampered, read_first):
            for round_no, player, obj, value, kind in _golden_entries():
                board_.append(round_no, player, obj, value, kind)
        read_first.head_digest
        for board_ in (tampered, read_first):
            _edit_columns(board_, edit)
        assert tampered.head_digest == clean.head_digest == GOLDEN_DIGEST
        assert read_first.head_digest == GOLDEN_DIGEST
        clean.verify_integrity()
        for board_ in (tampered, read_first):
            with pytest.raises(TamperError):
                board_.verify_integrity()

    def test_digest_independent_of_read_schedule(self):
        """Polling head_digest mid-history must not change the final value."""
        polled = Billboard(4, 4)
        deferred = Billboard(4, 4)
        for round_no, player, obj, value, kind in _golden_entries():
            polled.append(round_no, player, obj, value, kind)
            polled.head_digest
            deferred.append(round_no, player, obj, value, kind)
        assert deferred.head_digest == polled.head_digest == GOLDEN_DIGEST

    @pytest.mark.parametrize("path", WRITE_PATHS)
    def test_every_write_path_folds_to_the_golden_digest(self, path):
        board = Billboard(4, 4)
        for round_no, player, obj, value, kind in _golden_entries():
            _write(board, path, round_no, [(player, obj, value, kind)])
        assert board.head_digest == GOLDEN_DIGEST
        board.verify_integrity()

    @pytest.mark.parametrize("edit", sorted(_EDITS))
    @pytest.mark.parametrize("path", WRITE_PATHS)
    def test_an_edit_before_the_first_digest_read_is_caught(self, path, edit):
        """Whichever write put the rows on the board, the chain folds
        the copy taken at write time: an edit made before the digest is
        ever read leaves the head digest the clean board's and fails
        verification."""
        clean, tampered = Billboard(8, 16), Billboard(8, 16)
        for board_ in (clean, tampered):
            for round_no, entries in enumerate(_history(path)):
                _write(board_, path, round_no, entries)
        _EDITS[edit](tampered)
        assert tampered.head_digest == clean.head_digest
        clean.verify_integrity()
        with pytest.raises(TamperError):
            tampered.verify_integrity()

    def test_one_row_appends_keep_a_packed_pending_copy(self):
        """The chain's pending copy of a one-row append is one packed
        21-byte row: the chained board holds no more than that per post
        beyond what the plain columnar board holds."""
        posts = 4096  # a power of two: every buffer ends full

        def held(cls):
            board = cls(64, 64)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for i in range(posts):
                    kind = PostKind.VOTE if i % 3 else PostKind.REPORT
                    board.append(i // 7, i % 64, (5 * i) % 64, 0.5, kind)
                return tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()

        assert held(Billboard) - held(ColumnarBoard) <= 22 * posts

    def test_full_run_board_verifies(self):
        import numpy as np

        from repro.adversaries.flood import FloodAdversary
        from repro.core.distill import DistillStrategy
        from repro.sim.engine import SynchronousEngine
        from repro.world.generators import planted_instance

        inst = planted_instance(
            n=64, m=64, beta=1 / 8, alpha=0.5,
            rng=np.random.default_rng(3),
        )
        engine = SynchronousEngine(
            inst,
            DistillStrategy(),
            adversary=FloodAdversary(),
            rng=np.random.default_rng(4),
            adversary_rng=np.random.default_rng(5),
        )
        engine.run()
        engine.board.verify_integrity()


class TestAppendMany:
    def test_empty_batch_is_a_noop(self, board):
        digest = board.head_digest
        assert board.append_many(0, []) is None
        assert len(board) == 0
        assert board.last_round == -1
        assert board.head_digest == digest

    def test_batch_matches_per_post_appends(self):
        eager = Billboard(4, 4)
        batched = Billboard(4, 4)
        for round_no, player, obj, value, kind in _golden_entries():
            eager.append(round_no, player, obj, value, kind)
            batched.append_many(round_no, [(player, obj, value, kind)])
        assert list(batched) == list(eager)
        assert batched.head_digest == eager.head_digest == GOLDEN_DIGEST

    def test_sequential_seqs_across_batches(self, board):
        board.append(0, 0, 0, 0.0, PostKind.REPORT)
        board.append_many(
            1,
            [(1, 1, 1.0, PostKind.VOTE), (2, 2, 0.0, PostKind.REPORT)],
        )
        assert len(board) == 3
        assert [p.seq for p in board] == [0, 1, 2]
        assert [board[seq].player for seq in (1, 2)] == [1, 2]

    def test_batch_feeds_ledger(self, board):
        board.append_many(
            0,
            [(1, 5, 1.0, PostKind.VOTE), (2, 7, 0.0, PostKind.REPORT)],
        )
        votes = board.current_vote_array()
        assert votes[1] == 5
        assert votes[2] == -1  # reports never reach the ledger

    def test_invalid_entry_leaves_board_unchanged(self, board):
        """Validation is all-or-nothing: a bad entry anywhere in the batch
        means nothing is appended."""
        board.append(0, 0, 0, 0.0, PostKind.REPORT)
        digest = board.head_digest
        with pytest.raises(InvalidPostError):
            board.append_many(
                1,
                [(1, 1, 1.0, PostKind.VOTE), (99, 2, 0.0, PostKind.REPORT)],
            )
        assert len(board) == 1
        assert board.head_digest == digest
        assert board.current_vote_array()[1] == -1

    @pytest.mark.parametrize(
        "round_no,entries,error,message",
        [
            # the round is every entry's, so entry 0 raises it before a
            # later entry's bad id
            (1, [(1, 1, 1.0, PostKind.VOTE), (99, 2, 0.0, PostKind.VOTE)],
             TamperError, "post stamped round 1 after round 2"),
            (-1, [(1, 1, 1.0, PostKind.VOTE), (2, 99, 0.0, PostKind.REPORT)],
             InvalidPostError, "negative round -1"),
            # entry 0's own bad id comes before the round
            (1, [(99, 1, 1.0, PostKind.VOTE)],
             InvalidPostError, "unknown player identity 99 (n=8)"),
            (3, [(1, 1, 1.0, PostKind.VOTE), (2, 2, 0.0, PostKind.REPORT),
                 (2, -5, 0.0, PostKind.VOTE), (9, 1, 0.0, PostKind.VOTE)],
             InvalidPostError, "unknown object -5 (m=16)"),
        ],
    )
    @pytest.mark.parametrize("cls", [Billboard, ColumnarBoard])
    def test_first_bad_entry_raises_and_nothing_lands(
        self, cls, round_no, entries, error, message
    ):
        board = cls(8, 16)
        board.append_many(2, [(1, 5, 1.0, PostKind.VOTE), (2, 7, 0.0, PostKind.REPORT)])
        before = [column.view().copy() for column in board._columns()]
        with pytest.raises(error) as err:
            board.append_many(round_no, entries)
        assert str(err.value).startswith(message)
        assert [column.view().tolist() for column in board._columns()] == [
            column.tolist() for column in before
        ]
        assert board.last_round == 2
        assert board.ledger.effective_vote_count == 1
        assert board.current_vote_array().tolist() == [-1, 5] + [-1] * 6
        # the ledger's first-vote rule saw nothing of the refused batch
        board.append_many(3, [(2, 3, 1.0, PostKind.VOTE), (1, 4, 1.0, PostKind.VOTE)])
        assert board.current_vote_array().tolist() == [-1, 5, 3] + [-1] * 5
        if cls is Billboard:
            board.verify_integrity()

    def test_round_regression_rejected(self, board):
        board.append(4, 0, 0, 0.0, PostKind.REPORT)
        with pytest.raises(TamperError):
            board.append_many(3, [(1, 1, 1.0, PostKind.VOTE)])
        assert len(board) == 1


# ----------------------------------------------------------------------
# Property: append_many + lazy chain ≡ eager per-post appends
# ----------------------------------------------------------------------
_entry = st.tuples(
    st.integers(0, 7),
    st.integers(0, 15),
    st.sampled_from([0.0, 1.0, 0.25, -2.5]),
    st.sampled_from([PostKind.VOTE, PostKind.REPORT]),
)


@given(st.lists(_entry, max_size=40), st.integers(1, 7))
@settings(max_examples=80, deadline=None)
def test_append_many_equivalent_to_eager_appends(entries, batch_size):
    """Batched appends with deferred hashing must be indistinguishable
    from per-post appends with the digest forced after every post: same
    posts, same head digest, same ledger state, and a verifying chain."""
    eager = Billboard(8, 16)
    batched = Billboard(8, 16)
    for start in range(0, len(entries), batch_size):
        round_no = start // batch_size
        batch = entries[start : start + batch_size]
        for player, obj, value, kind in batch:
            eager.append(round_no, player, obj, value, kind)
            eager.head_digest  # force eager materialization per post
        batched.append_many(round_no, batch)
    assert list(batched) == list(eager)
    assert batched.head_digest == eager.head_digest
    assert np.array_equal(
        batched.current_vote_array(), eager.current_vote_array()
    )
    assert np.array_equal(
        batched.objects_with_votes(), eager.objects_with_votes()
    )
    batched.verify_integrity()
    eager.verify_integrity()


# ----------------------------------------------------------------------
# Property: a one-row append ≡ a one-row post_block
# ----------------------------------------------------------------------
@pytest.mark.parametrize("board_cls", [Billboard, ColumnarBoard])
@given(st.lists(st.tuples(st.integers(0, 1), _entry), max_size=30))
@settings(max_examples=60, deadline=None)
def test_one_row_append_matches_one_row_post_block(board_cls, rows):
    """``append`` skips the arrays but not the contract: the same
    stored columns (values and dtypes), ledger state and head digest as
    ``post_block`` called with one row."""
    appended = board_cls(8, 16)
    blocked = board_cls(8, 16)
    round_no = 0
    for step, (player, obj, value, kind) in rows:
        round_no += step
        post = appended.append(round_no, player, obj, value, kind)
        blocked.post_block(
            round_no, np.array([player]), np.array([obj]), np.array([value]), kind
        )
        assert post == blocked[-1]
    for a, b in zip(appended._columns(), blocked._columns()):
        assert a.view().dtype == b.view().dtype
        assert np.array_equal(a.view(), b.view())
    assert appended.last_round == blocked.last_round
    for horizon in (None, 0, round_no, round_no + 1):
        for query in ("current_vote_array", "objects_with_votes"):
            assert np.array_equal(
                getattr(appended, query)(horizon), getattr(blocked, query)(horizon)
            )
    assert np.array_equal(
        appended.counts_in_window(0, round_no + 1),
        blocked.counts_in_window(0, round_no + 1),
    )
    if board_cls is Billboard:
        assert appended.head_digest == blocked.head_digest
        appended.verify_integrity()
