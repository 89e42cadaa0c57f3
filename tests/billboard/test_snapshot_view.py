"""SnapshotView: epoch-pinned reads are immutable under live writes."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.board import Billboard
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import PostKind
from repro.billboard.views import BillboardView, SnapshotView

N_PLAYERS = 8
N_OBJECTS = 12


def _batch(entries):
    return [
        (player, obj, 1.0, PostKind.VOTE) for player, obj in entries
    ]


def _fingerprint(view):
    """Every read surface of a view, as comparable bytes."""
    return (
        view.cumulative_vote_counts().tobytes(),
        view.current_vote_array().tobytes(),
        view.objects_with_votes().tobytes(),
        view.counts_in_window(0, view.before_round or 0).tobytes(),
        len(view.posts()),
    )


class TestSnapshotViewBasics:
    def test_epoch_is_the_exclusive_horizon(self):
        board = Billboard(N_PLAYERS, N_OBJECTS)
        board.append_many(0, _batch([(0, 3), (1, 4)]))
        board.append_many(1, _batch([(2, 5)]))
        assert SnapshotView(board, epoch=1).epoch == 1
        assert len(SnapshotView(board, epoch=0).posts()) == 0
        assert len(SnapshotView(board, epoch=1).posts()) == 2
        assert len(SnapshotView(board, epoch=2).posts()) == 3

    def test_negative_epoch_rejected(self):
        board = Billboard(N_PLAYERS, N_OBJECTS)
        with pytest.raises(ValueError):
            SnapshotView(board, epoch=-1)

    def test_rehorizoned_snapshot_degrades_to_plain_view(self):
        board = Billboard(N_PLAYERS, N_OBJECTS)
        view = SnapshotView(board, epoch=2).with_horizon(5)
        assert type(view) is BillboardView
        assert view.before_round == 5

    def test_works_on_sparse_substrate(self):
        board = ColumnarBoard(N_PLAYERS, N_OBJECTS)
        board.append_many(0, _batch([(0, 1)]))
        view = SnapshotView(board, epoch=1)
        assert view.cumulative_vote_counts()[1] == 1


# one hypothesis-drawn traffic history: per-epoch batches of votes
epoch_batches = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, N_PLAYERS - 1), st.integers(0, N_OBJECTS - 1)
        ),
        max_size=8,
    ),
    min_size=1,
    max_size=10,
)


@given(epoch_batches, epoch_batches)
@settings(max_examples=60, deadline=None)
def test_snapshot_immutable_under_interleaved_append_many(past, future):
    """A reader pinned at epoch E never observes posts from epochs >= E.

    The property the serving layer's snapshot isolation rests on: pin a
    snapshot at the writer's current epoch, then keep appending — every
    read surface of the snapshot must stay bit-identical, batch after
    batch.
    """
    board = Billboard(N_PLAYERS, N_OBJECTS)
    for round_no, batch in enumerate(past):
        board.append_many(round_no, _batch(batch))
    epoch = len(past)
    snapshot = SnapshotView(board, epoch=epoch)
    pinned = _fingerprint(snapshot)
    for offset, batch in enumerate(future):
        board.append_many(epoch + offset, _batch(batch))
        assert _fingerprint(snapshot) == pinned
    # a fresh snapshot at the same epoch agrees too: isolation is a
    # property of the board, not of cached view state
    assert _fingerprint(SnapshotView(board, epoch=epoch)) == pinned


def test_snapshot_immutable_under_concurrent_append_many():
    """Thread-level version: a writer hammers epochs >= E while readers
    repeatedly fingerprint a snapshot pinned at E."""
    board = Billboard(N_PLAYERS, N_OBJECTS)
    rng = np.random.default_rng(7)
    for round_no in range(4):
        pairs = zip(
            rng.integers(0, N_PLAYERS, 6), rng.integers(0, N_OBJECTS, 6)
        )
        board.append_many(round_no, _batch([(int(p), int(o)) for p, o in pairs]))
    epoch = 4
    snapshot = SnapshotView(board, epoch=epoch)
    pinned = _fingerprint(snapshot)
    mismatches = []

    def writer():
        for offset in range(50):
            pairs = zip(
                rng.integers(0, N_PLAYERS, 4),
                rng.integers(0, N_OBJECTS, 4),
            )
            board.append_many(
                epoch + offset, _batch([(int(p), int(o)) for p, o in pairs])
            )

    def reader():
        for _ in range(200):
            if _fingerprint(snapshot) != pinned:
                mismatches.append(True)
                return

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not mismatches
    assert _fingerprint(snapshot) == pinned
