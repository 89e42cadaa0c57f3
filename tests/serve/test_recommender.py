"""Online incremental DISTILL must be bit-identical to batch DISTILL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.board import Billboard
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import PostKind
from repro.errors import ConfigurationError
from repro.serve.recommender import (
    OnlineDistillRecommender,
    batch_recommender,
)
from repro.strategies.base import StrategyContext

N, M = 16, 12


def _ctx():
    return StrategyContext(n=N, m=M, alpha=0.5, beta=0.25)


def _seeded_traffic(board, epochs, seed=0, votes_per_epoch=5):
    """Deterministic vote traffic appended epoch by epoch (a generator
    so callers can interleave folds with appends)."""
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        players = rng.integers(0, N, votes_per_epoch)
        objects = rng.integers(0, M, votes_per_epoch)
        board.append_many(
            epoch,
            [
                (int(p), int(o), 1.0, PostKind.VOTE)
                for p, o in zip(players, objects)
            ],
        )
        yield epoch + 1


class TestOnlineVsBatch:
    @pytest.mark.parametrize(
        "board_cls",
        [Billboard, ColumnarBoard],
        ids=["Billboard", "sparse"],
    )
    def test_bit_identical_at_every_epoch_boundary(self, board_cls):
        """The golden equivalence: fold epochs one at a time online, and
        at *every* boundary the full state digest must equal a fresh
        batch replay over the same board — phase machine and scores,
        bit for bit, long enough to cross phase transitions."""
        board = board_cls(N, M)
        online = OnlineDistillRecommender(board, _ctx())
        for epoch in _seeded_traffic(board, epochs=60, seed=3):
            online.fold_epoch(epoch)
            batch = batch_recommender(board, _ctx(), epoch)
            assert online.state_digest() == batch.state_digest(), (
                f"online diverged from batch at epoch {epoch} "
                f"(online phase {online.phase}, batch {batch.phase})"
            )
            assert online.recommend(5) == batch.recommend(5)

    def test_matches_engine_style_per_round_replay(self):
        """The canonical reference: a raw tracker advanced round by
        round with the honest start-of-round view, exactly as the
        engine drives it. The online fold (and therefore the batch
        reference built on it) must land in the same tracker state."""
        from repro.billboard.views import BillboardView
        from repro.core.parameters import DistillParameters
        from repro.core.tracker import DistillPhaseTracker

        board = Billboard(N, M)
        online = OnlineDistillRecommender(board, _ctx())
        engine_tracker = DistillPhaseTracker(_ctx(), DistillParameters())
        for epoch in _seeded_traffic(board, epochs=60, seed=3):
            online.fold_epoch(epoch)
            engine_tracker.advance(
                epoch, BillboardView(board, before_round=epoch)
            )
            assert online.phase == engine_tracker.phase.value
            assert np.array_equal(online.pool, engine_tracker.pool)
            assert np.array_equal(
                online.candidates, engine_tracker.candidates
            )
            assert online._tracker.phase_start == engine_tracker.phase_start

    def test_crosses_phase_transitions(self):
        board = Billboard(N, M)
        online = OnlineDistillRecommender(board, _ctx())
        phases = set()
        for epoch in _seeded_traffic(board, epochs=60, seed=3):
            online.fold_epoch(epoch)
            phases.add(online.phase)
        assert "step1.1" in phases
        assert len(phases) >= 2, f"traffic never left {phases}"

    def test_sparse_equals_dense(self):
        dense, sparse = Billboard(N, M), ColumnarBoard(N, M)
        online_dense = OnlineDistillRecommender(dense, _ctx())
        online_sparse = OnlineDistillRecommender(sparse, _ctx())
        for board, online in ((dense, online_dense), (sparse, online_sparse)):
            for epoch in _seeded_traffic(board, epochs=25, seed=9):
                online.fold_epoch(epoch)
        assert online_dense.state_digest() == online_sparse.state_digest()


# arbitrary per-epoch batches, including empty epochs
traffic = st.lists(
    st.lists(
        st.tuples(st.integers(0, N - 1), st.integers(0, M - 1)),
        max_size=6,
    ),
    max_size=25,
)


@given(traffic)
@settings(max_examples=40, deadline=None)
def test_equivalence_under_arbitrary_traffic(batches):
    board = Billboard(N, M)
    online = OnlineDistillRecommender(board, _ctx())
    for epoch_no, batch in enumerate(batches):
        board.append_many(
            epoch_no, [(p, o, 1.0, PostKind.VOTE) for p, o in batch]
        )
        online.fold_epoch(epoch_no + 1)
        batch_ref = batch_recommender(board, _ctx(), epoch_no + 1)
        assert online.state_digest() == batch_ref.state_digest()


class TestRecommenderSurface:
    def test_epochs_fold_forward_only(self):
        online = OnlineDistillRecommender(Billboard(N, M), _ctx())
        online.fold_epoch(3)
        with pytest.raises(ConfigurationError):
            online.fold_epoch(2)
        online.fold_epoch(3)  # idempotent re-fold of the same boundary

    def test_scores_mask_non_pool_objects(self):
        board = Billboard(N, M)
        online = OnlineDistillRecommender(board, _ctx())
        for epoch in _seeded_traffic(board, epochs=10, seed=1):
            online.fold_epoch(epoch)
        scores = online.scores()
        assert scores.shape == (M,)
        pool = set(int(obj) for obj in online.pool)
        for obj in range(M):
            if obj in pool:
                assert scores[obj] >= 0.0
            else:
                assert scores[obj] == -1.0

    def test_recommend_ranks_by_score_then_id(self):
        board = Billboard(N, M)
        online = OnlineDistillRecommender(board, _ctx())
        board.append_many(
            0,
            [(p, 7, 1.0, PostKind.VOTE) for p in range(5)]
            + [(p, 2, 1.0, PostKind.VOTE) for p in range(5, 8)]
            + [(8, 4, 1.0, PostKind.VOTE), (9, 9, 1.0, PostKind.VOTE)],
        )
        online.fold_epoch(1)
        top = online.recommend(4)
        assert top[0] == 7  # most-voted first
        assert top[1] == 2
        assert top[2:] == [4, 9]  # tied at 1 vote: id ascending

    def test_diagnostics_shape(self):
        online = OnlineDistillRecommender(Billboard(N, M), _ctx())
        online.fold_epoch(2)
        diag = online.diagnostics()
        assert diag["epoch"] == 2
        assert diag["phase"] == online.phase
        assert diag["pool_size"] == M
