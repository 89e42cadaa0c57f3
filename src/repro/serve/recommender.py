"""Online incremental DISTILL scoring over a live billboard.

The batch simulator replays DISTILL's phase machine from round zero
every run. A serving recommender cannot afford that: votes arrive
continuously and queries must answer *now*. This module keeps one
persistent :class:`~repro.core.tracker.DistillPhaseTracker` and folds
each completed epoch in as it closes — the tracker's phase windows are
``counts_in_window(phase_start, phase_end)`` reads that only touch
rounds since the previous boundary, so a fold is incremental work
proportional to the epoch's new votes, never a full recompute.

The correctness contract is *bit-identity with batch DISTILL*: because
every phase transition is a deterministic function of the round number
and the board (the property the tracker module exists to exploit), an
online recommender folded epoch by epoch must agree, at every epoch
boundary, with a fresh tracker replayed from round zero over the same
board — same phase, same candidate sets, same scores, bit for bit.
``tests/serve/test_recommender.py`` pins this with
:func:`batch_recommender` at every boundary of adversarial traffic.

Scores are DISTILL-flavoured: an object's score is its cumulative
effective vote count over completed epochs, masked to the tracker's
current pool (non-pool objects score ``-1``); :meth:`recommend` ranks
by score descending with object id as the deterministic tie-break.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

import numpy as np

from repro.billboard.columnar import ColumnarBoard
from repro.billboard.views import SnapshotView
from repro.core.parameters import DistillParameters
from repro.core.tracker import DistillPhaseTracker
from repro.errors import ConfigurationError
from repro.strategies.base import StrategyContext


class OnlineDistillRecommender:
    """A streaming DISTILL scorer: fold epochs in, query any time.

    Parameters
    ----------
    board:
        The live billboard (dense or sparse — the scorer only reads).
    ctx:
        Public protocol knowledge (``n``, ``m``, assumed ``α``/``β``),
        exactly what an honest player of the paper would hold.
    params:
        Figure 1 constants (defaults match the simulator's).
    """

    def __init__(
        self,
        board: ColumnarBoard,
        ctx: StrategyContext,
        params: Optional[DistillParameters] = None,
    ) -> None:
        self._board = board
        self.ctx = ctx
        self.params = params if params is not None else DistillParameters()
        self._tracker = DistillPhaseTracker(ctx, self.params)
        #: the epoch horizon folded so far (posts of epochs < this)
        self.epoch = 0

    # ------------------------------------------------------------------
    def fold_epoch(self, epoch: int) -> None:
        """Advance the phase machine to the ``epoch`` boundary.

        Must be called with monotonically non-decreasing epochs — the
        tracker consumes each phase window exactly once, which is what
        makes the fold incremental.

        Each due transition is applied with a snapshot pinned at *that
        transition's* boundary, never at ``epoch``: Step 1.2's pool read
        (``objects_with_votes``) is a full-horizon query, so handing it a
        later horizon would leak future votes into the pool and diverge
        from the engine's round-by-round semantics. Pinning per boundary
        makes folding stride-independent — folding every epoch, or one
        fold straight to ``epoch`` (the batch reference), lands in the
        identical state.
        """
        if epoch < self.epoch:
            raise ConfigurationError(
                f"epochs fold forward only: at {self.epoch}, got {epoch}"
            )
        while self._tracker.phase_end <= epoch:
            end = self._tracker.phase_end
            # advance(end, ·) fires exactly one transition: every
            # successor phase has positive length, so the new phase_end
            # is strictly past ``end`` and the tracker's loop exits
            self._tracker.advance(end, SnapshotView(self._board, epoch=end))
        self.epoch = epoch

    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        """The current DISTILL phase name (``step1.1``/``step1.3``/``step2``)."""
        return str(self._tracker.phase.value)

    @property
    def pool(self) -> np.ndarray:
        """The tracker's current object pool (int64 ids)."""
        return self._tracker.pool

    @property
    def candidates(self) -> np.ndarray:
        """The surviving candidate set ``C_t`` (int64 ids)."""
        return self._tracker.candidates

    def scores(self) -> np.ndarray:
        """Per-object scores at the folded horizon (float64, length m).

        Cumulative effective votes over completed epochs for objects in
        the current pool; ``-1.0`` for objects outside it.
        """
        view = SnapshotView(self._board, epoch=self.epoch)
        counts = view.cumulative_vote_counts().astype(np.float64)
        scores = np.full(self.ctx.m, -1.0, dtype=np.float64)
        pool = self._tracker.pool
        scores[pool] = counts[pool]
        return scores

    def recommend(self, k: int = 10) -> List[int]:
        """Top-``k`` pool objects by score, ids ascending on ties."""
        scores = self.scores()
        pool = self._tracker.pool
        if pool.size == 0:
            return []
        # sort by (-score, id): lexsort's last key is primary
        order = np.lexsort((pool, -scores[pool]))
        return [int(obj) for obj in pool[order][:k]]

    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """SHA-256 over the full scorer state at the folded horizon.

        Two recommenders agree on this digest iff they agree on the
        phase machine *and* the scores — the golden equivalence tests
        compare online and batch digests at every epoch boundary.
        """
        tracker = self._tracker
        digest = hashlib.sha256()
        digest.update(self.phase.encode())
        for value in (
            self.epoch,
            tracker.phase_start,
            tracker.phase_len,
            tracker.iteration,
        ):
            digest.update(str(int(value)).encode())
        digest.update(np.ascontiguousarray(tracker.pool).tobytes())
        digest.update(np.ascontiguousarray(tracker.candidates).tobytes())
        digest.update(np.ascontiguousarray(self.scores()).tobytes())
        return digest.hexdigest()

    def diagnostics(self) -> Dict[str, Any]:
        """Phase-machine state for the ``/metrics`` query op."""
        tracker = self._tracker
        return {
            "epoch": self.epoch,
            "phase": self.phase,
            "phase_start": int(tracker.phase_start),
            "phase_end": int(tracker.phase_end),
            "iteration": int(tracker.iteration),
            "pool_size": int(tracker.pool.size),
            "candidate_count": int(tracker.candidates.size),
            "attempts": tracker.diagnostics()["attempt_count"],
        }


def batch_recommender(
    board: ColumnarBoard,
    ctx: StrategyContext,
    epoch: int,
    params: Optional[DistillParameters] = None,
) -> OnlineDistillRecommender:
    """Batch DISTILL at an epoch boundary: replay from round zero.

    The reference the online scorer is measured against — a fresh
    tracker advanced over the whole board in one call. Returns a
    recommender so the two sides expose identical query surfaces.
    """
    reference = OnlineDistillRecommender(board, ctx, params=params)
    reference.fold_epoch(epoch)
    return reference
