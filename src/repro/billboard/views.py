"""Read-only billboard views.

Players never touch the :class:`~repro.billboard.board.Billboard` directly;
the engine hands them a :class:`BillboardView` that (a) exposes only read
methods and (b) pins the *visibility horizon*:

* honest players acting in round ``r`` see posts stamped ``< r`` (they read
  the board at the start of the round);
* the adaptive adversary acting at the end of round ``r`` sees posts
  stamped ``<= r`` — including the honest coin flips realized this round,
  exactly the information an adaptive Byzantine adversary is granted in
  Section 2.3.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import Post, PostKind


class BillboardView:
    """A read-only, horizon-limited window onto a billboard.

    Parameters
    ----------
    board:
        The underlying billboard.
    before_round:
        Exclusive visibility horizon: only posts with
        ``round_no < before_round`` are visible. ``None`` means the whole
        board (the adversary's end-of-round view).

    Views are throwaway (the engine builds one per round per observer), so
    they carry no state beyond the horizon — repeated queries at the same
    horizon are served from the ledger's per-horizon memo, not cached here.
    """

    __slots__ = ("_board", "before_round")

    def __init__(self, board: ColumnarBoard, before_round: Optional[int] = None) -> None:
        self._board = board
        self.before_round = before_round

    def with_horizon(self, before_round: Optional[int]) -> "BillboardView":
        """A view of the same board at a different visibility horizon.

        Used by protocol-mimicking adversaries to reconstruct exactly what
        an honest player saw at the start of a round.
        """
        return BillboardView(self._board, before_round=before_round)

    @property
    def n_players(self) -> int:
        return self._board.n_players

    @property
    def n_objects(self) -> int:
        return self._board.n_objects

    def posts(
        self, kind: Optional[PostKind] = None, player: Optional[int] = None
    ) -> List[Post]:
        """Visible posts, optionally filtered by kind and poster."""
        return self._board.posts(
            kind=kind, player=player, before_round=self.before_round
        )

    def vote_posts(self) -> List[Post]:
        """Visible vote posts (whether or not effective for readers)."""
        return self._board.vote_posts(before_round=self.before_round)

    def post_columns(
        self, kind: PostKind
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(players, objects, values)`` of the visible posts of
        ``kind``, as read-only arrays in append order."""
        return self._board.post_columns(kind, before_round=self.before_round)

    def current_vote_array(self) -> np.ndarray:
        """Each player's current effective vote (``-1`` when none)."""
        return self._board.current_vote_array(before_round=self.before_round)

    def objects_with_votes(self) -> np.ndarray:
        """Objects with at least one effective vote (Step 1.2's ``S``)."""
        return self._board.objects_with_votes(before_round=self.before_round)

    def cumulative_vote_counts(self) -> np.ndarray:
        """Effective votes per object over the whole visible board.

        The Section 1.2 three-phase algorithm thresholds on cumulative
        counts ("recommended by at least θ_i players on the billboard"),
        unlike DISTILL's per-stage windows.
        """
        if self.before_round is not None:
            end = self.before_round
        else:
            end = self._board.last_round + 1
        return self._board.counts_in_window(0, max(end, 0))

    def counts_in_window(self, start_round: int, end_round: int) -> np.ndarray:
        """Effective votes per object in rounds ``[start, end)``.

        The window end is clipped to the view's horizon so a player cannot
        observe votes from the future.
        """
        end = end_round
        if self.before_round is not None:
            end = min(end, self.before_round)
        if end < start_round:
            end = start_round
        return self._board.counts_in_window(start_round, end)


class SnapshotView(BillboardView):
    """An epoch-pinned read view with a genuine immutability guarantee.

    The serving layer (:mod:`repro.serve`) hands concurrent readers a
    ``SnapshotView`` pinned at the epoch that was current when the
    reader arrived. Unlike a plain :class:`BillboardView` — a horizon
    filter over a board that may still grow *below* the horizon in
    principle — a snapshot's isolation is structural: the board is
    append-only and round stamps are monotone (:class:`~repro.errors.
    TamperError` on regression), so once the writer has moved on to
    epoch ``E`` no future post can ever be stamped ``< E``. Every query
    against a ``SnapshotView(board, epoch=E)`` is therefore repeatable
    for the lifetime of the board, no matter how many posts land
    concurrently in epochs ``>= E``
    (``tests/billboard/test_snapshot_view.py`` pins this property under
    interleaved ``append_many`` traffic).

    ``epoch`` is the *exclusive* horizon: the snapshot sees exactly the
    posts of completed epochs ``0 .. E-1``.
    """

    __slots__ = ()

    def __init__(self, board: ColumnarBoard, epoch: int) -> None:
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        super().__init__(board, before_round=epoch)

    @property
    def epoch(self) -> int:
        """The pinned epoch (exclusive visibility horizon)."""
        assert self.before_round is not None
        return self.before_round

    def with_horizon(self, before_round: Optional[int]) -> BillboardView:
        """Re-pinning a snapshot yields a plain view: only the original
        epoch carries the was-current-at-open guarantee."""
        return BillboardView(self._board, before_round=before_round)
