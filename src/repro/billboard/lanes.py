"""The batched engine's boards: one columnar board per trial lane.

Each lane of :mod:`repro.sim.batch_engine` is a
:class:`~repro.billboard.columnar.ColumnarBoard` with its own
:class:`~repro.billboard.votes.VoteLedger`; the ``substrate`` knob does
not apply to lanes. Lanes live and die inside one engine call, so they
carry no hash chain (:class:`~repro.billboard.board.Billboard`'s only
addition); the golden equivalence suite against the scalar engine is
the batched path's integrity guarantee.
"""

from __future__ import annotations

from repro.billboard.columnar import ColumnarBoard
from repro.billboard.votes import VoteMode
from repro.errors import ConfigurationError


class LaneBillboard:
    """``K`` independent lane boards with identical shape and vote rules."""

    __slots__ = ("n_lanes", "lanes")

    def __init__(
        self,
        n_lanes: int,
        n_players: int,
        n_objects: int,
        vote_mode: VoteMode = VoteMode.SINGLE,
        max_votes_per_player: int = 1,
    ) -> None:
        if n_lanes < 1:
            raise ConfigurationError(f"need at least one lane, got {n_lanes}")
        self.n_lanes = n_lanes
        self.lanes = [
            ColumnarBoard(
                n_players,
                n_objects,
                vote_mode=vote_mode,
                max_votes_per_player=max_votes_per_player,
            )
            for _ in range(n_lanes)
        ]

    def lane(self, index: int) -> ColumnarBoard:
        return self.lanes[index]


# Kept because perfbench/sims.py imports this name and wraps its
# post_block/post_entries for per-layer attribution.
LaneBoard = ColumnarBoard
