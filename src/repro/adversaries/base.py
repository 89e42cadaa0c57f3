"""Adversary interface.

An adversary controls the dishonest players. Per round it is shown the full
billboard (adaptive adversary: everything realized so far, including the
current round's honest posts) and returns the posts it wants its players to
make, as one :class:`~repro.billboard.post.PostBlock`. Every engine checks
that block with :func:`check_block` — an adversary may only post under the
dishonest identities it controls — before the block reaches the board, so a
violating turn lands whole or not at all; the billboard's reader-side
ledger enforces the one-vote (or ``f``-vote) rule, so an adversary gains
nothing by spamming. Probes by dishonest players are not mediated at
all: they cost the adversary nothing we measure, and the Byzantine model
lets dishonest players "know" whatever the adversary scripts, so only
their *posts* can influence honest players.

Unlike strategies, an adversary *does* get the ground-truth
:class:`~repro.world.instance.Instance` — a Byzantine adversary knows
everything.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.billboard.post import PostBlock
from repro.billboard.views import BillboardView
from repro.errors import AdversaryViolationError
from repro.world.instance import Instance


class Adversary:
    """Base class for Byzantine adversaries."""

    #: registry name; subclasses override
    name: str = "adversary"

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        """Prepare for a fresh run against ``instance``."""
        self.instance = instance
        self.rng = rng
        self.dishonest_ids = instance.dishonest_ids.copy()

    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        """The posts to make at the end of round ``round_no``, or ``None``
        when there are none.

        ``view`` has no horizon: the adversary sees the entire board,
        including this round's honest posts.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers shared by concrete adversaries
    # ------------------------------------------------------------------
    def bad_object_ids(self) -> np.ndarray:
        """Ground-truth bad objects (what a malicious vote points at)."""
        return np.flatnonzero(~self.instance.space.good_mask)


def check_block(name: str, block: PostBlock, honest_mask: np.ndarray) -> None:
    """Raise :class:`~repro.errors.AdversaryViolationError` unless every
    poster in ``block`` is a dishonest identity of the world whose honest
    mask is ``honest_mask``.

    The error names the first offending player in block order. Ids
    outside ``[0, n)`` are caught before the mask is read, so a negative
    id cannot wrap around to a dishonest player's slot.
    """
    players = np.asarray(block.players, dtype=np.int64)
    outside = (players < 0) | (players >= honest_mask.size)
    foreign = outside | honest_mask[np.where(outside, 0, players)]
    if foreign.any():
        player = int(players[np.argmax(foreign)])
        raise AdversaryViolationError(
            f"adversary {name!r} tried to post as player {player}, "
            "which it does not control"
        )
