"""Batched (trial-lane) adversaries.

The batched engine asks its adversary one lane at a time —
``act(lane, round_no, view)`` — because each lane's attack depends on
that lane's own billboard history and rng stream. Every adversary runs
in lanes as one scalar instance per lane behind
:class:`PerLaneAdversary`; there is no cross-lane fusion.

The one exception with its own mechanism is the split-vote adversary:
its vote-slot pool becomes a numpy array with a vectorized
distinct-identity allocator (:class:`VectorSlotSplitVoteAdversary`),
replacing the quadratic Python list rebuild that dominates the hard E3
cell. ``SplitVoteAdversary.make_batched`` builds one such instance per
lane.

Equivalence contract: per lane, the rng draw sequence and the emitted
actions are exactly the scalar adversary's for the same instance and
stream. The split-vote subclass below only re-implements the slot
*bookkeeping*; every draw and every attack decision is inherited code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.adversaries.base import Adversary
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.billboard.views import BillboardView
from repro.sim.actions import VoteAction
from repro.world.instance import Instance


class BatchedAdversary:
    """Base class for lane-indexed Byzantine adversaries."""

    name: str = "adversary"

    def reset_lanes(
        self,
        instances: Sequence[Instance],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        raise NotImplementedError

    def act(
        self, lane: int, round_no: int, view: BillboardView
    ) -> List[VoteAction]:
        """Votes lane ``lane``'s dishonest players cast this round."""
        raise NotImplementedError


class PerLaneAdversary(BatchedAdversary):
    """Adapter: one scalar :class:`Adversary` instance per lane.

    Each lane runs its own instance against its own pinned stream, so
    draw sequences are trivially identical to the scalar engine's.
    Grid-packed batches (:func:`~repro.sim.runner.run_trial_grid`) may
    mix lanes from cells with different adversaries — including cells
    with none at all: ``None`` lanes are inert, emitting no actions and
    never touching their pinned adversary stream, exactly like a scalar
    run with ``adversary=None``.
    """

    def __init__(self, adversaries: Sequence[Optional[Adversary]]) -> None:
        if not adversaries:
            raise ValueError("PerLaneAdversary needs at least one lane")
        self._adversaries = list(adversaries)
        named = [a for a in self._adversaries if a is not None]
        self.name = named[0].name if named else "adversary"

    def reset_lanes(
        self,
        instances: Sequence[Instance],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        for adversary, instance, rng in zip(self._adversaries, instances, rngs):
            if adversary is not None:
                adversary.reset(instance, rng)

    def act(
        self, lane: int, round_no: int, view: BillboardView
    ) -> List[VoteAction]:
        adversary = self._adversaries[lane]
        if adversary is None:
            return []
        return adversary.act(round_no, view)


class VectorSlotSplitVoteAdversary(SplitVoteAdversary):
    """Split-vote adversary with a vectorized vote-slot allocator.

    The scalar ``_cast`` calls ``_take_votes`` once per target, and each
    call rebuilds the slot pool as a Python list — quadratic over an
    attack window, and the single hottest path of the whole E3 cell.

    This subclass exploits a structural invariant of the pool: ``reset``
    builds it as ``votes_per_identity`` contiguous blocks of one
    permutation of the dishonest identities, and the only consumer
    (``_cast``) takes slots from the front. Every reachable pool state is
    therefore a contiguous window of that periodic sequence, so any
    prefix of length ``<= n_distinct`` is automatically pairwise
    distinct — the scalar scan's "first ``need`` distinct identities in
    scan order" is simply the pool's first ``need`` entries. One whole
    ``_cast`` collapses to a single slice + reshape, with the exact
    action order of the scalar loop, pinned by the equivalence suite.
    """

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        self._unused = np.asarray(self._unused, dtype=np.int64)
        self._n_distinct = int(np.unique(self._unused).size)

    def _cast(self, targets: np.ndarray, need: int) -> List[VoteAction]:
        pool = self._unused
        # Scalar behaviour when a full distinct batch is impossible:
        # _take_votes returns [] consuming nothing, and _cast breaks at
        # the first such target.
        if need > min(pool.size, self._n_distinct):
            return []
        n_batches = min(len(targets), pool.size // need)
        if n_batches == 0:
            return []
        taken = pool[: n_batches * need].reshape(n_batches, need)
        self._unused = pool[n_batches * need:]
        return [
            VoteAction(player=int(p), object_id=int(obj))
            for obj, row in zip(targets[:n_batches], taken)
            for p in row
        ]
