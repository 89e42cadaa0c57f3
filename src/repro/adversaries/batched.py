"""Batched (trial-lane) adversaries.

The batched engine asks its adversary one lane at a time —
``act(lane, round_no, view)`` — because each lane's attack depends on
that lane's own billboard history and rng stream. Every adversary runs
in lanes as one scalar instance per lane behind
:class:`PerLaneAdversary`; there is no cross-lane fusion and no
lane-only twin, so a lane runs exactly the scalar engine's adversary
code (the split-vote slot allocator included).

Equivalence contract: per lane, the rng draw sequence and the posted
blocks are exactly the scalar adversary's for the same instance and
stream.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock
from repro.billboard.views import BillboardView
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
    ) -> Optional[PostBlock]:
        """The posts lane ``lane``'s dishonest players make this round,
        or ``None``."""
        raise NotImplementedError


class PerLaneAdversary(BatchedAdversary):
    """Adapter: one scalar :class:`Adversary` instance per lane.

    Each lane runs its own instance against its own pinned stream, so
    draw sequences are trivially identical to the scalar engine's.
    Grid-packed batches (:func:`~repro.sim.runner.run_trial_grid`) may
    mix lanes from cells with different adversaries — including cells
    with none at all: ``None`` lanes are inert, posting nothing and
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
    ) -> Optional[PostBlock]:
        adversary = self._adversaries[lane]
        if adversary is None:
            return None
        return adversary.act(round_no, view)

