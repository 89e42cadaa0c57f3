"""The concentrate adversary: many votes on few bad objects.

The counterpart of :class:`~repro.adversaries.flood.FloodAdversary`:
instead of spreading one vote per bad object (maximizing candidate-pool
*breadth*), it stacks ``votes_each`` votes on each of ``n_targets`` bad
objects (maximizing candidate *depth* — pushing a few bad objects past
high vote thresholds).

This is the attack that saturates the Section 1.2 three-phase analysis:
with a ``√n`` dishonest budget and a ``√n/2`` phase-3 threshold, the
adversary can afford at most 2 bad objects in ``C_3`` — hence the paper's
"``C_3`` contains at most 3 objects".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock
from repro.billboard.views import BillboardView
from repro.errors import ConfigurationError
from repro.world.instance import Instance


class ConcentrateAdversary(Adversary):
    """Stack votes on a few bad objects at a chosen round.

    Parameters
    ----------
    n_targets:
        Number of bad objects to boost; ``None`` = as many as the budget
        affords at ``votes_each`` votes apiece.
    votes_each:
        Votes per boosted object; ``None`` = spend the whole budget evenly
        across ``n_targets`` objects.
    at_round:
        Round at which the batch is cast.
    """

    name = "concentrate"

    def __init__(
        self,
        n_targets: int = 2,
        votes_each: int = None,
        at_round: int = 0,
    ) -> None:
        if n_targets < 1:
            raise ConfigurationError(f"n_targets must be >= 1, got {n_targets}")
        if votes_each is not None and votes_each < 1:
            raise ConfigurationError(
                f"votes_each must be >= 1, got {votes_each}"
            )
        if at_round < 0:
            raise ConfigurationError(f"at_round must be >= 0, got {at_round}")
        self.n_targets = n_targets
        self.votes_each = votes_each
        self.at_round = at_round

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        self._fired = False

    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        if self._fired or round_no < self.at_round:
            return None
        self._fired = True
        bad = self.bad_object_ids()
        budget = int(self.dishonest_ids.size)
        if bad.size == 0 or budget == 0:
            return None
        n_targets = min(self.n_targets, bad.size)
        votes_each = self.votes_each
        if votes_each is None:
            votes_each = max(1, budget // n_targets)
        targets = self.rng.choice(bad, size=n_targets, replace=False)
        # identities in order, votes_each per target, until they run out
        objects = np.repeat(targets, min(votes_each, budget))[:budget]
        return PostBlock.votes(self.dishonest_ids[: objects.size], objects)
