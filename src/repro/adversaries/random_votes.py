"""The random adversary: bad votes at random times.

Each dishonest player casts one vote for a uniformly random bad object at
a round drawn uniformly from a horizon. A weak, oblivious strategy — its
role in the E11 gauntlet is to show that *timing* (the split-vote
adversary) matters more than volume.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock
from repro.billboard.views import BillboardView
from repro.world.instance import Instance


class RandomVotesAdversary(Adversary):
    """One random bad vote per dishonest player at a random round.

    Parameters
    ----------
    horizon:
        Votes are scheduled uniformly over rounds ``[0, horizon)``.
    """

    name = "random-votes"

    def __init__(self, horizon: int = 64) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        self._schedule = {}
        bad = self.bad_object_ids()
        if bad.size == 0:
            return
        when = rng.integers(self.horizon, size=self.dishonest_ids.size)
        what = bad[rng.integers(bad.size, size=self.dishonest_ids.size)]
        for round_no in np.unique(when).tolist():
            at = when == round_no
            self._schedule[round_no] = PostBlock.votes(
                self.dishonest_ids[at], what[at]
            )

    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        return self._schedule.pop(round_no, None)
