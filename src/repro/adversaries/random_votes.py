"""The random adversary: bad votes at random times.

Each dishonest player casts one vote for a uniformly random bad object at
a round drawn uniformly from a horizon. A weak, oblivious strategy — its
role in the E11 gauntlet is to show that *timing* (the split-vote
adversary) matters more than volume.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.views import BillboardView
from repro.sim.actions import VoteAction
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
        for player, round_no, obj in zip(self.dishonest_ids, when, what):
            self._schedule.setdefault(int(round_no), []).append(
                VoteAction(player=int(player), object_id=int(obj))
            )

    def act(self, round_no: int, view: BillboardView) -> List[VoteAction]:
        return self._schedule.pop(round_no, [])
