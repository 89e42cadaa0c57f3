"""The flood adversary: spend the whole vote budget immediately.

Every dishonest player votes for a *distinct* bad object in the first
round. This maximizes the size of Step 1.2's candidate pool ``S`` (up to
``(1-α)n`` bogus entries), diluting the honest probes of Step 1.3 — the
attack the ``k2/4`` threshold of Step 1.4 is designed to absorb.

When there are more dishonest players than bad objects the surplus votes
concentrate round-robin, pushing some bad objects toward the ``C0``
threshold as well.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock
from repro.billboard.views import BillboardView
from repro.world.instance import Instance


class FloodAdversary(Adversary):
    """All dishonest votes at round 0, spread over distinct bad objects."""

    name = "flood"

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        self._fired = False

    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        if self._fired:
            return None
        self._fired = True
        bad = self.bad_object_ids()
        if bad.size == 0 or self.dishonest_ids.size == 0:
            return None
        targets = self.rng.permutation(bad)
        spread = np.arange(self.dishonest_ids.size) % targets.size
        return PostBlock.votes(self.dishonest_ids, targets[spread])
