"""Objects associated with players — the second open problem of Section 6.

"We have decoupled the objects from the players. What is the effect of
associating each object with a player?"

The natural coupling (an eBay seller *is* its listing): ``m = n``, object
``i`` is owned by player ``i``, dishonest players own bad objects, and
honest players own good objects with some probability ``p_good`` (an
honest seller can still have a lousy product). Two consequences the
experiment (ablation A2) measures:

* the good fraction is no longer a free parameter —
  ``β = α·p_good`` — so honesty shortages hit twice (fewer helpers *and*
  fewer good objects);
* the one-vote budget meets self-promotion: a dishonest player's most
  natural lie is to vote for *its own* object
  (:class:`SelfPromotionAdversary`), which concentrates exactly the
  vote pattern DISTILL's thresholds were built to absorb.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock
from repro.billboard.views import BillboardView
from repro.errors import ConfigurationError
from repro.world.instance import Instance, roles_from_alpha
from repro.world.objects import ObjectSpace


def ownership_instance(
    n: int,
    alpha: float,
    p_good: float,
    rng: np.random.Generator,
) -> Instance:
    """A coupled world: object ``i`` belongs to player ``i``.

    Dishonest players' objects are bad; each honest player's object is
    good independently with probability ``p_good`` (at least one good
    object is guaranteed by re-rolling a failed world — the model is
    vacuous otherwise).
    """
    if not 0 < p_good <= 1:
        raise ConfigurationError(f"p_good must be in (0, 1], got {p_good}")
    honest = roles_from_alpha(n, alpha, rng=rng, shuffle=True)
    good = honest & (rng.random(n) < p_good)
    if not good.any():
        good = honest.copy()
        keep = rng.choice(np.flatnonzero(honest))
        good[:] = False
        good[keep] = True
    values = np.where(good, 1.0, 0.0)
    space = ObjectSpace(values, np.ones(n), good, good_threshold=0.5)
    return Instance(space, honest)


class SelfPromotionAdversary(Adversary):
    """Every dishonest player votes for its own (bad) object at once.

    The ownership analogue of the flood adversary — but unlike the
    flood's spread over arbitrary bad objects, self-promotion is
    *detectable in principle* (a vote for one's own object), which is
    exactly the kind of structure a notion of trust could exploit; the
    measurable point here is that DISTILL never needs to: the one-vote
    budget already caps the damage.
    """

    name = "self-promotion"

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        if instance.m != instance.n:
            raise ConfigurationError(
                "self-promotion needs the coupled world (m == n)"
            )
        self._fired = False

    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        if self._fired or self.dishonest_ids.size == 0:
            return None
        self._fired = True
        return PostBlock.votes(self.dishonest_ids, self.dishonest_ids)
