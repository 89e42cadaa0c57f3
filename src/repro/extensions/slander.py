""""Is slander useless?" — the first open problem of Section 6.

DISTILL "uses only positive recommendations ('this object is good'), and
flatly ignores bad recommendations ('that object is bad')". Could
negative reports close the gap between the upper and lower bounds?

This module builds the experiment:

* :class:`SlanderingDistill` — DISTILL whose candidate pools additionally
  *consume* negative reports: an object discredited by at least
  ``slander_threshold`` distinct reporters is dropped from every pool.
  Readers cap each player's negative influence at one discredit per
  object (the analogue of the one-vote rule), so the mechanism is not
  trivially unbounded.
* :class:`SlanderAdversary` — the smear campaign: dishonest players spend
  their posts bad-mouthing *good* objects (they know which ones — they
  are Byzantine) to get them discredited.

The measurable answer (ablation A1): against honest worlds slander
prunes bad candidates and helps a little; against the smear campaign a
slander-trusting reader can be denied the good object entirely unless
``slander_threshold`` exceeds the adversary's coordination budget —
i.e. negative information is only as useful as the number of dishonest
players is small, which is exactly why the paper's one-sided design is
the robust choice.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock, PostKind
from repro.billboard.views import BillboardView
from repro.core.distill import DistillStrategy
from repro.core.parameters import DistillParameters
from repro.errors import ConfigurationError
from repro.strategies.base import StrategyContext
from repro.world.instance import Instance


def discredited_objects(
    view: BillboardView, threshold: int, value_cutoff: float
) -> np.ndarray:
    """Objects with >= ``threshold`` distinct negative reporters.

    A negative report is a REPORT post claiming a value below
    ``value_cutoff``; only each reporter's first report per object
    counts (reader-side capping, like the vote rule).
    """
    reporters: Dict[int, Set[int]] = {}
    for post in view.posts(kind=PostKind.REPORT):
        if post.reported_value < value_cutoff:
            reporters.setdefault(post.object_id, set()).add(post.player)
    bad = [obj for obj, who in reporters.items() if len(who) >= threshold]
    return np.array(sorted(bad), dtype=np.int64)


class SlanderingDistill(DistillStrategy):
    """DISTILL that also believes sufficiently-corroborated slander.

    Run with ``EngineConfig(record_reports=True)`` so honest negative
    reports actually reach the board.
    """

    name = "distill-slander"

    def __init__(
        self,
        slander_threshold: int = 3,
        params: Optional[DistillParameters] = None,
    ) -> None:
        super().__init__(params=params)
        if slander_threshold < 1:
            raise ConfigurationError(
                f"slander_threshold must be >= 1, got {slander_threshold}"
            )
        self.slander_threshold = slander_threshold

    def reset(self, ctx: StrategyContext, rng: np.random.Generator) -> None:
        super().reset(ctx, rng)
        self._last_discredited: np.ndarray = np.array([], dtype=np.int64)

    def choose_probes(
        self,
        round_no: int,
        active_players: np.ndarray,
        view: BillboardView,
    ) -> np.ndarray:
        self.tracker.advance(round_no, view)
        self._last_discredited = discredited_objects(
            view, self.slander_threshold, self.ctx.good_threshold
        )
        if self.tracker.is_advice_round(round_no):
            picks = self.alternator.advise(
                active_players.size, view, self.rng
            )
            # refuse advice pointing at discredited objects
            if self._last_discredited.size:
                picks = np.where(
                    np.isin(picks, self._last_discredited), -1, picks
                )
            return picks
        pool = self.tracker.pool
        if self._last_discredited.size:
            pool = pool[~np.isin(pool, self._last_discredited)]
        return self.alternator.explore(pool, active_players.size, self.rng)

    def info(self):
        out = super().info()
        out["algorithm"] = self.name
        out["discredited_count"] = int(self._last_discredited.size)
        return out


class SlanderAdversary(Adversary):
    """The smear campaign: discredit the good objects.

    Each dishonest player posts one negative report per good object
    (value 0, "it was terrible"), spread over the first rounds. Against
    :class:`SlanderingDistill` with threshold ``t``, any good object is
    suppressed as soon as ``t`` dishonest players exist; against plain
    DISTILL these posts are pure noise — the paper's design choice made
    visible.
    """

    name = "slander"

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        # every (good object, dishonest player) pair, object-major
        good = instance.space.good_ids
        self._players = np.tile(self.dishonest_ids, good.size)
        self._objects = np.repeat(good, self.dishonest_ids.size)
        # one batch per round keeps the board stamps tidy
        self._per_round = max(1, self._players.size // 8)

    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        k = self._per_round
        players, self._players = self._players[:k], self._players[k:]
        objects, self._objects = self._objects[:k], self._objects[k:]
        if players.size == 0:
            return None
        return PostBlock(
            players, objects, np.zeros(players.size), PostKind.REPORT
        )
