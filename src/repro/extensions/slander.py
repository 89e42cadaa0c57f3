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

from typing import Optional, Set

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
    players, objects, values = view.post_columns(PostKind.REPORT)
    negative = values < value_cutoff
    # one (object, reporter) pair per distinct negative report
    pairs = np.unique(
        objects[negative].astype(np.int64) * view.n_players + players[negative]
    )
    reporters = np.bincount(pairs // view.n_players)
    return np.flatnonzero(reporters >= max(threshold, 1)).astype(np.int64)


class SlanderingDistill(DistillStrategy):
    """DISTILL that also believes sufficiently-corroborated slander.

    Run with ``EngineConfig(record_reports=True)`` so honest negative
    reports actually reach the board.

    The board is append-only and horizons only grow, so the discredited
    set is carried forward between rounds rather than recounted.
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
        #: REPORT rows read so far, their distinct negative
        #: ``object·n + player`` keys, and negative reporters per object
        self._reports_read = 0
        self._negative_keys: Set[int] = set()
        self._reporters = np.zeros(ctx.m, dtype=np.int64)

    def _discredited(self, view: BillboardView) -> np.ndarray:
        """:func:`discredited_objects` at ``view``'s horizon, reading only
        the REPORT rows that arrived since the previous call."""
        players, objects, values = view.post_columns(PostKind.REPORT)
        start, self._reports_read = self._reports_read, players.size
        negative = values[start:] < self.ctx.good_threshold
        keys = (
            objects[start:][negative].astype(np.int64) * view.n_players
            + players[start:][negative]
        )
        fresh = [
            key
            for key in np.unique(keys).tolist()
            if key not in self._negative_keys
        ]
        if not fresh:
            return self._last_discredited
        self._negative_keys.update(fresh)
        np.add.at(self._reporters, np.array(fresh) // view.n_players, 1)
        return np.flatnonzero(
            self._reporters >= self.slander_threshold
        ).astype(np.int64)

    def choose_probes(
        self,
        round_no: int,
        active_players: np.ndarray,
        view: BillboardView,
    ) -> np.ndarray:
        self.tracker.advance(round_no, view)
        self._last_discredited = self._discredited(view)
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
