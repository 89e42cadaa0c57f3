"""The idealized full-cooperation urn search of the Theorem 1 proof.

Theorem 1's proof imagines the *best possible* honest behaviour: "without
loss of generality we might as well assume that no two honest players ever
try the same bad object (i.e., the algorithm ensures full cooperation,
since the honest players know what reports are trustworthy)". The honest
cohort thus draws balls from an urn without replacement, and as soon as
anyone hits a good object, everyone follows.

This baseline is *not achievable* against a real adversary (players cannot
tell whom to trust); it is the measured witness of the Ω(1/(αβn)) lower
bound — no algorithm can beat its curve (bench E1).

Implementation: the cohort draws one shared random permutation of objects;
in each round the k-th active player probes the next k-th unconsumed
object. Votes by this cohort are trusted (the cohort remembers which votes
are its own, so Byzantine votes are ignored — "the honest players know
what reports are trustworthy"); once a trusted vote exists, remaining
players probe that object and halt.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.billboard.views import BillboardView
from repro.strategies.base import Strategy, StrategyContext


class FullCooperationStrategy(Strategy):
    """Perfect honest coordination: a without-replacement sweep."""

    name = "full-cooperation"

    def reset(self, ctx: StrategyContext, rng: np.random.Generator) -> None:
        super().reset(ctx, rng)
        if not ctx.supports_local_testing:
            raise ValueError("FullCooperationStrategy requires local testing")
        self._order = rng.permutation(ctx.m).astype(np.int64)
        self._consumed = 0
        self._trusted_good: Optional[int] = None

    def choose_probes(
        self,
        round_no: int,
        active_players: np.ndarray,
        view: BillboardView,
    ) -> np.ndarray:
        count = active_players.size
        if self._trusted_good is not None:
            return np.full(count, self._trusted_good, dtype=np.int64)
        take = min(count, self._order.size - self._consumed)
        probes = np.full(count, -1, dtype=np.int64)
        probes[:take] = self._order[self._consumed : self._consumed + take]
        self._consumed += take
        return probes

    def handle_results(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        vote, halt = super().handle_results(round_no, players, objects, values)
        if vote.any() and self._trusted_good is None:
            # Remember our own first success; the cohort trusts only itself.
            self._trusted_good = int(objects[np.flatnonzero(vote)[0]])
        return vote, halt
