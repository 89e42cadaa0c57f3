"""The PROBE&SEEKADVICE primitive (Figure 1).

    Subroutine PROBE&SEEKADVICE(S):
        Pick a random object from the set S and probe it.
        Pick a random player j, and probe the object j votes for, if exists.

One invocation spans **two rounds** (one probe per round in the synchronous
model): an *exploration* round sampling uniformly from the current pool
``S``, then an *advice* round following the current vote of a uniformly
random player. Lemma 6's termination argument ("every second probe follows
a vote of a randomly chosen player") relies on exactly this alternation.

:class:`AdviceAlternator` factors the alternation out of DISTILL and its
variants: the owning strategy supplies the pool for exploration rounds, the
alternator resolves advice rounds from the billboard.
"""

from __future__ import annotations

import numpy as np

from repro.billboard.views import BillboardView


class AdviceAlternator:
    """Schedules the explore/advise alternation for a cohort.

    Parameters
    ----------
    n_players:
        Number of players advice is sampled from (all ``n`` players,
        honest or not — a player cannot tell them apart).
    """

    def __init__(self, n_players: int) -> None:
        self.n_players = n_players

    @staticmethod
    def is_advice_round(phase_round_index: int) -> bool:
        """Round parity within a phase: odd sub-rounds follow advice."""
        return phase_round_index % 2 == 1

    def explore(
        self,
        pool: np.ndarray,
        active_count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Uniform probes from ``pool`` for ``active_count`` players.

        An empty pool yields all-idle (``-1``) — this happens when e.g.
        Step 1.3 runs with no votes on the board yet.
        """
        if pool.size == 0:
            return np.full(active_count, -1, dtype=np.int64)
        picks = rng.integers(pool.size, size=active_count)
        return pool[picks].astype(np.int64, copy=False)

    def advise(
        self,
        active_count: int,
        view: BillboardView,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Advice probes: each player follows a uniformly random player's
        current vote; players whose advisor has no vote idle (``-1``)."""
        votes = view.current_vote_array()
        advisors = rng.integers(self.n_players, size=active_count)
        return votes[advisors].astype(np.int64, copy=False)
