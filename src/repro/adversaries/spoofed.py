"""Protocol-following adversaries with spoofed observations.

Theorem 2's dishonest players "follow the protocol, except that the object
values they report are the values dictated by the adversarial strategy".
:class:`SpoofedProtocolAdversary` realizes exactly that: it runs a genuine
honest strategy for its cohort of dishonest players, but feeds the cohort
values from adversary-chosen per-player tables instead of the truth. The
resulting *posts* — probe votes at protocol-plausible times — are
indistinguishable from honest behaviour, which is the symmetry the lower
bound exploits.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock, PostKind
from repro.billboard.views import BillboardView
from repro.strategies.base import Strategy, StrategyContext
from repro.world.instance import Instance


class SpoofedProtocolAdversary(Adversary):
    """Runs an honest strategy for dishonest players over spoofed values.

    Parameters
    ----------
    strategy_factory:
        Builds the protocol the cohort mimics (usually the same strategy
        the honest players run).
    spoof_tables:
        Mapping ``player -> array(m,)`` of values that player "observes";
        dishonest players missing from the map observe all-zeros (they
        never find anything and never vote).
    ctx_factory:
        Optional override for the context the mimicking cohort assumes;
        defaults to the same public parameters the honest cohort uses.
    """

    name = "spoofed-protocol"

    def __init__(
        self,
        strategy_factory: Callable[[], Strategy],
        spoof_tables: Dict[int, np.ndarray],
        ctx_factory: Optional[Callable[[Instance], StrategyContext]] = None,
    ) -> None:
        self.strategy_factory = strategy_factory
        self.spoof_tables = {
            int(p): np.asarray(t, dtype=np.float64)
            for p, t in spoof_tables.items()
        }
        self.ctx_factory = ctx_factory

    # ------------------------------------------------------------------
    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        if self.ctx_factory is not None:
            ctx = self.ctx_factory(instance)
        else:
            ctx = StrategyContext(
                n=instance.n,
                m=instance.m,
                alpha=instance.alpha,
                beta=instance.beta,
                good_threshold=instance.space.good_threshold,
            )
        self.inner = self.strategy_factory()
        self.inner.reset(ctx, rng)
        self._active = self.dishonest_ids.copy()
        # One row per distinct table (mimic gives every player the same
        # one); row 0 is the all-zeros world of players without a table.
        rows: Dict[int, int] = {}
        tables = [np.zeros(instance.m, dtype=np.float64)]
        self._table_row = np.zeros(instance.n, dtype=np.intp)
        for player in self.dishonest_ids.tolist():
            table = self.spoof_tables.get(player)
            if table is None:
                continue
            if id(table) not in rows:
                rows[id(table)] = len(tables)
                tables.append(table)
            self._table_row[player] = rows[id(table)]
        self._tables = np.stack(tables)

    def _observe(self, players: np.ndarray, objects: np.ndarray) -> np.ndarray:
        """The spoofed value each prober sees: one gather."""
        return self._tables[self._table_row[players], objects]

    # ------------------------------------------------------------------
    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        if self._active.size == 0:
            return None
        # The mimicking cohort reads the board exactly as honest players
        # do: at the start-of-round horizon.
        honest_view = view.with_horizon(round_no)
        choices = np.asarray(
            self.inner.choose_probes(round_no, self._active, honest_view),
            dtype=np.int64,
        )
        probing = choices >= 0
        probers = self._active[probing]
        targets = choices[probing]
        if probers.size == 0:
            return None
        values = self._observe(probers, targets)
        vote_mask, halt_mask = self.inner.handle_results(
            round_no, probers, targets, values
        )
        vote_mask = np.asarray(vote_mask, dtype=bool)
        halt_mask = np.asarray(halt_mask, dtype=bool)
        if halt_mask.any():
            self._active = self._active[
                ~np.isin(self._active, probers[halt_mask])
            ]
        if not vote_mask.any():
            return None
        # the votes claim the spoofed values the cohort observed
        return PostBlock(
            probers[vote_mask],
            targets[vote_mask],
            values[vote_mask],
            PostKind.VOTE,
        )
