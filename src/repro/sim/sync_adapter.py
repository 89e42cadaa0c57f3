"""Simulating synchrony over an asynchronous schedule (Section 1.2).

"We can often simulate synchronous behavior in asynchronous environments
with the use of timestamps (an integral part of any posting on any real
billboard)." This module is that sentence, executable.

:class:`SynchronizedDistillAdapter` runs Algorithm DISTILL — a
synchronous protocol — on the asynchronous engine, under any *fair*
schedule, by a timestamp barrier:

* every player carries a **virtual round** counter ``v_p``;
* a scheduled player executes its round-``v_p`` DISTILL action only when
  no active player is behind it (``v_p == min_q v_q``); otherwise it
  idles (waits at the barrier);
* votes are (re-)timestamped with the voter's virtual round on a private
  mirror billboard, so DISTILL's per-stage vote windows ``l_t(i)`` count
  exactly what they would count in the synchronous engine.

A player executing virtual round ``v`` reads the mirror board at horizon
``v`` — posts from virtual rounds ``< v`` — which is precisely the
synchronous start-of-round view, even though peers at the same virtual
round act at different physical steps. Under any schedule that keeps
scheduling every active player, all players sweep through identical
virtual rounds and the execution is distributed identically to a
synchronous one (bench E13 validates this empirically; starvation
schedules show why *fairness* is the one assumption that cannot be
dropped).

Limitation: the asynchronous engine currently runs the honest side only
(dishonest players silent); it exists to validate the synchronous
abstraction, not to re-prove Theorem 4 asynchronously.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import PostKind
from repro.billboard.views import BillboardView
from repro.core.distill import DistillStrategy
from repro.core.parameters import DistillParameters
from repro.core.tracker import DistillPhaseTracker
from repro.sim.async_engine import AsyncStrategy
from repro.strategies.base import StrategyContext
from repro.strategies.probe_advice import AdviceAlternator


class SynchronizedDistillAdapter(AsyncStrategy):
    """DISTILL on the asynchronous engine via a timestamp barrier."""

    name = "async(distill+timestamps)"

    def __init__(self, params: Optional[DistillParameters] = None) -> None:
        self.params = params or DistillParameters()

    # ------------------------------------------------------------------
    def reset(self, ctx: StrategyContext, rng: np.random.Generator) -> None:
        super().reset(ctx, rng)
        if not ctx.supports_local_testing:
            raise ValueError(
                "the synchronized adapter wraps the Section 4 "
                "(local-testing) algorithm"
            )
        # mirror board: DISTILL's vote windows measured in virtual rounds
        # (private and derived from the run's board, so it needs no chain)
        self._mirror = ColumnarBoard(ctx.n, ctx.m)
        self.tracker = DistillPhaseTracker(ctx, self.params)
        self.alternator = AdviceAlternator(ctx.n)
        self._vround = np.zeros(ctx.n, dtype=np.int64)
        self._active = np.ones(ctx.n, dtype=bool)
        self._pending_vround: Dict[int, int] = {}
        self._barrier_waits = 0

    # ------------------------------------------------------------------
    def _min_active_vround(self) -> int:
        if not self._active.any():
            return int(self._vround.max())
        return int(self._vround[self._active].min())

    def step(self, step_no: int, player: int, view: BillboardView) -> int:
        v = int(self._vround[player])
        if v > self._min_active_vround():
            # someone is behind; wait at the barrier
            self._barrier_waits += 1
            return -1
        mirror_view = BillboardView(self._mirror, before_round=v)
        self.tracker.advance(v, mirror_view)
        self._pending_vround[player] = v
        if self.tracker.is_advice_round(v):
            pick = self.alternator.advise(1, mirror_view, self.rng)
        else:
            pick = self.alternator.explore(self.tracker.pool, 1, self.rng)
        target = int(pick[0])
        if target < 0:
            # an idle protocol round still completes the virtual round
            self._pending_vround.pop(player, None)
            self._complete_round(player, halted=False)
        return target

    def handle_result(
        self, step_no: int, player: int, object_id: int, value: float
    ) -> Tuple[bool, bool]:
        v = self._pending_vround.pop(player, int(self._vround[player]))
        good = value >= self.ctx.good_threshold
        if good:
            # re-timestamp the vote with the voter's virtual round
            self._mirror.append(
                v, player, object_id, float(value), PostKind.VOTE
            )
        self._complete_round(player, halted=bool(good))
        return bool(good), bool(good)

    def _complete_round(self, player: int, halted: bool) -> None:
        self._vround[player] += 1
        if halted:
            self._active[player] = False

    # ------------------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        out = self.tracker.diagnostics()
        out.update(
            algorithm=self.name,
            barrier_waits=self._barrier_waits,
            max_virtual_round=int(self._vround.max()),
        )
        return out


def sync_reference_strategy(
    params: Optional[DistillParameters] = None,
) -> DistillStrategy:
    """The synchronous strategy the adapter should be equivalent to."""
    return DistillStrategy(params)
