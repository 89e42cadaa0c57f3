"""The batched (trial-lane) strategy protocol.

The batched engine advances ``K`` independent trials — *lanes* — through
one Python round loop. A :class:`BatchedStrategy` is the lane-indexed
counterpart of :class:`~repro.strategies.base.Strategy`: one object holds
the per-lane protocol state for all lanes and answers each round's
questions for every live lane at once.

Equivalence contract: for each lane ``k``, the sequence of draws taken
from ``rngs[k]`` and the probes/votes/halts produced must be exactly what
a fresh scalar strategy would produce given the same context, rng stream,
and billboard history. Every strategy meets it the same way: the runner
wraps one scalar instance per lane in :class:`PerLaneStrategy`, so a lane
runs the scalar code itself and a subclass's overrides always apply.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.billboard.views import BillboardView
from repro.strategies.base import Strategy, StrategyContext


class BatchedStrategy:
    """Base class for lane-indexed honest cohort protocols.

    Lifecycle: the engine calls :meth:`reset_lanes` once with one context
    and one rng stream per lane, then per round :meth:`choose_probes_batch`
    followed by :meth:`handle_results_batch` (for the lanes that probed),
    and finally reads :meth:`info` per lane.

    Round methods receive *parallel sequences*: ``lanes[i]`` is a lane
    index, and every other sequence argument is aligned with it. Lanes
    that have finished are simply absent.
    """

    #: human-readable protocol name (matches the scalar strategy's)
    name: str = "strategy"

    def reset_lanes(
        self,
        contexts: Sequence[StrategyContext],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        raise NotImplementedError

    def finished(self, lane: int, round_no: int) -> bool:
        """Whether lane ``lane``'s protocol prescribes stopping now."""
        return False

    def choose_probes_batch(
        self,
        round_no: int,
        lanes: Sequence[int],
        active_players: Sequence[np.ndarray],
        views: Sequence[BillboardView],
    ) -> List[np.ndarray]:
        """One probe-choice array per listed lane (aligned with actives)."""
        raise NotImplementedError

    def handle_results_batch(
        self,
        round_no: int,
        lanes: Sequence[int],
        players: Sequence[np.ndarray],
        objects: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-lane ``(vote_mask, halt_mask)`` for the probing players."""
        raise NotImplementedError

    def on_player_restart(
        self, lane: int, round_no: int, players: np.ndarray
    ) -> None:
        """Fault-injection hook: ``players`` of lane ``lane`` rejoined
        after a crash (no local memory). Default: ignore, matching the
        scalar :meth:`~repro.strategies.base.Strategy.on_player_restart`
        — board-driven protocols re-derive everything they need."""

    def info(self, lane: int) -> Dict[str, Any]:
        """Per-lane diagnostics for :class:`~repro.sim.metrics.RunMetrics`."""
        return {}


class PerLaneStrategy(BatchedStrategy):
    """Adapter: run one scalar :class:`Strategy` instance per lane.

    This is how every strategy runs in lanes: each lane gets its own
    instance, reset with its own context and rng stream, so the draw
    sequences are trivially identical to the scalar engine's. There is
    no cross-lane vectorization — the win is the engine's shared round
    loop and the columnar billboard substrate.
    """

    def __init__(self, strategies: Sequence[Strategy]) -> None:
        if not strategies:
            raise ValueError("PerLaneStrategy needs at least one lane")
        self._strategies = list(strategies)
        self.name = self._strategies[0].name

    def reset_lanes(
        self,
        contexts: Sequence[StrategyContext],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        for strategy, ctx, rng in zip(self._strategies, contexts, rngs):
            strategy.reset(ctx, rng)

    def finished(self, lane: int, round_no: int) -> bool:
        return self._strategies[lane].finished(round_no)

    def choose_probes_batch(
        self,
        round_no: int,
        lanes: Sequence[int],
        active_players: Sequence[np.ndarray],
        views: Sequence[BillboardView],
    ) -> List[np.ndarray]:
        return [
            self._strategies[k].choose_probes(round_no, active, view)
            for k, active, view in zip(lanes, active_players, views)
        ]

    def handle_results_batch(
        self,
        round_no: int,
        lanes: Sequence[int],
        players: Sequence[np.ndarray],
        objects: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [
            self._strategies[k].handle_results(round_no, p, o, v)
            for k, p, o, v in zip(lanes, players, objects, values)
        ]

    def on_player_restart(
        self, lane: int, round_no: int, players: np.ndarray
    ) -> None:
        self._strategies[lane].on_player_restart(round_no, players)

    def info(self, lane: int) -> Dict[str, Any]:
        return self._strategies[lane].info()
