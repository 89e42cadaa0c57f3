"""The trivial baseline: ignore the billboard entirely.

"The trivial algorithm where each player probes a random object in each
step (disregarding the billboard completely) will terminate in ``O(1/β)``
expected time" (Section 3). It is immune to any adversary — there is
nothing to poison — and it is exactly what DISTILL must beat whenever
``1/α << 1/β``.
"""

from __future__ import annotations

import numpy as np

from repro.billboard.views import BillboardView
from repro.strategies.base import Strategy, StrategyContext


class TrivialStrategy(Strategy):
    """Uniform random probing; votes (for the record) and halts on success."""

    name = "trivial"

    def reset(self, ctx: StrategyContext, rng: np.random.Generator) -> None:
        super().reset(ctx, rng)
        if not ctx.supports_local_testing:
            raise ValueError("TrivialStrategy requires local testing")

    def choose_probes(
        self,
        round_no: int,
        active_players: np.ndarray,
        view: BillboardView,
    ) -> np.ndarray:
        return self.rng.integers(
            self.ctx.m, size=active_players.size
        ).astype(np.int64)
