"""Algorithm DISTILL (Figure 1) as an honest cohort strategy.

The phase structure lives in
:class:`~repro.core.tracker.DistillPhaseTracker`; this module adds the
player-side behaviour:

* **explore rounds** — probe a uniformly random object of the tracker's
  current pool (Step 1.1/1.3/2.1);
* **advice rounds** — probe the current vote of a uniformly random player,
  if any (the second half of PROBE&SEEKADVICE, which Lemma 6 uses to let
  stragglers finish in ``O(1/α)`` expected extra rounds);
* **termination** — on probing an object that passes the local test, post
  it as the player's single vote and halt (the Figure 1 "Termination"
  rule; the base-class :meth:`~repro.strategies.base.Strategy.handle_results`
  implements it).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.billboard.views import BillboardView
from repro.core.parameters import DistillParameters
from repro.core.tracker import DistillPhaseTracker
from repro.strategies.base import Strategy, StrategyContext
from repro.strategies.probe_advice import AdviceAlternator


class DistillStrategy(Strategy):
    """The honest cohort running Algorithm DISTILL (local-testing model).

    Parameters
    ----------
    params:
        Figure 1 constants; ``None`` uses the defaults of
        :class:`~repro.core.parameters.DistillParameters`.
    universe:
        Restrict Step 1.1's object pool (Theorem 12 cost classes);
        ``None`` means all ``m`` objects.
    """

    name = "distill"

    def __init__(
        self,
        params: Optional[DistillParameters] = None,
        universe: Optional[np.ndarray] = None,
    ) -> None:
        self.params = params or DistillParameters()
        self._universe = universe

    def reset(self, ctx: StrategyContext, rng: np.random.Generator) -> None:
        super().reset(ctx, rng)
        if not ctx.supports_local_testing:
            raise ValueError(
                "DistillStrategy is the Section 4 (local-testing) algorithm; "
                "use NoLocalTestingDistill for the Section 5.3 model"
            )
        self.tracker = DistillPhaseTracker(
            ctx, self.params, universe=self._universe
        )
        self.alternator = AdviceAlternator(ctx.n)

    def rebase(self, start_round: int) -> None:
        """Shift the phase clock so ATTEMPT begins at ``start_round``.

        Staged wrappers (Section 5.1's α-halving, Theorem 12's cost
        classes) start inner DISTILL runs mid-simulation.
        """
        self.tracker.phase_start = start_round

    # ------------------------------------------------------------------
    def choose_probes(
        self,
        round_no: int,
        active_players: np.ndarray,
        view: BillboardView,
    ) -> np.ndarray:
        self.tracker.advance(round_no, view)
        if self.tracker.is_advice_round(round_no):
            return self.alternator.advise(active_players.size, view, self.rng)
        return self.alternator.explore(
            self.tracker.pool, active_players.size, self.rng
        )

    def info(self) -> Dict[str, Any]:
        out = self.tracker.diagnostics()
        out.update(
            algorithm=self.name,
            alpha_assumed=self.params.resolved_alpha(self.ctx.alpha),
            beta_assumed=self.params.resolved_beta(self.ctx.beta),
            k1=self.params.k1,
            k2=self.params.k2,
        )
        return out
