"""Deterministic fault decisions for one run.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to one dedicated rng stream — the runner hands it the pinned *fourth*
per-trial stream (reserved as a spare since the parallel-runner PR), so
enabling faults never shifts the world/honest/adversary streams and a
null plan is bit-identical to no fault layer at all.

The injector is a decision oracle; the engines own all game state (who
is active, what is on the board) and translate decisions into effects
and trace events. All decisions are drawn in a fixed per-round order
(restarts → crashes → post filtering), so for a given plan and seed the
fault realization is identical run-to-run, serial or parallel, traced
or not.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.faults.plan import FaultPlan


class FaultInjector:
    """Turn a fault plan into concrete, seed-reproducible decisions.

    Parameters
    ----------
    plan:
        The declarative fault description.
    rng:
        A generator dedicated to fault decisions (the per-trial spare
        stream when driven by the runner). The injector is the stream's
        only consumer.
    """

    def __init__(self, plan: FaultPlan, rng: np.random.Generator) -> None:
        self.plan = plan
        self.rng = rng
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear per-run state (the engines call this at run start)."""
        self.counts = {"dropped_posts": 0, "crashes": 0, "restarts": 0}

    # ------------------------------------------------------------------
    # Lossy billboard
    # ------------------------------------------------------------------
    def keep_mask(self, size: int) -> Optional[np.ndarray]:
        """Which posts of one ``size``-post honest block reach the board.

        One ``random(size)`` draw per block; a post is kept when its draw
        is at least the loss rate. ``None`` means every post is kept: a
        lossless plan or an empty block draws nothing, so the stream
        advances only by the posts a lossy plan actually decides.
        """
        loss = self.plan.post_loss_rate
        if size == 0 or loss == 0.0:
            return None
        keep = self.rng.random(size) >= loss
        self.counts["dropped_posts"] += size - int(np.count_nonzero(keep))
        return keep

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def crash_coins(self, round_no: int, player_ids: np.ndarray) -> np.ndarray:
        """Which of ``player_ids`` crash this round.

        Draws one coin per candidate (a single vectorized batch), so the
        stream advances by ``player_ids.size`` regardless of outcomes.
        """
        if self.plan.crash_rate == 0.0 or player_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        mask = self.rng.random(player_ids.size) < self.plan.crash_rate
        crashed = player_ids[mask]
        self.counts["crashes"] += int(crashed.size)
        return crashed

    def note_restarts(self, player_ids: np.ndarray) -> None:
        """Book restarts for the fault summary (no randomness involved)."""
        self.counts["restarts"] += int(player_ids.size)

    # ------------------------------------------------------------------
    def info(self) -> Dict[str, int]:
        """Fault realization summary (folded into run diagnostics)."""
        return dict(self.counts)
