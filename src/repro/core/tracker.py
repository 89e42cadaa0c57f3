"""The DISTILL phase machine, shared by honest players and adversaries.

Every phase boundary of Algorithm DISTILL (Figure 1) is a deterministic
function of the round number and the shared billboard. That has two
consequences we exploit:

1. all honest players compute identical candidate sets, so the honest
   cohort needs a single tracker (see DESIGN.md, "Cohort strategies"); and
2. the *adversary* can run the very same tracker — the algorithm is public,
   only coin flips are private — which is how
   :class:`~repro.adversaries.split_vote.SplitVoteAdversary` knows exactly
   which thresholds to attack. Sharing one implementation keeps the attack
   honest: the adversary predicts phases through the same code the players
   execute.

Phase layout of one ATTEMPT (each PROBE&SEEKADVICE invocation = 2 rounds):

=========  ===========================================  ==================
phase      rounds                                       transition at end
=========  ===========================================  ==================
STEP11     ``2 * max(1, ceil(k1/(α β n)))``             Step 1.2: ``S`` :=
                                                        objects with >= 1
                                                        effective vote
STEP13     ``2 * max(1, ceil(k2/α))``                   Step 1.4: ``C0`` :=
                                                        objects with >=
                                                        ``k2/4`` votes in
                                                        the window
ITERATION  ``2 * max(1, ceil(1/α))`` per iteration      Step 2.2: keep
                                                        candidates with
                                                        ``l_t(i) > n/(4
                                                        c_t)`` votes
=========  ===========================================  ==================

An empty candidate set (after Step 1.4 or Step 2.2) restarts ATTEMPT at the
current round.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional

import numpy as np

from repro.billboard.views import BillboardView
from repro.core.parameters import DistillParameters
from repro.strategies.base import StrategyContext


class DistillPhase(enum.Enum):
    """Where in ATTEMPT the cohort currently is."""

    STEP11 = "step1.1"
    STEP13 = "step1.3"
    ITERATION = "step2"


class DistillPhaseTracker:
    """Deterministic replay of DISTILL's phase structure from the board.

    Parameters
    ----------
    ctx:
        Public protocol knowledge (``n``, ``m``, assumed ``α``/``β``).
    params:
        Figure 1 constants.
    universe:
        The object pool of Step 1.1 — all of ``{0..m-1}`` by default;
        Theorem 12's cost-class runs restrict it to one class.
    start_round:
        The absolute round at which this tracker's first ATTEMPT begins
        (staged wrappers such as Section 5.1's start trackers mid-run).
    """

    def __init__(
        self,
        ctx: StrategyContext,
        params: DistillParameters,
        universe: Optional[np.ndarray] = None,
        start_round: int = 0,
    ) -> None:
        self.ctx = ctx
        self.params = params
        #: membership mask of a restricted universe; ``None`` when the
        #: universe is every object, which needs no filtering
        self._members: Optional[np.ndarray] = None
        if universe is None:
            universe = np.arange(ctx.m, dtype=np.int64)
        else:
            universe = np.asarray(universe, dtype=np.int64)
            self._members = np.zeros(ctx.m, dtype=bool)
            self._members[universe] = True
        self.universe = universe

        self.len_step11 = 2 * params.step11_invocations(
            ctx.n, ctx.alpha, ctx.beta
        )
        self.len_step13 = 2 * params.step13_invocations(ctx.alpha)
        self.len_iteration = 2 * params.iteration_invocations(ctx.alpha)

        self.phase = DistillPhase.STEP11
        self.phase_start = start_round
        self.phase_len = self.len_step11
        self.pool = self.universe
        self.candidates = self.universe
        self.iteration = 0

        self._attempts: List[Dict[str, Any]] = []
        self._current: Dict[str, Any] = _new_attempt_record()

    # ------------------------------------------------------------------
    @property
    def phase_end(self) -> int:
        """First round no longer belonging to the current phase."""
        return self.phase_start + self.phase_len

    def is_advice_round(self, round_no: int) -> bool:
        """Odd offsets within a phase are advice rounds (PROBE&SEEKADVICE)."""
        return (round_no - self.phase_start) % 2 == 1

    def iteration_threshold(self) -> float:
        """Step 2.2 survival threshold for the current candidate set."""
        return self.params.iteration_vote_threshold(
            self.ctx.n, int(self.candidates.size)
        )

    # ------------------------------------------------------------------
    def advance(self, round_no: int, view: BillboardView) -> None:
        """Apply every phase transition due at or before ``round_no``.

        ``view`` must expose the board at least up to the horizon
        ``round_no`` (the honest start-of-round view suffices; the
        adversary's full view gives identical answers because windows end
        at phase boundaries ``<= round_no``).
        """
        while round_no >= self.phase_end:
            end = self.phase_end
            if self.phase is DistillPhase.STEP11:
                self._enter_step13(end, view)
            elif self.phase is DistillPhase.STEP13:
                self._enter_iterations(end, view)
            else:
                self._next_iteration(end, view)

    def _enter_step13(self, end: int, view: BillboardView) -> None:
        # Step 1.2: objects with a vote, *within this run's universe* —
        # a Theorem 12 class run ignores votes for other classes' objects
        # (they cannot be candidates of this instance).
        pool = view.objects_with_votes()
        if self._members is not None:
            pool = pool[self._members[pool]]
        self._current["s_size"] = int(pool.size)
        self.phase = DistillPhase.STEP13
        self.phase_start = end
        self.phase_len = self.len_step13
        self.pool = pool

    def _enter_iterations(self, end: int, view: BillboardView) -> None:
        counts = view.counts_in_window(self.phase_start, end)
        keep = counts >= self.params.c0_vote_threshold
        if self._members is not None:
            keep &= self._members
        c0 = np.flatnonzero(keep)
        self._current["c_sizes"].append(int(c0.size))
        self.candidates = c0
        self.iteration = 0
        if c0.size == 0:
            self._restart(end)
        else:
            self.phase = DistillPhase.ITERATION
            self.phase_start = end
            self.phase_len = self.len_iteration
            self.pool = c0

    def _next_iteration(self, end: int, view: BillboardView) -> None:
        counts = view.counts_in_window(self.phase_start, end)
        threshold = self.iteration_threshold()
        survivors = self.candidates[counts[self.candidates] > threshold]
        self.iteration += 1
        self._current["iterations"] = self.iteration
        self._current["c_sizes"].append(int(survivors.size))
        self.candidates = survivors
        if survivors.size == 0:
            self._restart(end)
        else:
            self.phase = DistillPhase.ITERATION
            self.phase_start = end
            self.phase_len = self.len_iteration
            self.pool = survivors

    def _restart(self, round_no: int) -> None:
        """Begin a fresh ATTEMPT at ``round_no``."""
        self._attempts.append(self._current)
        self._current = _new_attempt_record()
        self.phase = DistillPhase.STEP11
        self.phase_start = round_no
        self.phase_len = self.len_step11
        self.pool = self.universe
        self.candidates = self.universe
        self.iteration = 0

    # ------------------------------------------------------------------
    def diagnostics(self) -> Dict[str, Any]:
        """ATTEMPT/iteration statistics for RunMetrics.strategy_info."""
        attempts = self._attempts + [self._current]
        return {
            "attempt_count": len(attempts),
            "attempts": attempts,
            "total_iterations": sum(a["iterations"] for a in attempts),
            "max_iterations_per_attempt": max(
                (a["iterations"] for a in attempts), default=0
            ),
        }


def _new_attempt_record() -> Dict[str, Any]:
    return {"s_size": None, "c_sizes": [], "iterations": 0}
