"""Per-run outcome records and their summary statistics.

Theorem 4 is stated in *rounds until termination*; the lower bounds are
stated in *probes*. Under unit costs the two differ only by idle advice
rounds, so :class:`RunMetrics` tracks rounds, probes, and monetary cost
separately and lets each experiment report the quantity its theorem names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # type-only: metrics must not import the trace module
    from repro.sim.trace import Trace


@dataclass
class RunMetrics:
    """Everything measured about one engine run.

    Attributes
    ----------
    honest_mask:
        Copy of the instance's role assignment.
    probes:
        Shape ``(n,)``; number of probes made by each player (honest
        players only — dishonest probes are not mediated by the engine and
        read 0).
    paid:
        Shape ``(n,)``; total object cost paid (equals ``probes`` in the
        unit-cost model).
    satisfied_round:
        Shape ``(n,)``; the round in which the player first probed a
        ground-truth good object, or ``-1`` if it never did. "Termination
        time" of a player in the sense of Theorem 4 is
        ``satisfied_round + 1`` rounds.
    halted_round:
        Shape ``(n,)``; the round the player stopped probing (with local
        testing this equals ``satisfied_round``), ``-1`` if still active
        when the run ended.
    rounds:
        Total rounds executed.
    all_honest_satisfied:
        Whether every honest player found a good object.
    strategy_info:
        Free-form diagnostics exported by the strategy (e.g. DISTILL's
        ATTEMPT count and candidate-set trajectory).
    fault_info:
        Realized fault counts (dropped posts, crashes, restarts) when the
        run was driven with a :class:`~repro.faults.injector.FaultInjector`;
        empty for clean runs.
    trace:
        The run's structured event log when ``EngineConfig(trace=True)``,
        else ``None``. Carried here so traced runs survive the trial
        runner's process pool (``keep_metrics=True``).
    """

    honest_mask: np.ndarray
    probes: np.ndarray
    paid: np.ndarray
    satisfied_round: np.ndarray
    halted_round: np.ndarray
    rounds: int
    all_honest_satisfied: bool
    strategy_info: Dict[str, Any] = field(default_factory=dict)
    fault_info: Dict[str, Any] = field(default_factory=dict)
    trace: Optional["Trace"] = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self.honest_mask.shape[0])

    @property
    def honest_probes(self) -> np.ndarray:
        """Probe counts of the honest players."""
        return self.probes[self.honest_mask]

    @property
    def honest_paid(self) -> np.ndarray:
        """Payments of the honest players."""
        return self.paid[self.honest_mask]

    @property
    def honest_termination_rounds(self) -> np.ndarray:
        """Rounds until each honest player was satisfied.

        Unsatisfied players are charged the full run length — a pessimistic
        convention that can only weaken measured upper bounds.
        """
        sat = self.satisfied_round[self.honest_mask]
        out = np.where(sat >= 0, sat + 1, self.rounds)
        return out.astype(np.int64)

    @property
    def mean_individual_probes(self) -> float:
        """Average probes per honest player — the paper's individual cost."""
        return float(self.honest_probes.mean())

    @property
    def mean_individual_rounds(self) -> float:
        """Average termination round per honest player (Theorem 4 metric)."""
        return float(self.honest_termination_rounds.mean())

    @property
    def max_individual_rounds(self) -> int:
        """Last honest player's termination round (Theorem 11 metric)."""
        return int(self.honest_termination_rounds.max())

    @property
    def mean_individual_paid(self) -> float:
        """Average payment per honest player (Theorem 12 metric)."""
        return float(self.honest_paid.mean())

    @property
    def satisfied_fraction(self) -> float:
        """Fraction of honest players that found a good object."""
        sat = self.satisfied_round[self.honest_mask]
        return float((sat >= 0).mean())

    def summary(self) -> Dict[str, float]:
        """Compact dictionary used by the trial runner."""
        termination_rounds = self.honest_termination_rounds
        return {
            "rounds": float(self.rounds),
            "mean_individual_probes": self.mean_individual_probes,
            "mean_individual_rounds": float(termination_rounds.mean()),
            "max_individual_rounds": float(termination_rounds.max()),
            "mean_individual_paid": self.mean_individual_paid,
            "satisfied_fraction": self.satisfied_fraction,
            "all_honest_satisfied": float(self.all_honest_satisfied),
        }
