"""Honest-player protocol interfaces.

A :class:`~repro.strategies.base.Strategy` is the honest protocol run by
the whole honest cohort in lockstep (see DESIGN.md, "Cohort strategies").
Concrete protocols live in :mod:`repro.core` (the paper's contribution) and
:mod:`repro.baselines`.
"""

from repro.strategies.base import Strategy, StrategyContext
from repro.strategies.batched import BatchedStrategy, PerLaneStrategy
from repro.strategies.probe_advice import AdviceAlternator

__all__ = [
    "AdviceAlternator",
    "BatchedStrategy",
    "PerLaneStrategy",
    "Strategy",
    "StrategyContext",
]
