"""DISTILL in trial lanes: one scalar
:class:`~repro.core.distill.DistillStrategy` per lane, like every other
strategy (see :class:`~repro.strategies.batched.PerLaneStrategy`)."""

from repro.strategies.batched import PerLaneStrategy

# Kept because perfbench/sims.py imports this name and wraps its
# choose_probes_batch/handle_results_batch for per-layer attribution.
BatchedDistillStrategy = PerLaneStrategy
