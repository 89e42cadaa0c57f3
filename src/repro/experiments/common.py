"""Shared plumbing for the experiment definitions."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.experiments.config import (
    resolve_batch_lanes,
    resolve_n_jobs,
    resolve_substrate,
)
from repro.faults.plan import FaultPlan
from repro.sim.engine import EngineConfig
from repro.sim.runner import TrialResults, run_trials
from repro.strategies.base import Strategy
from repro.world.generators import planted_instance
from repro.world.instance import Instance


def planted_factory(
    n: int, m: int, beta: float, alpha: float
) -> Callable[[np.random.Generator], Instance]:
    """Instance factory for the standard unit-cost planted world."""
    return lambda rng: planted_instance(n=n, m=m, beta=beta, alpha=alpha, rng=rng)


def measure(
    make_instance: Callable[[np.random.Generator], Instance],
    make_strategy: Callable[[], Strategy],
    make_adversary: Callable[[], Optional[Adversary]] = lambda: None,
    trials: int = 16,
    seed: int = 0,
    max_rounds: int = 500_000,
    config: Optional[EngineConfig] = None,
    n_jobs: Optional[int] = None,
    batch_lanes: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    timeout: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    substrate: Optional[str] = None,
) -> TrialResults:
    """``run_trials`` with the experiment-wide defaults.

    ``n_jobs=None``, ``batch_lanes=None``, and ``substrate=None`` defer
    to the process-wide defaults (the CLI ``--jobs``/``--batch-lanes``/
    ``--substrate`` flags or the ``REPRO_BENCH_JOBS``/
    ``REPRO_BATCH_LANES``/``REPRO_SUBSTRATE`` environment variables);
    results are identical for every worker count, lane width, and
    substrate.
    ``fault_plan``, ``timeout``, and ``checkpoint_path`` pass straight
    through to :func:`~repro.sim.runner.run_trials`.
    """
    if config is None:
        config = EngineConfig(max_rounds=max_rounds)
    return run_trials(
        make_instance=make_instance,
        make_strategy=make_strategy,
        make_adversary=make_adversary,
        n_trials=trials,
        seed=seed,
        config=config,
        n_jobs=resolve_n_jobs(n_jobs),
        batch_lanes=resolve_batch_lanes(batch_lanes),
        fault_plan=fault_plan,
        timeout=timeout,
        checkpoint_path=checkpoint_path,
        substrate=resolve_substrate(substrate),
    )
