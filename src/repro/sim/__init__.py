"""Synchronous simulation substrate.

The paper's execution model (Sections 1.2 and 2.1): computation proceeds in
rounds; in each round every *active* honest player reads the billboard,
probes one object (or idles), and posts the outcome; a player is active
until it has probed a good object. The Byzantine adversary may post
arbitrarily on behalf of dishonest players, observing everything realized
so far (adaptive adversary, Section 2.3).

* :class:`~repro.sim.engine.SynchronousEngine` — the round loop.
* :class:`~repro.sim.metrics.RunMetrics` — per-run outcome record.
* :mod:`~repro.sim.runner` — Monte-Carlo trial aggregation.
"""

from repro.sim.batch_engine import BatchedEngine, batch_fallback_reason
from repro.sim.async_engine import (
    AsyncRunMetrics,
    AsyncStrategy,
    AsynchronousEngine,
    PerStepAdapter,
)
from repro.sim.engine import EngineConfig, SynchronousEngine
from repro.sim.metrics import RunMetrics
from repro.sim.runner import GridCell, TrialResults, run_trial_grid, run_trials
from repro.sim.schedules import (
    RandomSchedule,
    RoundRobinSchedule,
    Schedule,
    SoloFirstSchedule,
    StarvationSchedule,
)
from repro.sim.sync_adapter import SynchronizedDistillAdapter
from repro.sim.trace import Trace, TraceEvent, replay_metrics

__all__ = [
    "AsyncRunMetrics",
    "AsyncStrategy",
    "AsynchronousEngine",
    "BatchedEngine",
    "EngineConfig",
    "GridCell",
    "batch_fallback_reason",
    "PerStepAdapter",
    "RandomSchedule",
    "RoundRobinSchedule",
    "RunMetrics",
    "Schedule",
    "SoloFirstSchedule",
    "StarvationSchedule",
    "SynchronizedDistillAdapter",
    "SynchronousEngine",
    "Trace",
    "TraceEvent",
    "replay_metrics",
    "TrialResults",
    "run_trial_grid",
    "run_trials",
]
