"""Deterministic, seed-reproducible fault injection.

The paper proves its guarantees against an adaptive Byzantine adversary
but assumes perfect *infrastructure*: a reliable billboard and honest
players that never fail. This package weakens those assumptions in a
controlled, reproducible way so the reproduction can measure how the
bounds degrade under post loss and churn on the synchronous engines
(experiment E15).

Usage::

    from repro.faults import FaultPlan
    from repro.sim.runner import run_trials

    plan = FaultPlan(post_loss_rate=0.25, crash_rate=0.02, restart_after=4)
    res = run_trials(make_instance, DistillStrategy, n_trials=32,
                     seed=0, fault_plan=plan)

Design contract (enforced by the test suite): fault decisions draw only
from the pinned per-trial *fourth* rng stream, so a null plan — or no
plan — produces output bit-identical to the pre-fault-layer code, and a
faulty run is bit-identical across serial/parallel execution and with
tracing on or off.
"""

from repro.faults.batched import BatchedFaultInjector
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

__all__ = ["BatchedFaultInjector", "FaultInjector", "FaultPlan"]
