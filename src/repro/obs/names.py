"""The declared registry of every observable metric name.

Counters and timers are created on first use (:class:`~repro.obs.registry.
Registry` memoizes handles by name), which makes a typo at a call site
silent: ``obs.counter("exec.worker_losst")`` would happily create a
parallel counter that no dashboard, no doc table, and no CI assertion
ever reads. This module is the antidote — the single place where every
metric name is declared, one name per line.

The declarations are *mechanically enforced* by reprolint's RPL013
(``counter-registry-drift``) over the whole project:

* every literal name at an ``obs.counter("…")`` / ``obs.timer("…")``
  call site must appear below;
* every dynamic (f-string) call site's static prefix must be one of
  :data:`DYNAMIC_COUNTER_PREFIXES`, and every realizable member of such
  a family must be declared;
* every declared name must be reachable from some call site (directly
  or through its family prefix) — a declaration nothing increments is
  stale;
* every declared name must appear in ``docs/observability.md``'s metric
  catalogue, and every catalogued name must be declared here.

Adding a metric therefore takes three edits — the call site, this file,
and the doc table — and forgetting any one of them fails the lint gate.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

#: every counter name incremented anywhere in the package. One name per
#: line: RPL013 anchors its findings to the declaration line.
DECLARED_COUNTERS: FrozenSet[str] = frozenset(
    {
        "async.probes",
        "async.steps",
        "async.votes",
        "batch.fallback",
        "batch.lane_rounds",
        "batch.lanes",
        "batch.probes",
        "batch.rounds",
        "batch.runs",
        "billboard.posts_adversary",
        "billboard.posts_fault_delivered",
        "billboard.posts_honest",
        "engine.halts",
        "engine.probes",
        "engine.rounds",
        "engine.votes",
        "exec.degraded",
        "exec.retries",
        "exec.worker_lost",
        "faults.crashes",
        "faults.delayed_posts",
        "faults.dropped_posts",
        "faults.restarts",
        "faults.undelivered_posts",
        "runner.chunks",
        "runner.grid_cells",
        "runner.grid_groups",
        "runner.grid_runs",
        "runner.runs",
        "runner.trials_requested",
        "runner.trials_resumed",
        "serve.connections",
        "serve.flushes",
        "serve.posts",
        "serve.queries",
        "serve.requests",
        "serve.shed",
        "serve.snapshots",
        "serve.ticks",
        "serve.votes",
        "substrate.dense",
        "substrate.sparse",
        "trial.batched",
        "trial.completed",
    }
)

#: every timer name opened anywhere in the package
DECLARED_TIMERS: FrozenSet[str] = frozenset(
    {
        "runner.run_trial_grid",
        "runner.run_trials",
        "serve.request",
    }
)

#: prefixes whose member names are computed at runtime (the engines fold
#: ``f"faults.{key}"`` realization summaries, and the scalar engine its
#: ``f"substrate.{name}"`` resolution). A dynamic call site is legal iff
#: its static prefix is listed here; the members it can realize still
#: have to be declared above (``tests/obs/test_names.py`` pins the
#: fault-injector keys).
DYNAMIC_COUNTER_PREFIXES: Tuple[str, ...] = (
    "faults.",
    "substrate.",
)


def declared_phases() -> FrozenSet[str]:
    """The dotted-name phases (first segments) the registry spans."""
    return frozenset(
        name.split(".", 1)[0]
        for name in DECLARED_COUNTERS | DECLARED_TIMERS
    )
