"""reprolint — the repo's determinism-contract static analysis pass.

The load-bearing guarantee of this reproduction is that scalar, batched
(:class:`~repro.sim.batch_engine.BatchedEngine`) and pooled
(``run_trials(n_jobs=)``) executions are **bit-identical per seed**. The
equivalence suites enforce that after the fact; ``reprolint`` enforces
the coding discipline that makes it true *at review time*:

* every random draw comes from an explicitly seeded
  :class:`numpy.random.Generator` stream,
* independent streams are derived by :meth:`SeedSequence.spawn`, never
  by seed arithmetic (``seed + 1`` builds *correlated* PCG64 states),
* no wall-clock, OS-entropy, or hash-order dependence in the engine
  packages,
* batched (lane-indexed) protocol classes draw from per-lane streams in
  scalar order, never from a shared scalar ``self.rng``.

Run it as ``python -m repro.lint [paths]`` (see ``--help``), as the
pytest check in ``tests/analysis/``, or via the ``lint`` CI job. Every
rule, its rationale, and the ``# repro: noqa=RPLxxx(reason)`` suppression
syntax are documented in ``docs/static_analysis.md``.
"""

from repro.lint.engine import (
    DEFAULT_PATHS,
    LintError,
    Violation,
    lint_project,
    lint_source,
)
from repro.lint.rules import RULES, Rule

__all__ = [
    "DEFAULT_PATHS",
    "LintError",
    "RULES",
    "Rule",
    "Violation",
    "lint_project",
    "lint_source",
]
