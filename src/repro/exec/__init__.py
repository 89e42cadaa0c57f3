"""Where trials run: the serial loop or a forked process pool.

``repro.exec`` owns *where* trials run; :func:`repro.sim.runner.run_trials`
owns *what* runs. Two backends implement the
:class:`~repro.exec.base.Executor` protocol:

* :class:`~repro.exec.serial.SerialExecutor` — in-process, the
  correctness reference;
* :class:`~repro.exec.local.LocalPoolExecutor` — the forked process
  pool (the runner's parallel path), with deterministic broken-pool
  recovery that finishes in-process once its retry budget is spent.

Shared machinery: :class:`~repro.exec.retry.RetryPolicy` (deterministic
capped exponential backoff), :func:`~repro.exec.deadline.trial_deadline`
(monotonic-deadline cancellation on any thread), and
:mod:`repro.exec.protocol` (the length-prefixed frames ``repro serve``
speaks, decoded without resolving any global).

See ``docs/robustness.md`` ("The executor backends") for the
operational guide and ``docs/performance.md`` for the backend table.
"""

from repro.exec.base import Executor, ExecutorReport, build_chunks
from repro.exec.deadline import trial_deadline
from repro.exec.local import LocalPoolExecutor
from repro.exec.retry import RetryPolicy
from repro.exec.serial import SerialExecutor

__all__ = [
    "Executor",
    "ExecutorReport",
    "LocalPoolExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "build_chunks",
    "trial_deadline",
]
