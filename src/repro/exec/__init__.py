"""Where trials run: the serial loop or a forked process pool.

``repro.exec`` owns *where* trials run; :func:`repro.sim.runner.run_trials`
owns *what* runs, and its ``n_jobs`` picks one of two backends:

* :class:`~repro.exec.serial.SerialExecutor` — in-process, the
  correctness reference;
* :class:`~repro.exec.local.LocalPoolExecutor` — the forked process
  pool, with deterministic broken-pool recovery that finishes in-process
  once its rebuilds are spent.

Both take the runner's pre-derived ``(trial index, seed sequence)`` work
list and its chunk runner, return records keyed by trial index, and keep
a ``report`` dict that becomes the manifest's ``executor`` record.

Also here: :func:`~repro.exec.deadline.trial_deadline` (monotonic-deadline
cancellation on the main thread) and :mod:`repro.exec.protocol` (the
length-prefixed frames ``repro serve`` speaks, decoded without resolving
any global).

See ``docs/robustness.md`` ("The executor backends") for the
operational guide.
"""

from repro.exec.deadline import trial_deadline
from repro.exec.local import LocalPoolExecutor
from repro.exec.serial import SerialExecutor

__all__ = [
    "LocalPoolExecutor",
    "SerialExecutor",
    "trial_deadline",
]
