"""The local fork-pool executor (the runner's parallel path).

Fans chunks out over a forked
:class:`~concurrent.futures.ProcessPoolExecutor`, harvests completed
chunks as they land (so checkpoints survive a later chunk killing its
worker), and on ``BrokenProcessPool`` rebuilds the pool and re-submits
only the unfinished chunks — each chunk carries its pre-derived seed
sequences, so a retried trial replays the exact stream of its first
attempt. After :data:`POOL_REBUILDS` rebuilds the executor warns,
counts ``exec.degraded``, and finishes the unfinished trials with
:class:`~repro.exec.serial.SerialExecutor`.

The runner's chunk runner carries the trial factories, which are often
closures and do not pickle, so the pool uses the ``fork`` start method
and parks it in :data:`_WORKER` just before forking: children inherit
it by memory snapshot and only seeds cross the pickle channel. The runner builds this executor only
when a pool is viable (more than one job and one pending trial, and
``fork`` on this platform).
"""

from __future__ import annotations

import math
import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.serial import IndexedSeed, SerialExecutor, new_report
from repro.obs.registry import Registry

#: pool rebuilds after ``BrokenProcessPool`` before the unfinished
#: trials go to the in-process loop
POOL_REBUILDS = 2

#: seconds slept before the first rebuild, doubled before each further one
BACKOFF_S = 0.5

#: ``(chunk runner, observed)`` for the forked workers, set while a pool runs
_WORKER: Optional[Tuple[Callable[..., Any], bool]] = None


def _pool_chunk(
    chunk: Sequence[IndexedSeed],
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Worker entry: run one chunk, shipping metrics home as a snapshot.

    A forked worker inherits the parent's registry by memory snapshot,
    so increments made there would be invisible to the parent. Each
    chunk therefore counts into a *fresh* registry (fresh per chunk, not
    per worker — a worker that runs several chunks must not re-ship
    earlier chunks' counts) whose plain-dict snapshot returns through the
    pickle channel for the parent to merge.
    """
    if _WORKER is None:  # pragma: no cover - defends against misuse
        raise RuntimeError("worker state missing; was the pool forked?")
    run_chunk, observed = _WORKER
    if not observed:
        return run_chunk(chunk, None), None
    local = Registry()
    return run_chunk(chunk, local), local.snapshot()


def _build_chunks(
    pending: Sequence[IndexedSeed], workers: int, lanes: int
) -> List[List[IndexedSeed]]:
    """~4 chunks per worker, rounded up to whole lane groups so workers
    run full batches. A rebuilt pool re-submits the same chunks, so a
    retried chunk replays exactly the trials its first attempt held."""
    size = max(1, math.ceil(len(pending) / (max(workers, 1) * 4)))
    size = math.ceil(size / lanes) * lanes
    return [
        list(pending[start : start + size])
        for start in range(0, len(pending), size)
    ]


class LocalPoolExecutor:
    """Forked process pool with deterministic broken-pool recovery."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.report = new_report("local")

    def run(
        self,
        pending: Sequence[IndexedSeed],
        run_chunk: Callable[..., Any],
        lanes: int = 1,
        obs: Optional[Registry] = None,
        on_chunk_done: Optional[Callable[..., None]] = None,
    ) -> Dict[int, Any]:
        """Run every pending unit on the pool; records keyed by index.

        Takes :meth:`SerialExecutor.run`'s arguments; ``on_chunk_done``
        sees chunks in completion order, including those completed after
        a rebuild or by the in-process hand-off.
        """
        global _WORKER
        results: Dict[int, Any] = {}
        roster: List[str] = self.report["workers"]
        remaining = _build_chunks(pending, self.jobs, lanes)
        context = multiprocessing.get_context("fork")
        losses = 0
        previous, _WORKER = _WORKER, (run_chunk, obs is not None)
        try:
            while remaining:
                workers = min(self.jobs, len(remaining))
                roster.extend(
                    f"w{i}" for i in range(len(roster), len(roster) + workers)
                )
                try:
                    with ProcessPoolExecutor(
                        max_workers=workers, mp_context=context
                    ) as pool:
                        futures = [
                            pool.submit(_pool_chunk, chunk) for chunk in remaining
                        ]
                        for future in as_completed(futures):
                            pairs, snapshot = future.result()
                            if snapshot is not None and obs is not None:
                                obs.merge(snapshot)
                            results.update(pairs)
                            if on_chunk_done is not None:
                                on_chunk_done(pairs)
                    remaining = []
                except BrokenProcessPool:
                    remaining = [
                        chunk
                        for chunk in remaining
                        if any(index not in results for index, _seed in chunk)
                    ]
                    losses += 1
                    self.report["worker_losses"] += 1
                    if obs is not None:
                        obs.counter("exec.worker_lost").add()
                    if losses > POOL_REBUILDS:
                        break
                    self.report["retries"] += 1
                    if obs is not None:
                        obs.counter("exec.retries").add()
                    time.sleep(BACKOFF_S * 2 ** (losses - 1))
        finally:
            _WORKER = previous
        if not remaining:
            return results

        # The pool keeps dying: finish in-process. Completed trials are
        # kept, so only the unfinished ones run again.
        leftover = [unit for unit in pending if unit[0] not in results]
        warnings.warn(
            f"executor 'local' failed (process pool died {losses} "
            f"time(s)); degrading to serial execution for the remaining "
            f"{len(leftover)} trial(s)",
            RuntimeWarning,
            stacklevel=3,
        )
        if obs is not None:
            obs.counter("exec.degraded").add()
        self.report["backend"] = "serial"
        self.report["degraded_from"] = ["local"]
        results.update(
            SerialExecutor().run(leftover, run_chunk, lanes, obs, on_chunk_done)
        )
        return results
