"""The local fork-pool executor (the runner's parallel path).

Fans chunks out over a forked
:class:`~concurrent.futures.ProcessPoolExecutor`, harvests completed
chunks as they land (so checkpoints survive a later chunk killing its
worker), and on ``BrokenProcessPool`` rebuilds the pool and re-submits
only the unfinished chunks — each chunk carries its pre-derived seed
sequences, so a retried trial replays the exact stream of its first
attempt. Retry budget and backoff come from the shared
:class:`~repro.exec.retry.RetryPolicy`; once the budget is spent the
executor warns, counts ``exec.degraded``, and finishes the unfinished
trials with :class:`~repro.exec.serial.SerialExecutor`, the in-process
loop it also runs when no pool is viable.

Factories are closures and do not pickle, so the pool uses the ``fork``
start method and parks the worker state in
``repro.sim.runner._WORKER_STATE`` just before forking: children
inherit it by memory snapshot and only seeds cross the pickle channel.
When a pool is not viable — one job, one pending trial, or no ``fork``
on this platform — the executor runs the chunks in-process, so
``LocalPoolExecutor`` is safe as a default anywhere.
"""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Optional, Sequence

from repro.exec.base import (
    ChunkCallback,
    Executor,
    IndexedSeed,
    ResultMap,
    build_chunks,
)
from repro.exec.retry import RetryPolicy
from repro.exec.serial import SerialExecutor


class LocalPoolExecutor(Executor):
    """Forked process pool with deterministic broken-pool recovery."""

    name = "local"

    def __init__(
        self,
        n_jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__()
        self.n_jobs = n_jobs
        self.retry = retry if retry is not None else RetryPolicy()

    # ------------------------------------------------------------------
    def run(
        self,
        pending: Sequence[IndexedSeed],
        state: Dict[str, Any],
        *,
        chunk_size: Optional[int] = None,
        on_chunk_done: Optional[ChunkCallback] = None,
    ) -> ResultMap:
        import repro.sim.runner as runner

        jobs = runner.resolve_n_jobs(self.n_jobs)
        pool_viable = (
            jobs > 1
            and len(pending) > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )
        lanes = state.get("batch_lanes", 1) or 1
        obs = state.get("obs")
        results: ResultMap = {}

        def harvest(outcome: Any) -> None:
            pairs, snapshot = outcome
            if snapshot is not None and obs is not None:
                obs.merge(snapshot)
            results.update(pairs)
            if on_chunk_done is not None:
                on_chunk_done(pairs)

        in_process = SerialExecutor()
        if not pool_viable:
            # Degenerate pool: not an error — a 1-core host asking for
            # the local backend should work.
            return in_process.run(pending, state, on_chunk_done=on_chunk_done)

        remaining = build_chunks(pending, jobs, chunk_size, lanes)
        context = multiprocessing.get_context("fork")
        attempt = 0
        previous = runner._WORKER_STATE
        runner._WORKER_STATE = state
        try:
            while remaining:
                workers = min(jobs, len(remaining))
                self.report.workers.extend(
                    f"w{len(self.report.workers) + i}" for i in range(workers)
                )
                try:
                    with ProcessPoolExecutor(
                        max_workers=workers, mp_context=context
                    ) as pool:
                        futures = {
                            pool.submit(runner._run_trial_chunk, chunk): chunk
                            for chunk in remaining
                        }
                        for future in as_completed(futures):
                            harvest(future.result())
                    remaining = []
                except BrokenProcessPool:
                    remaining = [
                        chunk
                        for chunk in remaining
                        if any(
                            index not in results for index, _seed in chunk
                        )
                    ]
                    attempt += 1
                    self.report.worker_losses += 1
                    if obs is not None:
                        obs.counter("exec.worker_lost").add()
                    if not self.retry.allows(attempt):
                        break
                    self.report.retries += 1
                    if obs is not None:
                        obs.counter("exec.retries").add()
                    self.retry.sleep(attempt)
        finally:
            runner._WORKER_STATE = previous
        if not remaining:
            return results

        # The pool keeps dying: finish in-process. Completed trials are
        # kept, so only the unfinished ones run again.
        leftover = [unit for unit in pending if unit[0] not in results]
        warnings.warn(
            f"executor 'local' failed (process pool died {attempt} "
            f"time(s)); degrading to serial execution for the remaining "
            f"{len(leftover)} trial(s)",
            RuntimeWarning,
            stacklevel=3,
        )
        if obs is not None:
            obs.counter("exec.degraded").add()
        self.report.backend = "serial"
        self.report.degraded_from = ["local"]
        results.update(
            in_process.run(leftover, state, on_chunk_done=on_chunk_done)
        )
        return results
