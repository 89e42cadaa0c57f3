"""The executor protocol: exact-seed chunk dispatch behind one interface.

An :class:`Executor` owns *where* trials run; :func:`run_trials` owns
*what* runs and keeps owning determinism. The contract that makes a
backend correct:

* the work list is ``(trial index, pre-derived SeedSequence)`` pairs —
  seeds are derived by the runner, in trial order, before dispatch;
* a backend may chunk, reorder, or retry units freely, because
  executing a unit is a pure function of its seed: any execution of the
  same unit is bit-identical, so recovery is idempotent and results are
  keyed by trial index with last-write-wins;
* results return as ``{trial index: record}`` with every pending index
  present.

Each executor fills in an :class:`ExecutorReport` as it runs — backend
name, worker roster, retry/loss tallies — which the runner stamps into
the sweep's :class:`~repro.obs.manifest.RunManifest` (schema v3).
Retry budgets and backoff come from the shared
:class:`~repro.exec.retry.RetryPolicy`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

#: ``(trial index, pre-derived seed sequence)`` — the dispatch unit
#: (mirrors the runner's ``_IndexedSeed``; kept loose here so the exec
#: package never imports the runner at module scope)
IndexedSeed = Tuple[int, Any]

#: ``{trial index: trial record}`` — a backend's return value
ResultMap = Dict[int, Any]

#: checkpoint hook: called with each completed chunk's ``(index,
#: record)`` pairs, in completion order
ChunkCallback = Callable[[List[Tuple[int, Any]]], None]


@dataclass
class ExecutorReport:
    """What one run's execution layer did — the manifest's ``executor``.

    Mutable on purpose: backends append to it as events happen, then
    the runner freezes :meth:`to_dict` into the manifest. Everything in
    here is *reporting*, never an input to any trial, so two runs that
    degrade differently still produce identical results — only their
    manifests tell the story apart (and ``repro obs diff`` reports the
    ``executor`` field informationally, outside the identity verdict).
    """

    #: backend that ultimately ran trials ("serial" or "local")
    backend: str = ""
    #: logical worker ids in spawn order ("w0", "w1", ... — a rebuilt
    #: pool's workers keep counting up)
    workers: List[str] = field(default_factory=list)
    #: retry attempts spent (pool rebuilds)
    retries: int = 0
    #: pools lost to crashed workers
    worker_losses: int = 0
    #: backends abandoned on the way here (``["local"]`` once a pool
    #: past its retry budget has handed the rest to the serial loop)
    degraded_from: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Stable plain-dict form for the manifest (JSON-safe)."""
        return {
            "backend": self.backend,
            "workers": list(self.workers),
            "retries": self.retries,
            "worker_losses": self.worker_losses,
            "degraded_from": list(self.degraded_from),
        }


class Executor(ABC):
    """One execution backend for exact-seed trial dispatch.

    Implementations must be *reusable* (a fresh :meth:`run` per sweep,
    with per-run state reset) and must treat ``state`` as opaque
    runner configuration to pass through to the chunk runner.
    """

    #: short stable name ("serial", "local") — the ``run_trials``
    #: ``executor=`` value and the manifest ``backend`` field
    name: ClassVar[str] = ""

    def __init__(self) -> None:
        self.report = ExecutorReport(backend=type(self).name)

    @abstractmethod
    def run(
        self,
        pending: Sequence[IndexedSeed],
        state: Dict[str, Any],
        *,
        chunk_size: Optional[int] = None,
        on_chunk_done: Optional[ChunkCallback] = None,
    ) -> ResultMap:
        """Execute every pending unit; return records keyed by index.

        ``on_chunk_done`` (the checkpoint hook) is called in completion
        order with each chunk's pairs — including chunks completed after
        a retry or a hand-off to the in-process loop.
        """

    # ------------------------------------------------------------------
    def _reset_report(self) -> None:
        """Start a fresh report for a new sweep (same backend name)."""
        self.report = ExecutorReport(backend=type(self).name)


def build_chunks(
    pending: Sequence[IndexedSeed],
    workers: int,
    chunk_size: Optional[int],
    lanes: int,
) -> List[List[IndexedSeed]]:
    """Split the work list into the pool's dispatch chunks.

    ~4 chunks per worker, rounded up to whole lane groups so workers run
    full batches. A rebuilt pool re-submits the same chunks, so a retried
    chunk replays exactly the trials its first attempt held.
    """
    lanes = max(lanes, 1)
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(pending) / (max(workers, 1) * 4)))
        if lanes > 1:
            chunk_size = math.ceil(chunk_size / lanes) * lanes
    return [
        list(pending[start : start + chunk_size])
        for start in range(0, len(pending), chunk_size)
    ]
