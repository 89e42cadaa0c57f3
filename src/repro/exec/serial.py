"""The in-process serial executor — the reference backend.

The pool's correctness is defined as "bit-identical to
:class:`SerialExecutor` for the same seed". It is also where a pool
that keeps dying hands its unfinished trials: it shares no pools or
processes with anything, so the only way it fails is a genuine trial
error — which no backend is allowed to swallow.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

#: ``(trial index, pre-derived seed sequence)`` — the dispatch unit
IndexedSeed = Tuple[int, Any]


def new_report(backend: str) -> Dict[str, Any]:
    """A fresh manifest ``executor`` record (reporting only).

    ``workers`` lists pool worker ids in spawn order, ``retries`` counts
    pool rebuilds, ``worker_losses`` pools lost to crashed workers, and
    ``degraded_from`` is ``["local"]`` once a pool has handed its
    unfinished trials to the serial loop.
    """
    return {
        "backend": backend,
        "workers": [],
        "retries": 0,
        "worker_losses": 0,
        "degraded_from": [],
    }


class SerialExecutor:
    """Run every trial in the calling process, in trial order.

    Steps by whole lane groups: one ``runner.chunks`` count and one
    checkpoint append per group.
    """

    def __init__(self) -> None:
        self.report = new_report("serial")

    def run(
        self,
        pending: Sequence[IndexedSeed],
        run_chunk: Callable[..., Any],
        lanes: int = 1,
        obs: Any = None,
        on_chunk_done: Optional[Callable[..., None]] = None,
    ) -> Dict[int, Any]:
        """Run every pending unit; return records keyed by trial index.

        ``run_chunk(units, obs)`` is the runner's chunk runner;
        ``on_chunk_done`` (the checkpoint hook) sees each group's
        ``(index, record)`` pairs as it completes.
        """
        results: Dict[int, Any] = {}
        for start in range(0, len(pending), lanes):
            pairs = run_chunk(pending[start : start + lanes], obs)
            results.update(pairs)
            if on_chunk_done is not None:
                on_chunk_done(pairs)
        return results
