"""The in-process serial executor — the reference backend.

The pool's correctness is defined as "bit-identical to
:class:`SerialExecutor` for the same seed". It is also where a pool
that keeps dying hands its unfinished trials: it shares no pools or
processes with anything, so the only way it fails is a genuine trial
error — which no backend is allowed to swallow.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.exec.base import (
    ChunkCallback,
    Executor,
    IndexedSeed,
    ResultMap,
)


class SerialExecutor(Executor):
    """Run every trial in the calling process, in trial order.

    ``chunk_size`` is ignored: serial execution steps by whole lane
    groups (``state["batch_lanes"]``): one ``runner.chunks`` count and
    one checkpoint append per group.
    """

    name = "serial"

    def run(
        self,
        pending: Sequence[IndexedSeed],
        state: Dict[str, Any],
        *,
        chunk_size: Optional[int] = None,
        on_chunk_done: Optional[ChunkCallback] = None,
    ) -> ResultMap:
        import repro.sim.runner as runner

        step = state.get("batch_lanes", 1) or 1
        results: ResultMap = {}
        for start in range(0, len(pending), step):
            pairs = runner._run_chunk(
                list(pending[start : start + step]), state
            )
            results.update(pairs)
            if on_chunk_done is not None:
                on_chunk_done(pairs)
        return results
