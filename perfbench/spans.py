"""In-memory spans around the public entry points of each layer.

The traced run patches class (or module) attributes from the benchmark's
own files, so nothing under ``src/`` changes: :meth:`SpanRecorder.wrap`
replaces one attribute with a wrapper that records a span and restores
the original on :meth:`SpanRecorder.close`. A span is
``(name, start, end, parent, tag, items)``: ``parent`` is the index of
the enclosing span (``-1`` at the top), ``tag`` the trial, lane-group or
request id current when it opened, ``items`` a work count the wrapper
read from the call's arguments (posts appended, for instance).

Self time is a span's duration minus the part of it that its children
cover; :func:`self_times` does that arithmetic and :func:`layer_totals`
sums it per layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (name, start, end, parent index, tag, items)
Span = Tuple[str, float, float, int, Any, int]


class SpanRecorder:
    """Records nested spans on one thread and undoes its patches."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.layer_of: Dict[str, str] = {}
        self.tag: Any = None
        #: free-form event counts that wrapper callbacks accumulate
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        items: Optional[Callable[..., int]] = None,
        on_enter: Optional[Callable[..., None]] = None,
        on_exit: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        For a class, the attribute is patched on the class in its MRO that
        defines it, so subclasses that inherit it are covered once.
        ``items(*args, **kwargs)`` counts the work a call carries;
        ``on_enter``/``on_exit`` see the same arguments (plus the result
        for ``on_exit``) and may set :attr:`tag` or read state.
        """
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attr in vars(k))
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner.__name__}.{attr}")
        label = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        name = f"{label}.{attr}"
        self.layer_of[name] = layer
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if on_enter is not None:
                on_enter(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                count = items(*args, **kwargs) if items is not None else 1
                spans[index] = (name, start, end, parent, self.tag, count)
            if on_exit is not None:
                on_exit(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def finished(self) -> List[Span]:
        """Every span that has ended (open ones are skipped)."""
        return [span for span in self.spans if span is not None]

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the spans and the name→layer map as one JSON file."""
        payload = {
            "fields": ["name", "start", "end", "parent", "tag", "items"],
            "layer_of": self.layer_of,
            "spans": self.finished(),
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or straddling children never count twice.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out: List[float] = []
    for index, (_name, start, end, _parent, _tag, _items) in enumerate(spans):
        clipped = sorted(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(index, ())
        )
        covered = 0.0
        run_start = run_end = None
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_totals(
    spans: Sequence[Span], layer_of: Dict[str, str]
) -> Dict[str, Dict[str, float]]:
    """Per layer: summed self seconds, call count and item count."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "items": 0}
    )
    for span, own in zip(spans, self_times(spans)):
        layer = totals[layer_of.get(span[0], span[0])]
        layer["self_s"] += own
        layer["calls"] += 1
        layer["items"] += span[5]
    return dict(totals)
