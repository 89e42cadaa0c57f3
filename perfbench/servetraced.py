"""``repro serve`` with spans around the serving layer's entry points.

Parses the same shape flags as ``repro serve``, wraps the recommender
(``fold_epoch``, ``scores``, ``recommend``), ``cumulative_vote_counts``,
``Billboard.append_many``, the ledger queries, the request handler and
the ``encode_frame``/``decode_frame`` names bound in
``repro.serve.service``, then runs ``BillboardService`` until a
``shutdown`` frame arrives and writes the spans to ``--spans``.

Each request opens at its ``decode_frame`` and takes the next request
id; the handler and ``encode_frame`` spans that follow carry that id.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanRecorder  # noqa: E402


def install_serve_tracing(recorder: SpanRecorder) -> None:
    import repro.serve.service as service
    from repro.billboard.board import Billboard
    from repro.billboard.post import PostKind
    from repro.billboard.views import BillboardView
    from repro.billboard.votes import VoteLedger
    from repro.serve.recommender import OnlineDistillRecommender

    counts = recorder.counts

    def next_request(*_args: Any) -> None:
        recorder.tag = counts["requests"]
        counts["requests"] += 1

    def count_kind(_self: Any, kind: str, _body: Any) -> None:
        counts[f"kind.{kind}"] += 1

    def votes(_result: Any, board: Any, _epoch: int, entries: Any) -> None:
        counts["votes_posted"] += sum(1 for e in entries if e[3] is PostKind.VOTE)
        counts["effective_votes"] = board.ledger.effective_vote_count

    wrap = recorder.wrap
    wrap(service, "decode_frame", "serve.codec", on_enter=next_request)
    wrap(service, "encode_frame", "serve.codec")
    wrap(service.BillboardService, "_handle", "serve.handle", on_enter=count_kind)
    wrap(OnlineDistillRecommender, "fold_epoch", "serve.fold")
    wrap(OnlineDistillRecommender, "scores", "serve.query")
    wrap(OnlineDistillRecommender, "recommend", "serve.query")
    wrap(BillboardView, "cumulative_vote_counts", "serve.query")
    wrap(Billboard, "append_many", "billboard.append",
         items=lambda _b, _e, entries: len(entries), on_exit=votes)
    for attr in ("current_vote_array", "counts_in_window", "objects_with_votes"):
        wrap(VoteLedger, attr, "billboard.query")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--spans", required=True, help="span file written at exit")
    args = parser.parse_args()

    from repro.serve import BillboardService, ServeConfig

    recorder = SpanRecorder()
    install_serve_tracing(recorder)
    service = BillboardService(
        ServeConfig(n_players=args.n, n_objects=args.m, port=args.port)
    )
    try:
        service.run()
    finally:
        recorder.close()
        recorder.write(args.spans, {"counts": dict(recorder.counts)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
