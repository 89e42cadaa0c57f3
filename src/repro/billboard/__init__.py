"""The shared billboard substrate of the paper (Section 2.1).

The billboard is an append-only log of *posts*. Each post is reliably tagged
with the identity of the posting player and a timestamp (here: the round
number). Honest players post the outcome of every probe; a probe of a good
object is a *vote* — the only kind of report Algorithm DISTILL consumes.

The components are:

* :class:`~repro.billboard.post.Post` — one immutable billboard entry.
* :class:`~repro.billboard.post.PostBlock` — a same-kind block of posts
  as columns: what an adversary's turn posts.
* :class:`~repro.billboard.board.Billboard` — the append-only log with
  integrity enforcement (the scalar engine's dense substrate).
* :class:`~repro.billboard.columnar.ColumnarBoard` — the same log as
  numpy columns, without the hash chain: every batched lane and the
  sparse substrate (``substrate="sparse"``) for population-scale worlds.
* :class:`~repro.billboard.votes.VoteLedger` — the *reader-side* vote
  accounting of every board: one vote per player (Figure 1), or the
  first ``f`` votes (Section 4.1), or the mutable best-so-far vote
  (Section 5.3).
* :class:`~repro.billboard.views.BillboardView` — the read-only window a
  player or adversary is handed during a round.
"""

from repro.billboard.board import Billboard
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.lanes import LaneBillboard
from repro.billboard.post import Post, PostBlock, PostKind
from repro.billboard.sparse import (
    SPARSE_AUTO_THRESHOLD,
    SUBSTRATE_CHOICES,
    choose_substrate,
    normalize_substrate,
)
from repro.billboard.views import BillboardView
from repro.billboard.votes import VoteLedger, VoteMode

__all__ = [
    "Billboard",
    "BillboardView",
    "ColumnarBoard",
    "LaneBillboard",
    "Post",
    "PostBlock",
    "PostKind",
    "SPARSE_AUTO_THRESHOLD",
    "SUBSTRATE_CHOICES",
    "VoteLedger",
    "VoteMode",
    "choose_substrate",
    "normalize_substrate",
]
