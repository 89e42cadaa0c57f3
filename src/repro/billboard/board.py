"""The tamper-evident billboard: the post log plus a hash chain.

Section 2.1 of the paper makes two assumptions about the billboard, both
enforced by :class:`~repro.billboard.columnar.ColumnarBoard`: every
message is reliably tagged with the posting player's identity and a
timestamp (the board stamps posts itself, so a poster cannot forge
either), and the board is append-only (a post stamped before the newest
round raises :class:`~repro.errors.TamperError`).

:class:`Billboard` adds a **hash chain** over the posts (each post's
digest covers the previous digest), the standard systems realization of
those assumptions: :meth:`Billboard.verify_integrity` re-derives the
chain from the stored columns and fails loudly if a stored post was
mutated, reordered or deleted behind the API's back — e.g. by test code
or a buggy strategy poking at internals. The model's adversary never
gets this power; the chain is a guard-rail for the *implementation*.

The chain is **lazily materialized**: every write also keeps its rows
as a pending copy, in the columns' own dtypes, and all SHA-256 work
waits for the first :attr:`Billboard.head_digest` or
:meth:`Billboard.verify_integrity`, which folds the pending rows in
append order and frees them. The digest is bit-identical to eager
per-append chaining, and because the fold runs over the *copy* — not
the live columns — an out-of-API edit between append and
materialization is still detected.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

from repro.billboard.columnar import (
    ColumnarBoard,
    Columns,
    _append_row,
    _extend_rows,
    _new_columns,
)
from repro.billboard.post import Post, PostKind
from repro.billboard.votes import VoteMode
from repro.errors import TamperError

#: digest of the empty board (the chain's genesis value)
GENESIS_DIGEST = hashlib.sha256(b"repro-billboard-genesis").hexdigest()

_KIND_NAMES = (PostKind.REPORT.value, PostKind.VOTE.value)


def _fold(digest: str, first_seq: int, columns: Columns) -> str:
    """Chain the rows of ``columns``, numbered from ``first_seq``, onto
    ``digest``. Each post contributes its canonical field string
    ``seq|round|player|object|value!r|kind``."""
    rounds, players, objects, values, kinds = (c.view().tolist() for c in columns)
    sha256 = hashlib.sha256
    for seq, round_no, player, object_id, value, kind in zip(
        range(first_seq, first_seq + len(rounds)),
        rounds, players, objects, values, kinds,
    ):
        digest = sha256(
            f"{digest}|{seq}|{round_no}|{player}|{object_id}|{value!r}|"
            f"{_KIND_NAMES[kind]}".encode()
        ).hexdigest()
    return digest


class Billboard(ColumnarBoard):
    """:class:`ColumnarBoard` plus a lazily folded SHA-256 chain over its
    posts. Takes the same arguments."""

    __slots__ = ("_digest", "_folded", "_pending")

    def __init__(
        self,
        n_players: int,
        n_objects: int,
        vote_mode: VoteMode = VoteMode.SINGLE,
        max_votes_per_player: int = 1,
    ) -> None:
        super().__init__(n_players, n_objects, vote_mode, max_votes_per_player)
        #: digest of the first ``_folded`` posts
        self._digest = GENESIS_DIGEST
        self._folded = 0
        #: copy of the posts written since, not yet folded into _digest
        self._pending: Columns = _new_columns()

    # perfbench/sims.py wraps Billboard.append_many and
    # ColumnarBoard.append_many separately; an inherited method would be
    # wrapped twice, and its spans would nest.
    append_many = ColumnarBoard.append_many

    def _append(self, post: Post) -> None:
        super()._append(post)
        _append_row(self._pending, post)

    def _extend(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        votes: Union[np.ndarray, bool],
    ) -> None:
        super()._extend(round_no, players, objects, values, votes)
        _extend_rows(self._pending, round_no, players, objects, values, votes)

    @property
    def head_digest(self) -> str:
        """Digest of the whole log (changes with every append).

        Folds the pending rows on access; the value is bit-identical to
        eager per-append chaining.
        """
        pending = self._pending
        if len(pending[0]):
            self._digest = _fold(self._digest, self._folded, pending)
            self._folded += len(pending[0])
            self._pending = _new_columns()
        return self._digest

    def verify_integrity(self) -> None:
        """Re-fold the stored columns from genesis; raise
        :class:`TamperError` unless the result equals :attr:`head_digest`.

        The head digest is folded from the copies taken at write time,
        so a post edited after its append is detected even if
        :attr:`head_digest` was never read before the edit.
        """
        if _fold(GENESIS_DIGEST, 0, self._columns()) != self.head_digest:
            raise TamperError(
                "billboard hash chain mismatch: a stored post was mutated, "
                "reordered or deleted outside the append API"
            )
