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
as a pending copy (a block write one copy of its columns, a one-row
append one packed 21-byte record), and all SHA-256 work waits for the
first :attr:`Billboard.head_digest` or
:meth:`Billboard.verify_integrity`, which folds the pending rows in
append order and frees them. The digest is bit-identical to eager
per-append chaining, and because the fold runs over the *copy* — not
the live columns — an out-of-API edit between append and
materialization is still detected.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Union

import numpy as np

from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import Post, PostKind
from repro.billboard.votes import VoteMode, _IntColumn
from repro.errors import TamperError

#: digest of the empty board (the chain's genesis value)
GENESIS_DIGEST = hashlib.sha256(b"repro-billboard-genesis").hexdigest()

_KIND_NAMES = (PostKind.REPORT.value, PostKind.VOTE.value)

#: a pending post, packed in the live columns' dtypes (21 bytes)
_ROW = np.dtype({"names": ["round", "player", "object", "value", "kind"],
                 "formats": ["<i4", "<i4", "<i4", "<f8", "<i1"]})


def _fold(digest: str, first_seq: int, columns: Sequence[Sequence]) -> str:
    """Chain the rows of ``columns`` (round, player, object, value and
    kind lists), numbered from ``first_seq``, onto ``digest``, each as
    its canonical field string ``seq|round|player|object|value!r|kind``."""
    rounds, players, objects, values, kinds = columns
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

    __slots__ = ("_digest", "_folded", "_rows", "_blocks")

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
        #: the posts since, not yet folded: packed one-row appends, and
        #: each block's columns after the count of rows packed before it
        self._rows = _IntColumn(dtype=_ROW)
        self._blocks: List[tuple] = []

    # perfbench/sims.py wraps Billboard.append_many and
    # ColumnarBoard.append_many separately; an inherited method would be
    # wrapped twice, and its spans would nest.
    append_many = ColumnarBoard.append_many

    def _append(self, post: Post) -> None:
        super()._append(post)
        self._rows.append((
            post.round_no, post.player, post.object_id, post.reported_value,
            post.kind is PostKind.VOTE,
        ))

    def _extend(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        votes: Union[np.ndarray, bool],
    ) -> None:
        super()._extend(round_no, players, objects, values, votes)
        # copies, as the caller may reuse its arrays (a kind mask is ours)
        self._blocks.append((
            len(self._rows), int(round_no), players.astype(np.int32),
            objects.astype(np.int32), values.copy(), votes,
        ))

    @property
    def head_digest(self) -> str:
        """Digest of the whole log (changes with every append).

        Folds the pending rows on access, in write order; the value is
        bit-identical to eager per-append chaining.
        """
        if len(self._rows) or self._blocks:
            rows = self._rows.view()
            packed = [rows[name].tolist() for name in _ROW.names]
            start = 0
            for stop, round_no, *block in self._blocks:
                self._chain([column[start:stop] for column in packed])
                start, shape = stop, block[0].shape
                self._chain(
                    [np.broadcast_to(c, shape).tolist() for c in (round_no, *block)]
                )
            self._chain([column[start:] for column in packed])
            self._rows, self._blocks = _IntColumn(dtype=_ROW), []
        return self._digest

    def _chain(self, columns: Sequence[list]) -> None:
        self._digest = _fold(self._digest, self._folded, columns)
        self._folded += len(columns[0])

    def verify_integrity(self) -> None:
        """Re-fold the stored columns from genesis; raise
        :class:`TamperError` unless the result equals :attr:`head_digest`.

        The head digest is folded from the copies taken at write time,
        so a post edited after its append is detected even if
        :attr:`head_digest` was never read before the edit.
        """
        live = [column.view().tolist() for column in self._columns()]
        if _fold(GENESIS_DIGEST, 0, live) != self.head_digest:
            raise TamperError(
                "billboard hash chain mismatch: a stored post was mutated, "
                "reordered or deleted outside the append API"
            )
