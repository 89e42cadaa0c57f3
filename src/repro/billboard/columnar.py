"""The columnar post log: the §2.1 board stored as numpy columns.

:class:`ColumnarBoard` is the board :class:`~repro.billboard.board.Billboard`
is — same write contract, validation errors and read API — stored as
five growable columns (round, player, object, value, kind) instead of a
:class:`Post` object per entry, and without the hash chain. It serves
every batched lane, the scalar engine's sparse substrate and
``repro serve --substrate sparse``, and reads its votes through the same
:class:`~repro.billboard.votes.VoteLedger` as ``Billboard``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.billboard.board import Billboard, Entry
from repro.billboard.post import Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode, _IntColumn
from repro.errors import InvalidPostError, TamperError


class ColumnarBoard:
    """Append-only post log in numpy columns, plus its vote ledger.

    Takes :class:`Billboard`'s arguments and keeps the same
    :class:`VoteLedger`.
    """

    __slots__ = (
        "n_players",
        "n_objects",
        "ledger",
        "_rounds",
        "_players",
        "_objects",
        "_values",
        "_kinds",
        "_last_round",
    )

    def __init__(
        self,
        n_players: int,
        n_objects: int,
        vote_mode: VoteMode = VoteMode.SINGLE,
        max_votes_per_player: int = 1,
    ) -> None:
        self.n_players = n_players
        self.n_objects = n_objects
        self.ledger = VoteLedger(
            n_players,
            n_objects,
            mode=vote_mode,
            max_votes_per_player=max_votes_per_player,
        )
        # Ids fit int32 (the substrate knob matters far below 2^31
        # players) and a kind is one byte: 21 bytes per post.
        self._rounds = _IntColumn(dtype=np.int32)
        self._players = _IntColumn(dtype=np.int32)
        self._objects = _IntColumn(dtype=np.int32)
        self._values = _IntColumn(dtype=np.float64)
        self._kinds = _IntColumn(dtype=np.int8)
        self._last_round = -1

    # ------------------------------------------------------------------
    # Appending. No public write calls another, so a wrapper around one
    # (perfbench/sims.py wraps all three) counts each post once.
    # ------------------------------------------------------------------
    def append_many(self, round_no: int, entries: Sequence[Entry]) -> None:
        """Stamp, validate, and append a batch of posts for one round.

        :meth:`Billboard.append_many`'s all-or-nothing contract, errors
        and empty-batch no-op; it returns nothing, as posts exist only
        as columns until read.
        """
        if not entries:
            return
        count = len(entries)
        players = np.fromiter((e[0] for e in entries), np.int64, count=count)
        objects = np.fromiter((e[1] for e in entries), np.int64, count=count)
        self._validate(round_no, players, objects)
        values = np.fromiter((e[2] for e in entries), np.float64, count=count)
        votes = np.fromiter((e[3] is PostKind.VOTE for e in entries), bool, count=count)
        self._extend(round_no, players, objects, values, votes)
        if votes.any():
            # one ledger pass; the ledger parity suite pins it to
            # per-post recording
            self.ledger.record_block(round_no, players[votes], objects[votes])

    # Kept because perfbench/sims.py wraps this name (the lanes' old
    # write for mixed-kind batches) for per-layer attribution.
    post_entries = append_many

    def post_block(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kind: PostKind,
    ) -> None:
        """Append a same-round, same-kind block of posts, in order (the
        batched engine's honest posts); otherwise :meth:`append_many`."""
        players = np.asarray(players, dtype=np.int64)
        if players.size == 0:
            return
        objects = np.asarray(objects, dtype=np.int64)
        self._validate(round_no, players, objects)
        is_vote = kind is PostKind.VOTE
        values = np.asarray(values, dtype=np.float64)
        self._extend(round_no, players, objects, values, np.full(players.size, is_vote))
        if is_vote:
            self.ledger.record_block(round_no, players, objects)

    def _validate(
        self, round_no: int, players: np.ndarray, objects: np.ndarray
    ) -> None:
        """Raise :meth:`Billboard.append_many`'s error for this batch: the
        first bad entry's, in entry order."""
        # The round checks are the same for every entry, so entry 0
        # raises them unless its own ids fail first.
        self._validate_entry(round_no, int(players[0]), int(objects[0]))
        bad = (
            (players < 0)
            | (players >= self.n_players)
            | (objects < 0)
            | (objects >= self.n_objects)
        )
        if bad.any():
            first = int(np.argmax(bad))
            self._validate_entry(round_no, int(players[first]), int(objects[first]))

    def _validate_entry(self, round_no: int, player: int, object_id: int) -> None:
        if not 0 <= player < self.n_players:
            raise InvalidPostError(
                f"unknown player identity {player} (n={self.n_players})"
            )
        if not 0 <= object_id < self.n_objects:
            raise InvalidPostError(
                f"unknown object {object_id} (m={self.n_objects})"
            )
        if round_no < 0:
            raise InvalidPostError(f"negative round {round_no}")
        if round_no < self._last_round:
            raise TamperError(
                f"post stamped round {round_no} after round {self._last_round} "
                "was already on the board (append-only violation)"
            )

    def _extend(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        votes: np.ndarray,
    ) -> None:
        """Append a validated batch; ids and kinds narrow as copied in."""
        self._rounds.extend(np.full(players.size, round_no, np.int32))
        self._players.extend(players)
        self._objects.extend(objects)
        self._values.extend(values)
        self._kinds.extend(votes)
        self._last_round = round_no

    # ------------------------------------------------------------------
    # Reading (the Billboard API BillboardView forwards to)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rounds)

    def __iter__(self) -> Iterator[Post]:
        return iter(self.posts())

    def __getitem__(self, seq: int) -> Post:
        """The post at ``seq``; a negative index counts from the end, and
        an index out of range raises :class:`IndexError`, as on a list."""
        return self._materialize(np.array([range(len(self))[seq]]))[0]

    @property
    def last_round(self) -> int:
        """Round stamp of the newest post (``-1`` for an empty board)."""
        return self._last_round

    def posts(
        self,
        kind: Optional[PostKind] = None,
        player: Optional[int] = None,
        before_round: Optional[int] = None,
    ) -> List[Post]:
        """The log in append order, filtered as :meth:`Billboard.posts`
        filters, as ``Post`` records built for this call."""
        rounds = self._rounds.view()
        cutoff = rounds.size
        if before_round is not None:
            cutoff = int(np.searchsorted(rounds, before_round, side="left"))
        keep = np.ones(cutoff, dtype=bool)
        if kind is not None:
            keep &= self._kinds.view()[:cutoff] == (kind is PostKind.VOTE)
        if player is not None:
            keep &= self._players.view()[:cutoff] == player
        return self._materialize(np.flatnonzero(keep))

    def _materialize(self, seqs: np.ndarray) -> List[Post]:
        kinds = (PostKind.REPORT, PostKind.VOTE)
        return [
            Post(
                seq=seq,
                round_no=round_no,
                player=player,
                object_id=object_id,
                reported_value=value,
                kind=kinds[kind],
            )
            for seq, round_no, player, object_id, value, kind in zip(
                seqs.tolist(),
                self._rounds.view()[seqs].tolist(),
                self._players.view()[seqs].tolist(),
                self._objects.view()[seqs].tolist(),
                self._values.view()[seqs].tolist(),
                self._kinds.view()[seqs].tolist(),
            )
        ]

    def vote_posts(self, before_round: Optional[int] = None) -> List[Post]:
        """All vote posts (effective or not) in append order."""
        return self.posts(kind=PostKind.VOTE, before_round=before_round)

    # Ledger pass-throughs (the queries DISTILL actually uses) ----------
    def current_vote_array(self, before_round: Optional[int] = None) -> np.ndarray:
        """See :meth:`VoteLedger.current_vote_array`."""
        return self.ledger.current_vote_array(before_round)

    def objects_with_votes(self, before_round: Optional[int] = None) -> np.ndarray:
        """See :meth:`VoteLedger.objects_with_votes`."""
        return self.ledger.objects_with_votes(before_round)

    def counts_in_window(self, start_round: int, end_round: int) -> np.ndarray:
        """See :meth:`VoteLedger.counts_in_window`."""
        return self.ledger.counts_in_window(start_round, end_round)


#: either post log (what views, the engines and the serving layer take)
AnyBoard = Union[Billboard, ColumnarBoard]
