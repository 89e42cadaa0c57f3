"""The post log: the §2.1 board stored as numpy columns.

:class:`ColumnarBoard` is the append-only, tagged, timestamped board of
the paper, stored as five growable columns (round, player, object,
value, kind), and reads its votes through a
:class:`~repro.billboard.votes.VoteLedger`. A :class:`Post` record
exists only when a reader asks for one. The board serves every batched
lane, the scalar engine's sparse substrate and ``repro serve
--substrate sparse``; :class:`~repro.billboard.board.Billboard` is this
board plus a lazy hash chain.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.billboard.post import Entry, Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode, _IntColumn
from repro.errors import InvalidPostError, TamperError

#: the five columns of a post log, in row order: round, player, object,
#: value, kind (1 for a vote)
Columns = Tuple[_IntColumn, _IntColumn, _IntColumn, _IntColumn, _IntColumn]


def _new_columns() -> Columns:
    """Five empty post columns. Ids fit int32 (the substrate knob
    matters far below 2^31 players) and a kind is one byte: 21 bytes
    per post."""
    return (
        _IntColumn(dtype=np.int32),
        _IntColumn(dtype=np.int32),
        _IntColumn(dtype=np.int32),
        _IntColumn(dtype=np.float64),
        _IntColumn(dtype=np.int8),
    )


def _append_row(columns: Columns, post: Post) -> None:
    """Write one post into ``columns`` without building an array."""
    rounds, players, objects, values, kinds = columns
    rounds.append(post.round_no)
    players.append(post.player)
    objects.append(post.object_id)
    values.append(post.reported_value)
    kinds.append(post.kind is PostKind.VOTE)


def _extend_rows(
    columns: Columns,
    round_no: int,
    players: np.ndarray,
    objects: np.ndarray,
    values: np.ndarray,
    votes: np.ndarray,
) -> None:
    """Write one round's posts into ``columns``; ids and kinds narrow as
    they are copied in."""
    rounds, player_col, object_col, value_col, kinds = columns
    rounds.extend(np.full(players.size, round_no, np.int32))
    player_col.extend(players)
    object_col.extend(objects)
    value_col.extend(values)
    kinds.extend(votes)


class ColumnarBoard:
    """Append-only post log in numpy columns, plus its vote ledger.

    The board validates identities and timestamps; vote *semantics*
    (which votes count) live in the attached :class:`VoteLedger` because
    they are a reader-side convention, not a property of the medium.

    Parameters
    ----------
    n_players, n_objects:
        World dimensions used for identity/object validation.
    vote_mode:
        Reader-side vote rule (see :class:`VoteMode`).
    max_votes_per_player:
        The ``f`` of Section 4.1 (MULTI mode only).
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
        (
            self._rounds,
            self._players,
            self._objects,
            self._values,
            self._kinds,
        ) = _new_columns()
        self._last_round = -1

    def _columns(self) -> Columns:
        return (self._rounds, self._players, self._objects, self._values, self._kinds)

    # ------------------------------------------------------------------
    # Appending. No public write calls another, so a wrapper around one
    # (perfbench/sims.py wraps post_block, append_many and post_entries)
    # counts each post once.
    # ------------------------------------------------------------------
    def append(
        self,
        round_no: int,
        player: int,
        object_id: int,
        reported_value: float,
        kind: PostKind,
    ) -> Post:
        """Stamp, validate, and append one post; returns its record.

        The one-row write (the asynchronous engine posts one row per
        step): it builds no array, so it costs a few microseconds where
        a one-row :meth:`post_block` costs tens.

        Raises
        ------
        InvalidPostError
            If the player or object id is out of range, or the round is
            negative.
        TamperError
            If the round number is earlier than an already-appended post
            (which would amount to rewriting history).
        """
        self._validate_entry(round_no, player, object_id)
        post = Post(
            len(self._rounds), round_no, player, object_id,
            float(reported_value), kind,
        )
        self._append(post)
        if post.is_vote:
            self.ledger.record(post)
        return post

    def append_many(self, round_no: int, entries: Sequence[Entry]) -> None:
        """Stamp, validate, and append a batch of posts for one round.

        ``entries`` is a sequence of ``(player, object_id,
        reported_value, kind)`` tuples. Equivalent to calling
        :meth:`append` once per entry in order, but the whole batch is
        validated *before* anything is appended (all-or-nothing): on
        error the board is unchanged, and the error is the first bad
        entry's. An empty batch is an explicit no-op.
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
        """Append a same-round, same-kind block of posts given as columns
        (honest posts, and every adversary turn's
        :class:`~repro.billboard.post.PostBlock`); otherwise
        :meth:`append_many`."""
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
        """Raise :meth:`append`'s error for the first bad entry of this
        batch, in entry order."""
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

    # The two row writes every append path ends in (Billboard extends
    # both to keep its pending chain copy).
    def _append(self, post: Post) -> None:
        """Write one validated post."""
        _append_row(self._columns(), post)
        self._last_round = post.round_no

    def _extend(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        votes: np.ndarray,
    ) -> None:
        """Write one validated round's batch."""
        _extend_rows(self._columns(), round_no, players, objects, values, votes)
        self._last_round = round_no

    # ------------------------------------------------------------------
    # Reading (the API BillboardView forwards to)
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

    def _cutoff(self, before_round: Optional[int]) -> int:
        """How many posts are stamped before ``before_round`` (rounds
        never decrease, so it is a binary search)."""
        if before_round is None:
            return len(self._rounds)
        return int(np.searchsorted(self._rounds.view(), before_round, side="left"))

    def posts(
        self,
        kind: Optional[PostKind] = None,
        player: Optional[int] = None,
        before_round: Optional[int] = None,
    ) -> List[Post]:
        """The log in append order, as ``Post`` records built for this
        call, optionally filtered by kind and poster.

        ``before_round`` keeps only posts stamped strictly earlier — the
        honest player's view at the start of that round.
        """
        cutoff = self._cutoff(before_round)
        keep = np.ones(cutoff, dtype=bool)
        if kind is not None:
            keep &= self._kinds.view()[:cutoff] == (kind is PostKind.VOTE)
        if player is not None:
            keep &= self._players.view()[:cutoff] == player
        return self._materialize(np.flatnonzero(keep))

    def post_columns(
        self, kind: PostKind, before_round: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(players, objects, values)`` of the posts of ``kind`` stamped
        before ``before_round``, in append order, as read-only arrays:
        :meth:`posts` without a record per post."""
        cutoff = self._cutoff(before_round)
        keep = self._kinds.view()[:cutoff] == (kind is PostKind.VOTE)
        out = (
            self._players.view()[:cutoff][keep],
            self._objects.view()[:cutoff][keep],
            self._values.view()[:cutoff][keep],
        )
        for column in out:
            column.flags.writeable = False
        return out

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
