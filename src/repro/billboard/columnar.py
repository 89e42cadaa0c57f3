"""The post log: the §2.1 board stored as numpy columns.

:class:`ColumnarBoard` is the append-only, tagged, timestamped board of
the paper, stored as five growable columns (round, player, object,
value, kind), and reads its votes through a
:class:`~repro.billboard.votes.VoteLedger`. A :class:`Post` record
exists only when a reader asks for one. The board serves every batched
lane, and the scalar engine and ``repro serve`` at or above
:data:`~repro.billboard.sparse.SPARSE_AUTO_THRESHOLD` players (or under
``substrate="sparse"``); :class:`~repro.billboard.board.Billboard` is
this board plus a lazy hash chain.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.billboard.post import Entry, Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode, _IntColumn
from repro.errors import InvalidPostError, TamperError


def _unsigned_max(ids: np.ndarray) -> int:
    """The largest of int64 ``ids`` read as unsigned, by ``argmax``: no
    ufunc-reduction set-up, which dominates ``max`` on a small block."""
    unsigned = ids.view(np.uint64)
    return unsigned[unsigned.argmax()]


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
        # Ids fit int32 (the substrate knob matters far below 2^31
        # players) and a kind is one byte: 21 bytes per post.
        self._rounds = _IntColumn(dtype=np.int32)
        self._players = _IntColumn(dtype=np.int32)
        self._objects = _IntColumn(dtype=np.int32)
        self._values = _IntColumn(dtype=np.float64)
        self._kinds = _IntColumn(dtype=np.int8)
        self._last_round = -1

    def _columns(self) -> Tuple[_IntColumn, ...]:
        """Round, player, object, value and kind (1 for a vote)."""
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
        players, objects, values, kinds = zip(*entries)
        ids = np.fromiter(players + objects, np.int64, 2 * count)
        players, objects = ids[:count], ids[count:]
        self._validate(round_no, players, objects)
        values = np.fromiter(values, np.float64, count)
        n_votes = kinds.count(PostKind.VOTE)
        if n_votes == count:
            # an all-vote batch (every serve flush) is a same-kind block
            self._extend(round_no, players, objects, values, True)
            self.ledger.record_block(round_no, players, objects)
            return
        votes = np.fromiter((k is PostKind.VOTE for k in kinds), bool, count)
        self._extend(round_no, players, objects, values, votes)
        if n_votes:
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
        :meth:`append_many`.

        The block is validated whole first (the error is the first bad
        entry's, as in :meth:`append_many`); its round and kind are
        written into the columns in place, and a vote block goes to the
        ledger's :meth:`~repro.billboard.votes.VoteLedger.record_block`
        as the arrays it came in.
        """
        players = np.asarray(players, dtype=np.int64)
        if players.size == 0:
            return
        objects = np.asarray(objects, dtype=np.int64)
        self._validate(round_no, players, objects)
        is_vote = kind is PostKind.VOTE
        values = np.asarray(values, dtype=np.float64)
        self._extend(round_no, players, objects, values, is_vote)
        if is_vote:
            self.ledger.record_block(round_no, players, objects)

    def _validate(
        self, round_no: int, players: np.ndarray, objects: np.ndarray
    ) -> None:
        """Raise :meth:`append`'s error for the first bad entry of this
        batch, in entry order."""
        # An int64 id lies in [0, bound) iff it is below bound read as
        # unsigned (a negative one wraps past 2^63). The round checks are
        # every entry's, so entry 0 raises them unless its own ids fail
        # first; otherwise a mask finds the first bad entry.
        if (
            _unsigned_max(players) < self.n_players
            and _unsigned_max(objects) < self.n_objects
            and round_no >= max(self._last_round, 0)
        ):
            return
        self._validate_entry(round_no, int(players[0]), int(objects[0]))
        bad = (
            (players < 0)
            | (players >= self.n_players)
            | (objects < 0)
            | (objects >= self.n_objects)
        )
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
        """Write one validated post without building an array."""
        self._rounds.append(post.round_no)
        self._players.append(post.player)
        self._objects.append(post.object_id)
        self._values.append(post.reported_value)
        self._kinds.append(post.kind is PostKind.VOTE)
        self._last_round = post.round_no

    def _extend(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        votes: Union[np.ndarray, bool],
    ) -> None:
        """Write one validated round's batch; ids and kinds narrow as
        they are copied in. ``votes`` is one flag per post, or a single
        flag for a same-kind block; the round, and a block's single
        flag, are written in place."""
        self._rounds.fill(round_no, players.shape[0])
        self._players.extend(players)
        self._objects.extend(objects)
        self._values.extend(values)
        if isinstance(votes, np.ndarray):
            self._kinds.extend(votes)
        else:
            self._kinds.fill(votes, players.shape[0])
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
