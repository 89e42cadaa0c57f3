"""The append-only billboard.

Section 2.1 of the paper makes two assumptions about the billboard, both
enforced here:

1. every message is reliably tagged with the posting player's identity and a
   timestamp — the board stamps posts itself, so a poster cannot forge
   either; and
2. the board is append-only — no message is ever erased, and any attempt to
   rewrite history raises :class:`~repro.errors.TamperError`.

The board additionally maintains a **hash chain** over its posts (each
post's digest covers the previous digest), the standard systems
realization of those assumptions: :meth:`Billboard.verify_integrity`
re-derives the chain and fails loudly if any stored post was mutated
behind the API's back — e.g. by test code or a buggy strategy poking at
internals. The model's adversary never gets this power; the chain is a
guard-rail for the *implementation*.

The chain is **lazily materialized**: each append snapshots the post's
canonical field string (cheap) and defers all SHA-256 work until the
first :attr:`Billboard.head_digest` or
:meth:`Billboard.verify_integrity` access, at which point the pending
snapshots are folded in append order. The materialized digest is
bit-identical to eager per-append chaining, and because the fold runs
over the *snapshots* — not the live ``Post`` objects — an out-of-API
mutation between append and materialization is still detected.
"""

from __future__ import annotations

import hashlib
from itertools import takewhile
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.billboard.post import Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode
from repro.errors import InvalidPostError, TamperError

#: digest of the empty board (the chain's genesis value)
GENESIS_DIGEST = hashlib.sha256(b"repro-billboard-genesis").hexdigest()

#: one batch entry for :meth:`Billboard.append_many`
Entry = Tuple[int, int, float, PostKind]


def _post_fields(post: Post) -> str:
    """Canonical field string of one post (the chained payload's suffix)."""
    return (
        f"{post.seq}|{post.round_no}|{post.player}|"
        f"{post.object_id}|{post.reported_value!r}|{post.kind.value}"
    )


def _fold_digest(previous: str, fields: str) -> str:
    """Fold one canonical field string onto the previous digest."""
    return hashlib.sha256(f"{previous}|{fields}".encode()).hexdigest()


def _chain_digest(previous: str, post: Post) -> str:
    """Digest of one post, chained onto the previous digest."""
    return _fold_digest(previous, _post_fields(post))


class Billboard:
    """Append-only post log plus its vote ledger.

    The board validates identities and timestamps; vote *semantics* (which
    votes count) live in the attached :class:`VoteLedger` because they are a
    reader-side convention, not a property of the medium.

    Parameters
    ----------
    n_players, n_objects:
        World dimensions used for identity/object validation.
    vote_mode:
        Reader-side vote rule (see :class:`VoteMode`).
    max_votes_per_player:
        The ``f`` of Section 4.1 (MULTI mode only).
    """

    def __init__(
        self,
        n_players: int,
        n_objects: int,
        vote_mode: VoteMode = VoteMode.SINGLE,
        max_votes_per_player: int = 1,
    ) -> None:
        self.n_players = n_players
        self.n_objects = n_objects
        self._posts: List[Post] = []
        self._last_round = -1
        #: digest of the materialized prefix of the chain
        self._digest = GENESIS_DIGEST
        #: canonical field snapshots of posts not yet folded into _digest
        self._pending_fields: List[str] = []
        self.ledger = VoteLedger(
            n_players,
            n_objects,
            mode=vote_mode,
            max_votes_per_player=max_votes_per_player,
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        round_no: int,
        player: int,
        object_id: int,
        reported_value: float,
        kind: PostKind,
    ) -> Post:
        """Stamp, validate, and append a post; returns the stored record.

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
            seq=len(self._posts),
            round_no=round_no,
            player=player,
            object_id=object_id,
            reported_value=float(reported_value),
            kind=kind,
        )
        self._posts.append(post)
        self._last_round = round_no
        self._pending_fields.append(_post_fields(post))
        if post.is_vote:
            self.ledger.record(post)
        return post

    def append_many(
        self, round_no: int, entries: Sequence[Entry]
    ) -> List[Post]:
        """Stamp, validate, and append a batch of posts for one round.

        ``entries`` is a sequence of ``(player, object_id, reported_value,
        kind)`` tuples. Equivalent to calling :meth:`append` once per entry
        in order — same post sequence, same ledger state, same hash chain —
        but the whole batch is validated *before* anything is appended
        (all-or-nothing), and the per-call overhead of stamping and
        digest bookkeeping is amortized over the batch.

        An empty batch is an explicit no-op: nothing is validated, the
        board (and its hash chain) is untouched, and ``[]`` is returned.

        Raises
        ------
        InvalidPostError, TamperError
            Same conditions as :meth:`append`; on error the board is
            unchanged.
        """
        if not entries:
            return []
        for player, object_id, _value, _kind in entries:
            self._validate_entry(round_no, player, object_id)
        base = len(self._posts)
        posts = [
            Post(
                seq=base + offset,
                round_no=round_no,
                player=int(player),
                object_id=int(object_id),
                reported_value=float(value),
                kind=kind,
            )
            for offset, (player, object_id, value, kind) in enumerate(entries)
        ]
        self._posts.extend(posts)
        self._last_round = round_no
        self._pending_fields.extend(_post_fields(p) for p in posts)
        record = self.ledger.record
        for post in posts:
            if post.is_vote:
                record(post)
        return posts

    def post_block(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kind: PostKind,
    ) -> List[Post]:
        """Append a same-round, same-kind block of posts given as columns
        (honest posts, and every adversary turn's
        :class:`~repro.billboard.post.PostBlock`). This board stores
        ``Post`` objects, so it turns the columns into entries here and
        appends them through :meth:`append_many`."""
        return self.append_many(
            round_no,
            [
                (player, object_id, value, kind)
                for player, object_id, value in zip(
                    np.asarray(players).tolist(),
                    np.asarray(objects).tolist(),
                    np.asarray(values).tolist(),
                )
            ],
        )

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

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    @property
    def head_digest(self) -> str:
        """Digest of the whole log (changes with every append).

        Materializes any deferred chain segments on access; the value is
        bit-identical to eager per-append chaining.
        """
        self._materialize_digest()
        return self._digest

    def _materialize_digest(self) -> None:
        """Fold pending field snapshots into the running digest."""
        if self._pending_fields:
            digest = self._digest
            for fields in self._pending_fields:
                digest = _fold_digest(digest, fields)
            self._digest = digest
            self._pending_fields.clear()

    def verify_integrity(self) -> None:
        """Re-derive the hash chain; raise :class:`TamperError` on any
        discrepancy between the stored posts and the running digest.

        The comparison digest is materialized from the field snapshots
        taken at append time, so a post mutated after its append is
        detected even if :attr:`head_digest` was never read before the
        mutation.
        """
        digest = GENESIS_DIGEST
        last_round = -1
        for index, post in enumerate(self._posts):
            if post.seq != index:
                raise TamperError(
                    f"post at position {index} carries seq {post.seq}"
                )
            if post.round_no < last_round:
                raise TamperError(
                    f"post {index} is stamped round {post.round_no} after "
                    f"round {last_round}"
                )
            last_round = post.round_no
            digest = _chain_digest(digest, post)
        if digest != self.head_digest:
            raise TamperError(
                "billboard hash chain mismatch: a stored post was mutated "
                "outside the append API"
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self._posts)

    def __getitem__(self, seq: int) -> Post:
        return self._posts[seq]

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
        """The log in append order, optionally filtered in a single pass.

        ``before_round`` keeps only posts stamped strictly earlier — the
        honest player's view at the start of that round. Rounds are
        non-decreasing, so the scan stops at the horizon instead of
        walking the whole log.

        With no filter the internal list is returned directly (posts are
        immutable and the log is append-only); treat it as read-only.
        """
        if kind is None and player is None and before_round is None:
            return self._posts
        source: Iterable[Post] = self._posts
        if before_round is not None:
            source = takewhile(lambda p: p.round_no < before_round, source)
        return [
            p
            for p in source
            if (kind is None or p.kind is kind)
            and (player is None or p.player == player)
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
