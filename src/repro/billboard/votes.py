"""Reader-side vote accounting.

The billboard itself is a dumb append-only log; the *rules* about which
votes count are applied by readers. This module centralizes those rules so
that every honest player applies them identically (which is what keeps the
DISTILL cohort in lockstep).

Three vote modes appear in the paper:

``SINGLE``
    Figure 1: "allow each player to make only one such report, called the
    player's *vote*". Only the first vote ever posted by a player counts;
    later votes by the same player are ignored by readers. This is the rule
    whose accounting powers Lemma 7 (the dishonest vote budget ``(1-α)n``).

``MULTI``
    Section 4.1: each player may submit positive votes for up to ``f``
    objects. The first ``f`` votes for *distinct* objects count.

``MUTABLE``
    Section 5.3 (search without local testing): a player's vote is the best
    object it has probed so far, so the vote may change; the player's
    *latest* vote post is current, and within a counting window the player
    contributes (at most) one vote — for the last object it switched to in
    that window.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.billboard.post import Post


class _IntColumn:
    """A growable typed column with amortized O(1) appends.

    The ledger stores its effective-vote log as three of these (rounds,
    players, objects) so that every query is a vectorized slice instead of
    a Python walk. :meth:`view` returns a zero-copy window onto the filled
    prefix; callers must not mutate it. The default ``int64`` matches the
    dense ledger's arithmetic; the columnar board passes narrower
    dtypes (``int32`` ids, ``float64`` values, ``int8`` kinds) to keep
    million-post logs compact.
    """

    __slots__ = ("_buf", "_size")

    def __init__(self, capacity: int = 64, dtype=np.int64) -> None:
        self._buf = np.empty(max(int(capacity), 1), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, value: float) -> None:
        if self._size == self._buf.shape[0]:
            self._grow(self._size + 1)
        self._buf[self._size] = value
        self._size += 1

    def extend(self, values: np.ndarray) -> None:
        """Append a block of values in one vectorized copy."""
        needed = self._size + values.shape[0]
        if needed > self._buf.shape[0]:
            self._grow(needed)
        self._buf[self._size : needed] = values
        self._size = needed

    def _grow(self, needed: int) -> None:
        capacity = self._buf.shape[0]
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=self._buf.dtype)
        grown[: self._size] = self._buf[: self._size]
        self._buf = grown

    def view(self) -> np.ndarray:
        """Zero-copy read-only window onto the filled prefix.

        The window is marked non-writeable so out-of-API mutation fails
        loudly (``ValueError``) instead of silently corrupting the vote
        accounting; the flag lives on the returned view only — the
        ledger keeps writing through its own buffer reference.
        """
        window = self._buf[: self._size]
        window.flags.writeable = False
        return window


class VoteMode(enum.Enum):
    """Which votes on the board are *effective* for readers."""

    SINGLE = "single"
    MULTI = "multi"
    MUTABLE = "mutable"


class VoteLedger:
    """Incremental tally of effective votes on a billboard.

    The ledger observes every vote post (via :meth:`record`) in append
    order and answers the three queries DISTILL needs:

    * :meth:`current_vote_array` — each player's current advice target
      (used by PROBE&SEEKADVICE);
    * :meth:`objects_with_votes` — the set ``S`` of Step 1.2;
    * :meth:`counts_in_window` — the per-iteration tallies ``l_t(i)`` of
      Steps 1.4 and 2.2.

    Parameters
    ----------
    n_players, n_objects:
        Dimensions of the world.
    mode:
        Vote-effectiveness rule; see :class:`VoteMode`.
    max_votes_per_player:
        The ``f`` of Section 4.1; only meaningful in ``MULTI`` mode
        (``SINGLE`` forces 1, ``MUTABLE`` tracks a single mutable slot).
    """

    def __init__(
        self,
        n_players: int,
        n_objects: int,
        mode: VoteMode = VoteMode.SINGLE,
        max_votes_per_player: int = 1,
    ) -> None:
        if n_players <= 0 or n_objects <= 0:
            raise ConfigurationError(
                "ledger needs positive player and object counts, got "
                f"n_players={n_players}, n_objects={n_objects}"
            )
        if mode is VoteMode.SINGLE:
            max_votes_per_player = 1
        if max_votes_per_player < 1:
            raise ConfigurationError(
                f"max_votes_per_player must be >= 1, got {max_votes_per_player}"
            )
        self.n_players = n_players
        self.n_objects = n_objects
        self.mode = mode
        self.max_votes_per_player = max_votes_per_player

        # Effective votes in append order, as parallel numpy columns
        # (rounds are non-decreasing, so horizon cuts are binary searches).
        self._rounds = _IntColumn()
        self._players = _IntColumn()
        self._objects = _IntColumn()

        # Current advice target per player; -1 means "no vote yet".
        self._current_vote = np.full(n_players, -1, dtype=np.int64)

        # Effective-vote tally per player (vectorized votes_cast_by).
        self._vote_counts = np.zeros(n_players, dtype=np.int64)

        # MULTI only: each player's effective targets, one row of f
        # slots per player filled left to right (the tally says how many
        # are set), for the distinct-object check. SINGLE needs only the
        # tally, MUTABLE only the current vote.
        self._targets: Optional[np.ndarray] = (
            np.zeros((n_players, max_votes_per_player), dtype=np.int64)
            if mode is VoteMode.MULTI
            else None
        )

        # Per-horizon query memo, invalidated on every effective record.
        # Within one round the engine, tracker, and advice resolution all
        # query the same horizon; the memo collapses those repeats. The
        # memo is *bounded*: engines query monotonically-advancing
        # horizons, so when a strictly newer horizon arrives, entries for
        # older horizons are evicted (see _note_horizon). Full-ledger
        # queries (horizon None) are kept — they are invalidated by
        # appends, not superseded by later horizons.
        self._memo: Dict[tuple, np.ndarray] = {}
        self._memo_horizon = -1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, post: Post) -> bool:
        """Observe a vote post; return whether it was *effective*.

        Non-vote posts must not be passed here (the board filters).
        """
        return self._record_one(post.round_no, post.player, post.object_id)

    def _record_one(self, round_no: int, player: int, obj: int) -> bool:
        if self.mode is VoteMode.MUTABLE:
            # Latest vote is current; a repeat of the same object is a
            # no-op for the current pointer but does not add a new entry.
            if self._current_vote[player] == obj:
                return False
        else:
            count = int(self._vote_counts[player])
            if count >= self.max_votes_per_player:
                return False  # excess votes are ignored by readers
            if self._targets is not None:
                row = self._targets[player]
                if (row[:count] == obj).any():
                    return False  # duplicate vote for the same object
                row[count] = obj
        self._rounds.append(round_no)
        self._players.append(player)
        self._objects.append(obj)
        self._current_vote[player] = obj
        self._vote_counts[player] += 1
        self._memo.clear()
        return True

    def record_block(
        self, round_no: int, players: np.ndarray, objects: np.ndarray
    ) -> np.ndarray:
        """Observe a same-round block of vote posts, in order.

        Equivalent to calling :meth:`record` once per ``(player, object)``
        pair; returns the per-post effectiveness mask. In ``SINGLE`` mode
        the whole block is resolved vectorized — this is the batched
        engine's hot path for adversaries that flood thousands of votes in
        one round. The other modes fall back to the per-post rule.

        An empty block is an explicit no-op: no state is touched, the
        memo survives, and an empty boolean mask is returned.
        """
        players = np.asarray(players, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        if players.shape != objects.shape:
            raise ConfigurationError(
                "record_block needs parallel player/object arrays, got "
                f"shapes {players.shape} and {objects.shape}"
            )
        if players.size == 0:
            return np.zeros(0, dtype=bool)
        if self.mode is not VoteMode.SINGLE or players.size < 2:
            return np.array(
                [
                    self._record_one(round_no, int(p), int(o))
                    for p, o in zip(players, objects)
                ],
                dtype=bool,
            )
        # SINGLE: a vote is effective iff the player has no prior vote
        # and this is the player's first vote within the block.
        no_prior = self._current_vote[players] == -1
        first_in_block = np.zeros(players.size, dtype=bool)
        _uniq, first = np.unique(players, return_index=True)
        first_in_block[first] = True
        effective = no_prior & first_in_block
        if effective.any():
            eff_players = players[effective]
            eff_objects = objects[effective]
            self._rounds.extend(np.full(eff_players.size, round_no, np.int64))
            self._players.extend(eff_players)
            self._objects.extend(eff_objects)
            self._current_vote[eff_players] = eff_objects
            self._vote_counts[eff_players] += 1
            self._memo.clear()
        return effective

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def effective_vote_count(self) -> int:
        """Total number of effective votes recorded so far."""
        return len(self._objects)

    def votes_of(self, player: int) -> Tuple[int, ...]:
        """All effective vote targets of ``player``, in posting order.

        A scan of the effective-vote columns: readers in the engines use
        the vectorized queries below, and only audits ask per player.
        """
        mine = self._players.view() == player
        return tuple(self._objects.view()[mine].tolist())

    def current_vote_array(self, before_round: Optional[int] = None) -> np.ndarray:
        """Each player's current advice target (``-1`` when none).

        With ``before_round`` given, only votes posted in rounds strictly
        earlier than ``before_round`` are considered — this is the honest
        player's view at the start of that round. Without it, the full
        ledger state (the adversary's end-of-round view) is returned.

        In ``MULTI`` mode the *first* vote is the advice target; Section 4.1
        only needs one of the honest player's votes to be correct, and the
        first is the one cast by the protocol itself.
        """
        key = ("current", before_round)
        cached = self._memo.get(key)
        if cached is not None:
            return cached.copy()
        if before_round is not None:
            self._note_horizon(before_round)
        if before_round is None:
            if self.mode is VoteMode.MULTI:
                result = self._first_vote_array(len(self._objects))
            else:
                result = self._current_vote.copy()
        else:
            cutoff = self._count_before(before_round)
            if self.mode is VoteMode.MULTI:
                result = self._first_vote_array(cutoff)
            else:
                # The latest vote before the cutoff wins (MUTABLE); in
                # SINGLE mode there is at most one vote per player.
                result = self._last_vote_array(cutoff)
        self._memo[key] = result
        return result.copy()

    def _first_vote_array(self, cutoff: int) -> np.ndarray:
        result = np.full(self.n_players, -1, dtype=np.int64)
        players = self._players.view()[:cutoff]
        if players.size:
            uniq, first = np.unique(players, return_index=True)
            result[uniq] = self._objects.view()[:cutoff][first]
        return result

    def _last_vote_array(self, cutoff: int) -> np.ndarray:
        result = np.full(self.n_players, -1, dtype=np.int64)
        players = self._players.view()[:cutoff][::-1]
        if players.size:
            # First occurrence in the reversed column = last vote overall.
            uniq, first = np.unique(players, return_index=True)
            result[uniq] = self._objects.view()[:cutoff][::-1][first]
        return result

    def objects_with_votes(self, before_round: Optional[int] = None) -> np.ndarray:
        """Sorted ids of objects having at least one effective vote.

        This is the candidate pool ``S`` of Step 1.2 of ATTEMPT.
        """
        key = ("objects", before_round)
        cached = self._memo.get(key)
        if cached is not None:
            return cached.copy()
        if before_round is not None:
            self._note_horizon(before_round)
        if before_round is None:
            cutoff = len(self._objects)
        else:
            cutoff = self._count_before(before_round)
        result = np.unique(self._objects.view()[:cutoff])
        self._memo[key] = result
        return result.copy()

    def counts_in_window(self, start_round: int, end_round: int) -> np.ndarray:
        """Effective votes per object posted in rounds ``[start, end)``.

        This realizes the shared variable ``l_t(i)`` of Figure 1: "the
        number of votes object *i* receives in iteration *t*", where the
        iteration is identified with its round window. Returns an array of
        length ``n_objects``.

        In ``MUTABLE`` mode a player that switched votes several times
        within the window contributes only its final switch.
        """
        if end_round < start_round:
            raise ConfigurationError(
                f"empty-negative window [{start_round}, {end_round})"
            )
        key = ("window", start_round, end_round)
        cached = self._memo.get(key)
        if cached is not None:
            return cached.copy()
        self._note_horizon(end_round)
        rounds = self._rounds.view()
        lo = int(np.searchsorted(rounds, start_round, side="left"))
        hi = int(np.searchsorted(rounds, end_round, side="left"))
        objects = self._objects.view()[lo:hi]
        if self.mode is VoteMode.MUTABLE and objects.size:
            players = self._players.view()[lo:hi][::-1]
            _uniq, first = np.unique(players, return_index=True)
            objects = objects[::-1][first]
        if objects.size:
            counts = np.bincount(
                objects, minlength=self.n_objects
            ).astype(np.int64, copy=False)
        else:
            counts = np.zeros(self.n_objects, dtype=np.int64)
        self._memo[key] = counts
        return counts.copy()

    def votes_cast_by(self, players: np.ndarray) -> int:
        """Total effective votes cast by the given player ids.

        Used by tests to check the dishonest vote budget of Lemma 7:
        at most ``(1 - α)n`` effective dishonest votes ever (``f`` times
        that in MULTI mode).
        """
        ids = np.asarray(players, dtype=np.int64)
        if ids.size == 0:
            return 0
        return int(self._vote_counts[ids].sum())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note_horizon(self, horizon: int) -> None:
        """Bound the memo: evict entries for horizons older than the
        newest horizon queried.

        Engines query horizons that only ever advance (the current
        round), so entries keyed by an older horizon will not be asked
        for again; without eviction a long ``strict=False`` run grows the
        memo by a few entries per round without bound. An out-of-order
        (older) query after eviction merely recomputes — never stale.
        """
        if horizon <= self._memo_horizon:
            return
        self._memo_horizon = horizon
        stale = [
            key
            for key in self._memo
            if (h := key[-1]) is not None and h < horizon
        ]
        for key in stale:
            del self._memo[key]
    def _count_before(self, before_round: int) -> int:
        """Number of effective votes posted strictly before ``before_round``.

        Rounds are appended in non-decreasing order, so binary search is
        exact.
        """
        return int(
            np.searchsorted(self._rounds.view(), before_round, side="left")
        )
