"""Sparse columnar billboard substrate for population-scale worlds.

The dense substrate (:class:`~repro.billboard.votes.VoteLedger` inside
:class:`~repro.billboard.board.Billboard`) allocates O(n) per-player
state up front — an ``n``-list vote table, ``(n,)`` current-vote and
vote-count arrays — and the scalar board materializes a :class:`Post`
object plus a hash-chain field snapshot per post. None of that matters
at the paper's original n ≤ 4096; at n = 10^5–10^6 it dominates RSS,
because in any one round only the *active* players post.

This module stores everything proportionally to what actually happened:

* :class:`SparseVoteLedger` — the same reader-side vote rules as
  :class:`VoteLedger` (all three :class:`VoteMode` values), with the
  effective-vote log **sharded by object id**. Each shard holds
  ``(seq, round, player, object)`` quadruples in growable
  :class:`~repro.billboard.votes._IntColumn` storage plus a compact
  per-shard first-vote/latest-vote index; per-player state lives in
  dicts keyed only by players who voted. Dense ``(n,)``/``(m,)`` query
  *results* are materialized on demand (and memoized per horizon,
  exactly like the dense ledger), so every query returns arrays
  bit-identical to the dense ledger's.
* The post log itself is
  :class:`~repro.billboard.columnar.ColumnarBoard`, which carries a
  :class:`SparseVoteLedger` when built with ``substrate="sparse"``.

The ``substrate`` knob (``auto``/``dense``/``sparse``) selects the
ledger; in the scalar engine and the serving layer ``sparse`` also
swaps the Post-object :class:`~repro.billboard.board.Billboard` for the
columnar board, which lanes use either way. ``auto`` picks sparse at or
above :data:`SPARSE_AUTO_THRESHOLD` players. Selection is
**bit-inert**: for the same seed both substrates produce identical
:class:`~repro.sim.metrics.RunMetrics`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import Post
from repro.billboard.votes import VoteMode, _IntColumn
from repro.errors import ConfigurationError

#: ``substrate="auto"`` picks the sparse substrate at or above this many
#: players. Below it the dense ledger is smaller and faster: on the
#: benchmark's lanes_grid cells (n=4096, 32 lanes, the same columnar
#: board either way) it ran 1.7-2.0x faster at 96 MB against 115 MB
#: peak RSS (docs/performance.md, "The substrate knob"). Above it the
#: O(n) per-player state dominates RSS (BENCH_scale.json).
SPARSE_AUTO_THRESHOLD = 32_768

#: valid values of the ``substrate`` knob, in documentation order
SUBSTRATE_CHOICES: Tuple[str, ...] = ("auto", "dense", "sparse")

#: default shard count for :class:`SparseVoteLedger` (clamped to m)
DEFAULT_SHARDS = 64


def normalize_substrate(substrate: Optional[str]) -> str:
    """Validate a ``substrate`` knob value; ``None`` means ``auto``."""
    if substrate is None:
        return "auto"
    name = str(substrate).strip().lower()
    if name not in SUBSTRATE_CHOICES:
        raise ConfigurationError(
            f"substrate must be one of {', '.join(SUBSTRATE_CHOICES)}; "
            f"got {substrate!r}"
        )
    return name


def choose_substrate(substrate: Optional[str], n_players: int) -> str:
    """Resolve the knob to a concrete substrate (``dense``/``sparse``).

    ``auto`` (and ``None``) picks ``sparse`` at or above
    :data:`SPARSE_AUTO_THRESHOLD` players, ``dense`` below it. The
    choice never affects results — only memory and speed.
    """
    name = normalize_substrate(substrate)
    if name != "auto":
        return name
    return "sparse" if n_players >= SPARSE_AUTO_THRESHOLD else "dense"


class _LedgerShard:
    """One object-id shard of a :class:`SparseVoteLedger`.

    Holds the shard's effective votes as parallel ``(seq, round,
    player, object)`` columns — ``seq`` is the ledger-global effective
    vote index, which is what lets cross-shard queries reconstruct the
    exact global append order — plus a compact first-vote/latest-vote
    index per object (``obj -> first round`` and ``obj -> latest
    seq``).
    """

    __slots__ = ("seqs", "rounds", "players", "objects",
                 "first_vote", "latest_vote")

    def __init__(self) -> None:
        self.seqs = _IntColumn(16)
        self.rounds = _IntColumn(16)
        self.players = _IntColumn(16)
        self.objects = _IntColumn(16)
        #: object id -> round of its first effective vote
        self.first_vote: Dict[int, int] = {}
        #: object id -> global seq of its latest effective vote
        self.latest_vote: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.seqs)

    def cut(self, before_round: Optional[int]) -> int:
        """Index of the first vote at or past ``before_round`` (shard
        rounds are non-decreasing, so binary search is exact)."""
        if before_round is None:
            return len(self.seqs)
        return int(
            np.searchsorted(self.rounds.view(), before_round, side="left")
        )

    def window(self, start_round: int, end_round: int) -> Tuple[int, int]:
        """Half-open index range of votes in rounds ``[start, end)``."""
        rounds = self.rounds.view()
        lo = int(np.searchsorted(rounds, start_round, side="left"))
        hi = int(np.searchsorted(rounds, end_round, side="left"))
        return lo, hi


class SparseVoteLedger:
    """Sharded, sparse drop-in for :class:`~repro.billboard.votes.VoteLedger`.

    Same constructor, same recording methods, same queries, same
    per-horizon memo semantics — and bit-identical query results for
    all three vote modes (pinned by the sparse≡dense parity suite).
    The difference is purely representational: per-player state lives
    in dicts holding only players that cast effective votes, and the
    effective-vote log is sharded by object id, so resident memory
    scales with votes cast rather than with ``n``.
    """

    def __init__(
        self,
        n_players: int,
        n_objects: int,
        mode: VoteMode = VoteMode.SINGLE,
        max_votes_per_player: int = 1,
        n_shards: int = DEFAULT_SHARDS,
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
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        self.n_players = n_players
        self.n_objects = n_objects
        self.mode = mode
        self.max_votes_per_player = max_votes_per_player
        self.n_shards = min(int(n_shards), n_objects)
        self._shards = [_LedgerShard() for _ in range(self.n_shards)]

        # Per-player state, sparse: only players with >= 1 effective
        # vote appear. (The dense ledger's n-list table and (n,) arrays
        # are exactly what RPL010 bans from this module.)
        self._targets: Dict[int, List[int]] = {}
        self._current: Dict[int, int] = {}
        self._counts: Dict[int, int] = {}

        #: total effective votes recorded (the next global seq)
        self._n_votes = 0

        # Round run-length index: _round_vals is the strictly increasing
        # list of rounds carrying >= 1 effective vote; _round_cums[i] is
        # the number of effective votes in rounds <= _round_vals[i].
        # Together they answer _count_before in O(log #rounds) without a
        # per-vote global column.
        self._round_vals: List[int] = []
        self._round_cums: List[int] = []

        # Per-horizon query memo with high-water eviction — the same
        # policy as the dense ledger (see VoteLedger._note_horizon).
        self._memo: Dict[tuple, np.ndarray] = {}
        self._memo_horizon = -1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, post: Post) -> bool:
        """Observe a vote post; return whether it was *effective*."""
        return self._record_one(post.round_no, post.player, post.object_id)

    def _record_one(self, round_no: int, player: int, obj: int) -> bool:
        player = int(player)
        obj = int(obj)
        targets = self._targets.get(player)
        if self.mode is VoteMode.MUTABLE:
            if targets and targets[-1] == obj:
                return False
            if targets is None:
                self._targets[player] = [obj]
            else:
                targets.append(obj)
        else:
            if targets is not None:
                if len(targets) >= self.max_votes_per_player:
                    return False  # excess votes are ignored by readers
                if obj in targets:
                    return False  # duplicate vote for the same object
                targets.append(obj)
            else:
                self._targets[player] = [obj]
        self._append_effective(round_no, player, obj)
        return True

    def _append_effective(self, round_no: int, player: int, obj: int) -> None:
        seq = self._n_votes
        shard = self._shards[obj % self.n_shards]
        shard.seqs.append(seq)
        shard.rounds.append(round_no)
        shard.players.append(player)
        shard.objects.append(obj)
        shard.first_vote.setdefault(obj, round_no)
        shard.latest_vote[obj] = seq
        self._current[player] = obj
        self._counts[player] = self._counts.get(player, 0) + 1
        self._n_votes = seq + 1
        if self._round_vals and self._round_vals[-1] == round_no:
            self._round_cums[-1] = self._n_votes
        else:
            self._round_vals.append(round_no)
            self._round_cums.append(self._n_votes)
        self._memo.clear()

    def record_block(
        self, round_no: int, players: np.ndarray, objects: np.ndarray
    ) -> np.ndarray:
        """Observe a same-round block of vote posts, in order.

        Same contract as :meth:`VoteLedger.record_block` — an empty
        block is an explicit no-op, and the ``SINGLE``-mode fast path
        resolves the whole block vectorized.
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
        # SINGLE: effective iff the player has no prior vote and this is
        # the player's first vote within the block (the dense ledger's
        # rule, with the dict standing in for the (n,) current array).
        current = self._current
        no_prior = np.fromiter(
            (int(p) not in current for p in players),
            dtype=bool,
            count=players.size,
        )
        first_in_block = np.zeros(players.size, dtype=bool)
        _uniq, first = np.unique(players, return_index=True)
        first_in_block[first] = True
        effective = no_prior & first_in_block
        if effective.any():
            eff_players = players[effective]
            eff_objects = objects[effective]
            base = self._n_votes
            seqs = np.arange(base, base + eff_players.size, dtype=np.int64)
            shard_ids = eff_objects % self.n_shards
            for s in np.unique(shard_ids):
                mask = shard_ids == s
                shard = self._shards[int(s)]
                shard.seqs.extend(seqs[mask])
                shard.rounds.extend(
                    np.full(int(mask.sum()), round_no, np.int64)
                )
                shard.players.extend(eff_players[mask])
                shard.objects.extend(eff_objects[mask])
            for p, o, q in zip(eff_players, eff_objects, seqs):
                player, obj, seq = int(p), int(o), int(q)
                self._targets[player] = [obj]
                current[player] = obj
                self._counts[player] = self._counts.get(player, 0) + 1
                shard = self._shards[obj % self.n_shards]
                shard.first_vote.setdefault(obj, round_no)
                shard.latest_vote[obj] = seq
            self._n_votes = base + eff_players.size
            if self._round_vals and self._round_vals[-1] == round_no:
                self._round_cums[-1] = self._n_votes
            else:
                self._round_vals.append(round_no)
                self._round_cums.append(self._n_votes)
            self._memo.clear()
        return effective

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def effective_vote_count(self) -> int:
        """Total number of effective votes recorded so far."""
        return self._n_votes

    def votes_of(self, player: int) -> Tuple[int, ...]:
        """All effective vote targets of ``player``, in posting order."""
        return tuple(self._targets.get(int(player), ()))

    def _gather(
        self, before_round: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(players, objects) of effective votes before the horizon, in
        global append order (reconstructed by merging shards on seq)."""
        seq_parts: List[np.ndarray] = []
        player_parts: List[np.ndarray] = []
        object_parts: List[np.ndarray] = []
        for shard in self._shards:
            hi = shard.cut(before_round)
            if hi:
                seq_parts.append(shard.seqs.view()[:hi])
                player_parts.append(shard.players.view()[:hi])
                object_parts.append(shard.objects.view()[:hi])
        if not seq_parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        seqs = np.concatenate(seq_parts)
        order = np.argsort(seqs, kind="stable")
        return (
            np.concatenate(player_parts)[order],
            np.concatenate(object_parts)[order],
        )

    def current_vote_array(self, before_round: Optional[int] = None) -> np.ndarray:
        """Each player's current advice target (``-1`` when none).

        Semantics are :meth:`VoteLedger.current_vote_array`'s, array for
        array. The dense ``(n,)`` result is materialized on demand from
        the sparse state (and memoized per horizon); it is a transient
        query result, not resident ledger state.
        """
        key = ("current", before_round)
        cached = self._memo.get(key)
        if cached is not None:
            return cached.copy()
        if before_round is not None:
            self._note_horizon(before_round)
        # A dense (n,) *query result* materialized on demand and memoized
        # per horizon — transient, not resident per-player ledger state.
        result = np.full(self.n_players, -1, dtype=np.int64)  # repro: noqa=RPL010(on-demand query result)
        if before_round is None:
            if self.mode is VoteMode.MULTI:
                for player, targets in self._targets.items():
                    result[player] = targets[0]
            elif self._current:
                result[
                    np.fromiter(
                        self._current.keys(),
                        dtype=np.int64,
                        count=len(self._current),
                    )
                ] = np.fromiter(
                    self._current.values(),
                    dtype=np.int64,
                    count=len(self._current),
                )
        else:
            players, objects = self._gather(before_round)
            if players.size:
                if self.mode is VoteMode.MULTI:
                    uniq, first = np.unique(players, return_index=True)
                    result[uniq] = objects[first]
                else:
                    # latest vote before the cutoff wins (MUTABLE); in
                    # SINGLE mode there is at most one vote per player
                    uniq, first = np.unique(players[::-1], return_index=True)
                    result[uniq] = objects[::-1][first]
        self._memo[key] = result
        return result.copy()

    def objects_with_votes(self, before_round: Optional[int] = None) -> np.ndarray:
        """Sorted ids of objects having at least one effective vote."""
        key = ("objects", before_round)
        cached = self._memo.get(key)
        if cached is not None:
            return cached.copy()
        if before_round is not None:
            self._note_horizon(before_round)
        if before_round is None:
            # served straight from the per-shard first-vote indexes
            parts = [
                np.fromiter(
                    shard.first_vote.keys(),
                    dtype=np.int64,
                    count=len(shard.first_vote),
                )
                for shard in self._shards
                if shard.first_vote
            ]
        else:
            parts = []
            for shard in self._shards:
                hi = shard.cut(before_round)
                if hi:
                    parts.append(shard.objects.view()[:hi])
        if parts:
            result = np.unique(np.concatenate(parts))
        else:
            result = np.zeros(0, dtype=np.int64)
        self._memo[key] = result
        return result.copy()

    def counts_in_window(self, start_round: int, end_round: int) -> np.ndarray:
        """Effective votes per object posted in rounds ``[start, end)``.

        Bit-identical to :meth:`VoteLedger.counts_in_window`, including
        the ``MUTABLE`` rule that a player switching several times in
        the window contributes only its final switch (which needs the
        global order, reconstructed from the per-shard seq columns).
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
        if self.mode is VoteMode.MUTABLE:
            seq_parts: List[np.ndarray] = []
            player_parts: List[np.ndarray] = []
            object_parts: List[np.ndarray] = []
            for shard in self._shards:
                lo, hi = shard.window(start_round, end_round)
                if hi > lo:
                    seq_parts.append(shard.seqs.view()[lo:hi])
                    player_parts.append(shard.players.view()[lo:hi])
                    object_parts.append(shard.objects.view()[lo:hi])
            if seq_parts:
                order = np.argsort(np.concatenate(seq_parts), kind="stable")
                players = np.concatenate(player_parts)[order][::-1]
                objects = np.concatenate(object_parts)[order]
                _uniq, first = np.unique(players, return_index=True)
                objects = objects[::-1][first]
            else:
                objects = np.zeros(0, dtype=np.int64)
        else:
            parts: List[np.ndarray] = []
            for shard in self._shards:
                lo, hi = shard.window(start_round, end_round)
                if hi > lo:
                    parts.append(shard.objects.view()[lo:hi])
            objects = (
                np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
            )
        if objects.size:
            counts = np.bincount(
                objects, minlength=self.n_objects
            ).astype(np.int64, copy=False)
        else:
            counts = np.zeros(self.n_objects, dtype=np.int64)
        self._memo[key] = counts
        return counts.copy()

    def votes_cast_by(self, players: np.ndarray) -> int:
        """Total effective votes cast by the given player ids."""
        ids = np.asarray(players, dtype=np.int64)
        counts = self._counts
        return sum(counts.get(int(p), 0) for p in ids)

    def shard_sizes(self) -> List[int]:
        """Effective votes per shard (observability/bench reporting)."""
        return [len(shard) for shard in self._shards]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note_horizon(self, horizon: int) -> None:
        """High-water memo eviction — :meth:`VoteLedger._note_horizon`."""
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
        """Number of effective votes posted strictly before the round."""
        idx = bisect_left(self._round_vals, before_round)
        return self._round_cums[idx - 1] if idx else 0


# Kept because perfbench/sims.py imports this name and wraps its
# append_many for per-layer attribution.
SparseBoard = ColumnarBoard
