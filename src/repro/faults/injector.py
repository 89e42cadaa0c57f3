"""Deterministic fault decisions for one run.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to one dedicated rng stream — the runner hands it the pinned *fourth*
per-trial stream (reserved as a spare since the parallel-runner PR), so
enabling faults never shifts the world/honest/adversary streams and a
null plan is bit-identical to no fault layer at all.

The injector is a decision oracle plus a delayed-post queue; the engines
own all game state (who is active, what is on the board) and translate
decisions into effects and trace events. All decisions are drawn in a
fixed per-round order (delivery → restarts → crashes → post filtering →
observation noise), so for a given plan and seed the fault realization
is identical run-to-run, serial or parallel, traced or not.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.faults.plan import FaultPlan
from repro.world.valuemodel import PerturbedValueModel, ValueModel

#: a billboard entry as the engines build them: (player, object, value, kind)
PostEntry = TypeVar("PostEntry", bound=tuple)


class FaultInjector:
    """Turn a fault plan into concrete, seed-reproducible decisions.

    Parameters
    ----------
    plan:
        The declarative fault description.
    rng:
        A generator dedicated to fault decisions (the per-trial spare
        stream when driven by the runner). The injector is the stream's
        only consumer.
    """

    def __init__(self, plan: FaultPlan, rng: np.random.Generator) -> None:
        self.plan = plan
        self.rng = rng
        #: delayed posts keyed by delivery round
        self._queue: Dict[int, List[tuple]] = {}
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear per-run state (the engines call this at run start)."""
        self._queue.clear()
        self.counts = {
            "dropped_posts": 0,
            "delayed_posts": 0,
            "crashes": 0,
            "restarts": 0,
        }

    # ------------------------------------------------------------------
    # Lossy billboard
    # ------------------------------------------------------------------
    def filter_posts(
        self, round_no: int, entries: Sequence[tuple]
    ) -> Tuple[List[tuple], List[tuple], List[Tuple[int, tuple]]]:
        """Decide each post's fate: delivered now, dropped, or delayed.

        Returns ``(delivered, dropped, delayed)``; ``delayed`` pairs each
        entry with its delivery round, and the entry is queued internally
        until :meth:`due_posts` releases it. One uniform draw decides
        drop-vs-delay-vs-deliver per entry, so the stream advances by
        exactly ``len(entries)`` draws plus one batch of delay lengths.
        """
        loss = self.plan.post_loss_rate
        delay = self.plan.post_delay_rate
        if not entries or (loss == 0.0 and delay == 0.0):
            return list(entries), [], []
        u = self.rng.random(len(entries))
        delivered: List[tuple] = []
        dropped: List[tuple] = []
        delayed_entries: List[tuple] = []
        for entry, coin in zip(entries, u):
            if coin < loss:
                dropped.append(entry)
            elif coin < loss + delay:
                delayed_entries.append(entry)
            else:
                delivered.append(entry)
        delayed: List[Tuple[int, tuple]] = []
        if delayed_entries:
            lags = self.rng.integers(
                1, self.plan.max_post_delay + 1, size=len(delayed_entries)
            )
            for entry, lag in zip(delayed_entries, lags):
                deliver_at = round_no + int(lag)
                self._queue.setdefault(deliver_at, []).append(entry)
                delayed.append((deliver_at, entry))
        self.counts["dropped_posts"] += len(dropped)
        self.counts["delayed_posts"] += len(delayed)
        return delivered, dropped, delayed

    def delivery_rounds(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kind: Any,
    ) -> np.ndarray:
        """Array-native :meth:`filter_posts` for one same-kind post block.

        Returns the round each post lands: ``round_no`` when delivered
        now, a later round when delayed (the post is queued, as a tuple,
        until :meth:`due_posts` releases it), ``-1`` when dropped. The
        decisions come from the identical stream position — one
        ``random(len(block))`` batch, then one batch of delay lengths —
        and fill the same queue in block order, so the fault realization
        is bit-for-bit :meth:`filter_posts`'s.
        """
        loss = self.plan.post_loss_rate
        delay = self.plan.post_delay_rate
        size = int(players.shape[0])
        fates = np.full(size, round_no, dtype=np.int64)
        if size == 0 or (loss == 0.0 and delay == 0.0):
            return fates
        u = self.rng.random(size)
        dropped = u < loss
        delayed = np.flatnonzero(~dropped & (u < loss + delay))
        fates[dropped] = -1
        if delayed.size:
            fates[delayed] += self.rng.integers(
                1, self.plan.max_post_delay + 1, size=delayed.size
            )
            for i in delayed.tolist():
                self._queue.setdefault(int(fates[i]), []).append(
                    (
                        int(players[i]),
                        int(objects[i]),
                        float(values[i]),
                        kind,
                    )
                )
        self.counts["dropped_posts"] += int(np.count_nonzero(dropped))
        self.counts["delayed_posts"] += int(delayed.size)
        return fates

    def filter_post_arrays(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kind: Any,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(players, objects, values)`` of a block that
        :meth:`delivery_rounds` delivers this round (the lanes' filter)."""
        now = (
            self.delivery_rounds(round_no, players, objects, values, kind)
            == round_no
        )
        return players[now], objects[now], values[now]

    def due_posts(self, round_no: int) -> List[tuple]:
        """Release the delayed posts scheduled to land this round."""
        return self._queue.pop(round_no, [])

    @property
    def pending_posts(self) -> int:
        """Delayed posts still in flight (undelivered at run end = lost)."""
        return sum(len(batch) for batch in self._queue.values())

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def crash_coins(self, round_no: int, player_ids: np.ndarray) -> np.ndarray:
        """Which of ``player_ids`` crash this round.

        Draws one coin per candidate (a single vectorized batch), so the
        stream advances by ``player_ids.size`` regardless of outcomes.
        """
        if self.plan.crash_rate == 0.0 or player_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        mask = self.rng.random(player_ids.size) < self.plan.crash_rate
        crashed = player_ids[mask]
        self.counts["crashes"] += int(crashed.size)
        return crashed

    def note_restarts(self, player_ids: np.ndarray) -> None:
        """Book restarts for the fault summary (no randomness involved)."""
        self.counts["restarts"] += int(player_ids.size)

    # ------------------------------------------------------------------
    # Observation noise
    # ------------------------------------------------------------------
    def wrap_value_model(self, inner: ValueModel) -> ValueModel:
        """Wrap ``inner`` with the plan's observation noise (or pass it
        through untouched when the noise rate is zero)."""
        if self.plan.observation_noise_rate == 0.0:
            return inner
        return PerturbedValueModel(
            inner,
            rng=self.rng,
            noise_rate=self.plan.observation_noise_rate,
            noise=self.plan.observation_noise,
        )

    # ------------------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        """Fault realization summary (folded into run diagnostics)."""
        return {**self.counts, "undelivered_posts": self.pending_posts}
