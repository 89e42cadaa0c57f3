"""Lane-vectorized fault injection for the batched engine.

The batched engine (:mod:`repro.sim.batch_engine`) advances ``K``
independent trials — lanes — in lockstep. :class:`BatchedFaultInjector`
is the lane-indexed counterpart of
:class:`~repro.faults.injector.FaultInjector`: one scalar injector per
lane (or ``None`` for lanes with no faults — a ``None`` or null plan),
each bound to that lane's pinned *fourth* per-trial rng stream.

Equivalence contract, mirroring the batched strategy/adversary layers:
for each lane the fault *decisions* are drawn through the scalar
injector's own code — the same streams, consumed in the scalar engine's
exact per-round order (restarts → crashes → post filtering) — so a
lane's fault realization is bit-identical to a scalar run of the same
trial. What is batched is the *state application*: crashes and restarts
land on the engine's ``(K, n)`` ``active``/``down_until``/``halted_round``
arrays as single fancy-indexed scatters across all lanes, and post
filtering stays array-native end to end
(:meth:`~repro.faults.injector.FaultInjector.keep_mask` into
:meth:`~repro.billboard.columnar.ColumnarBoard.post_block`).

Because each lane carries its own injector, lanes of one batch may run
*different* fault plans — the substrate for grid lanes, where one round
loop serves many experiment cells of a sweep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector

if TYPE_CHECKING:  # imported lazily to avoid a package-level cycle
    from repro.strategies.batched import BatchedStrategy


class BatchedFaultInjector:
    """``K`` per-lane fault realizations advanced in lockstep.

    Parameters
    ----------
    injectors:
        One :class:`FaultInjector` per lane, or ``None`` for lanes that
        run fault-free (bit-identical to no fault layer, matching the
        scalar runner's treatment of absent/null plans).
    """

    def __init__(
        self, injectors: Sequence[Optional[FaultInjector]]
    ) -> None:
        if not injectors:
            raise ConfigurationError(
                "BatchedFaultInjector needs at least one lane"
            )
        self._injectors: List[Optional[FaultInjector]] = list(injectors)
        self.n_lanes = len(self._injectors)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear per-run state on every lane (engine calls at run start)."""
        for injector in self._injectors:
            if injector is not None:
                injector.reset()

    # ------------------------------------------------------------------
    # Round start: restarts
    # ------------------------------------------------------------------
    def round_start(
        self,
        round_no: int,
        alive: np.ndarray,
        active: np.ndarray,
        down_until: np.ndarray,
        strategy: "BatchedStrategy",
    ) -> None:
        """Round-start fault effect for every still-alive lane.

        Every player whose downtime has elapsed rejoins: one ``(K, n)``
        masked scatter flips ``down_until``/``active``, and the strategy
        is notified per lane in lane order — the scalar engine's restart
        semantics, lane by lane.
        """
        due_mask = down_until == round_no
        due_mask[~alive, :] = False
        if not due_mask.any():
            return
        down_until[due_mask] = -1
        active |= due_mask
        for k in np.flatnonzero(due_mask.any(axis=1)):
            k = int(k)
            restarts = np.flatnonzero(due_mask[k])
            injector = self._injectors[k]
            assert injector is not None  # down players imply an injector
            injector.note_restarts(restarts)
            strategy.on_player_restart(k, round_no, restarts)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def apply_crashes(
        self,
        round_no: int,
        lanes: Sequence[int],
        active: np.ndarray,
        halted_round: np.ndarray,
        down_until: np.ndarray,
    ) -> None:
        """Draw crash coins per lane, apply them in one batched scatter.

        Coins come from each lane's own injector (in lane order, exactly
        the scalar draw); permanent crashes halt the player, restartable
        ones book a comeback round — all lanes' effects land on the
        ``(K, n)`` state arrays with one fancy-indexed assignment per
        field.
        """
        lane_parts: List[np.ndarray] = []
        player_parts: List[np.ndarray] = []
        down_parts: List[np.ndarray] = []
        for k in lanes:
            injector = self._injectors[k]
            if injector is None:
                continue
            crashed = injector.crash_coins(round_no, np.flatnonzero(active[k]))
            if crashed.size:
                lane_parts.append(np.full(crashed.size, k, dtype=np.int64))
                player_parts.append(crashed)
                restart_after = injector.plan.restart_after
                down_parts.append(
                    np.full(
                        crashed.size,
                        -1
                        if restart_after is None
                        else round_no + restart_after,
                        dtype=np.int64,
                    )
                )
        if not lane_parts:
            return
        lane_idx = np.concatenate(lane_parts)
        players = np.concatenate(player_parts)
        downs = np.concatenate(down_parts)
        active[lane_idx, players] = False
        permanent = downs < 0
        halted_round[lane_idx[permanent], players[permanent]] = round_no
        down_until[lane_idx[~permanent], players[~permanent]] = downs[
            ~permanent
        ]

    # ------------------------------------------------------------------
    # Lossy billboard
    # ------------------------------------------------------------------
    def filter_block(
        self,
        lane: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Filter one lane's same-kind post block; returns the delivered
        sub-block (see :meth:`FaultInjector.keep_mask`)."""
        injector = self._injectors[lane]
        keep = (
            None if injector is None else injector.keep_mask(players.shape[0])
        )
        if keep is None:
            return players, objects, values
        return players[keep], objects[keep], values[keep]

    # ------------------------------------------------------------------
    def info(self, lane: int) -> Dict[str, int]:
        """Lane ``lane``'s fault realization summary (``{}`` when the
        lane ran fault-free, matching the scalar engine)."""
        injector = self._injectors[lane]
        return injector.info() if injector is not None else {}

    def info_total(self) -> Dict[str, int]:
        """Counts summed across all faulted lanes (for the ``faults.*``
        obs fold — equals the sum of ``K`` scalar runs' folds)."""
        total: Dict[str, int] = {}
        for injector in self._injectors:
            if injector is None:
                continue
            for key, value in injector.info().items():
                total[key] = total.get(key, 0) + int(value)
        return total
