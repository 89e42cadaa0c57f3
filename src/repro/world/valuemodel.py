"""Per-player observation models.

Probing object ``i`` reveals "its true value" to an honest player. The
Theorem 2 lower-bound construction, however, features dishonest players who
*follow the protocol* but whose reported probe outcomes are dictated by the
adversary ("the object values they report are the values dictated by the
adversarial strategy"). The cleanest way to express that is to give each
player its own observation function: the scripted players run the honest
code against a spoofed world.

The engine consults a :class:`ValueModel` for every probe, so the same
machinery also supports erroneous honest votes (Section 4.1) via noisy
models.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.world.objects import ObjectSpace


class ValueModel:
    """Base observation model: what value a given player sees for a probe."""

    def __init__(self, space: ObjectSpace) -> None:
        self.space = space

    def observe(self, player: int, object_id: int) -> float:
        """Value observed by ``player`` when probing ``object_id``."""
        raise NotImplementedError

    def observe_many(
        self, players: np.ndarray, objects: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`observe`; override for speed."""
        return np.array(
            [self.observe(int(p), int(o)) for p, o in zip(players, objects)],
            dtype=np.float64,
        )


class TrueValueModel(ValueModel):
    """Every player observes the ground-truth value (the default world)."""

    def observe(self, player: int, object_id: int) -> float:
        return float(self.space.values[object_id])

    def observe_many(
        self, players: np.ndarray, objects: np.ndarray
    ) -> np.ndarray:
        return self.space.values[np.asarray(objects, dtype=np.int64)]


class SpoofedValueModel(ValueModel):
    """Observations overridden per player by an adversary-chosen table.

    Parameters
    ----------
    space:
        The ground-truth object space (used for players without a spoof).
    spoofed_values:
        Mapping ``player -> array of shape (m,)`` giving the values that
        player observes; players absent from the mapping see the truth.
    """

    def __init__(
        self, space: ObjectSpace, spoofed_values: "dict[int, np.ndarray]"
    ) -> None:
        super().__init__(space)
        self._tables = {
            int(p): np.asarray(v, dtype=np.float64)
            for p, v in spoofed_values.items()
        }
        for player, table in self._tables.items():
            if table.shape != (space.m,):
                raise ValueError(
                    f"spoof table for player {player} has shape {table.shape}, "
                    f"expected ({space.m},)"
                )

    def observe(self, player: int, object_id: int) -> float:
        table = self._tables.get(player)
        if table is None:
            return float(self.space.values[object_id])
        return float(table[object_id])

    def observe_many(
        self, players: np.ndarray, objects: np.ndarray
    ) -> np.ndarray:
        objects = np.asarray(objects, dtype=np.int64)
        result = self.space.values[objects]
        for idx, player in enumerate(np.asarray(players, dtype=np.int64)):
            table = self._tables.get(int(player))
            if table is not None:
                result[idx] = table[objects[idx]]
        return result


class NoisyValueModel(ValueModel):
    """Honest-but-erring observations (Section 4.1, "erroneous votes").

    With probability ``error_rate`` a probe of a *bad* object is observed
    as if it had the value ``lure_value`` (typically above the local-testing
    threshold, producing an erroneous positive vote). Good objects are
    always observed correctly, matching the paper's requirement that at
    least one of an honest player's votes is correct — the protocol-level
    guard for that is the ``f``-vote extension in
    :mod:`repro.core.multivote`.
    """

    def __init__(
        self,
        space: ObjectSpace,
        rng: np.random.Generator,
        error_rate: float,
        lure_value: float,
    ) -> None:
        super().__init__(space)
        if not 0 <= error_rate < 1:
            raise ValueError(f"error_rate must be in [0, 1), got {error_rate}")
        self.rng = rng
        self.error_rate = error_rate
        self.lure_value = float(lure_value)

    def observe(self, player: int, object_id: int) -> float:
        true_value = float(self.space.values[object_id])
        if (
            not self.space.good_mask[object_id]
            and self.rng.random() < self.error_rate
        ):
            return self.lure_value
        return true_value

    def observe_many(
        self, players: np.ndarray, objects: np.ndarray
    ) -> np.ndarray:
        objects = np.asarray(objects, dtype=np.int64)
        result = self.space.values[objects].copy()
        bad = ~self.space.good_mask[objects]
        flips = self.rng.random(objects.shape[0]) < self.error_rate
        result[bad & flips] = self.lure_value
        return result


def constant_spoof_table(
    space: ObjectSpace, liked: np.ndarray, high: float = 1.0, low: float = 0.0
) -> np.ndarray:
    """Build a spoof table that reports ``high`` on ``liked`` objects.

    Convenience for the Theorem 2 construction, where players in partition
    ``P_k`` observe value 1 exactly on the object class ``O_k``.
    """
    table = np.full(space.m, low, dtype=np.float64)
    table[np.asarray(liked, dtype=np.int64)] = high
    return table


ValueFn = Callable[[int, int], float]
