"""Randomness plumbing.

All stochastic components of the library draw from :class:`numpy.random.Generator`
objects produced here. The design goals are:

* **Reproducibility** — a single integer seed determines an entire experiment,
  including every player's coin flips across every trial.
* **Independence** — distinct components (honest cohort, adversary, world
  generation, separate trials) receive *statistically independent* streams,
  derived through :class:`numpy.random.SeedSequence` spawning rather than
  ad-hoc seed arithmetic.

The paper's adaptive adversary is allowed to observe *past* coin flips but
never future ones (Section 2.3). Giving the adversary its own stream, plus
read access to realized history through the billboard, implements exactly
that information structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, Sequence[int], np.random.SeedSequence, None]


def make_seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Normalize ``seed`` into a :class:`numpy.random.SeedSequence`."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def make_generator(seed: SeedLike = None) -> np.random.Generator:
    """Create a PCG64 generator from any accepted seed form."""
    return np.random.Generator(np.random.PCG64(make_seed_sequence(seed)))


@dataclass
class RngFactory:
    """A spawnable source of independent random generators.

    A factory wraps one :class:`~numpy.random.SeedSequence` and hands out
    children deterministically. Two factories built from the same seed yield
    identical generator streams in the same spawn order, which is the
    property the engine's determinism tests rely on.

    The factory never spawns from the wrapped sequence, so the sequence's
    ``n_children_spawned`` stays where it was when the factory was built
    (numpy makes it read-only). Two factories over one sequence therefore
    hand out the same children; spawn from a sequence before wrapping it,
    not after.

    Example
    -------
    >>> factory = RngFactory.from_seed(7)
    >>> honest_rng = factory.spawn_generator()
    >>> adversary_rng = factory.spawn_generator()
    """

    seed_sequence: np.random.SeedSequence
    _spawned: int = field(default=0, repr=False)
    #: the wrapped sequence's ``n_children_spawned`` at construction
    _base: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._base = self.seed_sequence.n_children_spawned

    @classmethod
    def from_seed(cls, seed: SeedLike = None) -> "RngFactory":
        return cls(make_seed_sequence(seed))

    def spawn_sequence(self) -> np.random.SeedSequence:
        """Return the next independent child seed sequence.

        The k-th child (from 0) is ``seed_sequence.spawn(k + 1)[k]`` as
        if each earlier child had been taken the same way: k + 1 spawns
        of 1, 2, ..., k + 1 children put it at spawn index
        ``c + k(k + 3)/2``, with ``c`` the sequence's
        ``n_children_spawned`` when the factory was built. That one child
        is built directly, at O(1) cost instead of k + 1 sequences.
        """
        parent = self.seed_sequence
        k = self._spawned
        child = type(parent)(
            parent.entropy,
            spawn_key=parent.spawn_key + (self._base + k * (k + 3) // 2,),
            pool_size=parent.pool_size,
        )
        self._spawned += 1
        return child

    def spawn_generator(self) -> np.random.Generator:
        """Return a generator seeded by the next child sequence."""
        return np.random.Generator(np.random.PCG64(self.spawn_sequence()))

    def spawn_factory(self) -> "RngFactory":
        """Return an independent child factory (e.g. one per trial)."""
        return RngFactory(self.spawn_sequence())

    def trial_factories(self, count: int) -> Iterator["RngFactory"]:
        """Yield ``count`` independent child factories, one per trial."""
        for _ in range(count):
            yield self.spawn_factory()


def choice_or_none(
    rng: np.random.Generator, pool: np.ndarray
) -> Optional[int]:
    """Uniformly pick one element of ``pool``, or ``None`` when empty."""
    if pool.size == 0:
        return None
    return int(pool[rng.integers(pool.size)])
