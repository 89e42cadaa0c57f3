"""Baseline algorithms the paper compares against.

* :class:`~repro.baselines.trivial.TrivialStrategy` — probe a uniformly
  random object each round, ignore the billboard; ``O(1/β)`` expected cost
  (noted after Theorem 2).
* :class:`~repro.baselines.async_ec04.AsyncEC04Strategy` — the prior
  asynchronous algorithm of [Awerbuch et al., EC'04] run under a
  synchronous round-robin schedule; ``O(log n/(αβn) + log n/α)`` expected
  rounds (Section 1.2), i.e. ``Ω(log n)`` individual cost even when almost
  everyone is honest — the gap DISTILL closes.
* :class:`~repro.baselines.full_cooperation.FullCooperationStrategy` — the
  idealized no-repeat urn search of the Theorem 1 proof (honest players
  know whom to trust and never duplicate a probe); its measured cost *is*
  the Ω(1/(αβn)) lower-bound curve.
"""

from repro.baselines.trivial import TrivialStrategy
from repro.baselines.async_ec04 import AsyncEC04Strategy
from repro.baselines.full_cooperation import FullCooperationStrategy

__all__ = [
    "AsyncEC04Strategy",
    "FullCooperationStrategy",
    "TrivialStrategy",
]
