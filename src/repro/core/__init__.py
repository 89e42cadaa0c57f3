"""The paper's contribution: Algorithm DISTILL and its variants.

* :class:`~repro.core.distill.DistillStrategy` — Figure 1, verbatim
  (Section 4): the sub-logarithmic search algorithm with local testing.
* :class:`~repro.core.distill_hp.DistillHPStrategy` — Theorem 11: the
  high-probability variant with ``k1, k2 = Θ(log n)``.
* :class:`~repro.core.alpha_doubling.AlphaDoublingStrategy` — Section 5.1:
  the halving wrapper that removes the hardwired ``α``.
* :func:`~repro.core.multicost.run_multicost` — Theorem 12: cost classes
  for the general cost model.
* :class:`~repro.core.no_local_testing.NoLocalTestingDistill` —
  Theorem 13 / Section 5.3: best-so-far mutable votes.
* :mod:`~repro.core.multivote` — Section 4.1: up to ``f`` votes per player
  and erroneous honest votes.
* :class:`~repro.core.three_phase.ThreePhaseStrategy` — the illustrative
  three-phase algorithm of Section 1.2.
"""

from repro.core.parameters import DistillParameters
from repro.core.distill import DistillStrategy
from repro.core.distill_hp import DistillHPStrategy, hp_parameters
from repro.core.alpha_doubling import AlphaDoublingStrategy
from repro.core.multicost import MulticostOutcome, run_multicost
from repro.core.no_local_testing import NoLocalTestingDistill
from repro.core.multivote import MultiVoteDistill
from repro.core.three_phase import ThreePhaseStrategy

__all__ = [
    "AlphaDoublingStrategy",
    "DistillHPStrategy",
    "DistillParameters",
    "DistillStrategy",
    "MultiVoteDistill",
    "MulticostOutcome",
    "NoLocalTestingDistill",
    "ThreePhaseStrategy",
    "hp_parameters",
    "run_multicost",
]
