"""The ``substrate`` knob: which post log the scalar engine and
``repro serve`` keep.

Every board reads its votes through one
:class:`~repro.billboard.votes.VoteLedger`; what the knob selects is
the post log beside it. ``dense`` keeps the
:class:`~repro.billboard.board.Billboard`, a
:class:`~repro.billboard.post.Post` object and a hash-chain field
snapshot per post. ``sparse`` keeps the
:class:`~repro.billboard.columnar.ColumnarBoard`, 21 bytes of numpy
columns per post, which is what lets n = 10^5–10^6 worlds fit
(BENCH_scale.json). Lanes always run the columnar board. ``auto`` picks
sparse at or above :data:`SPARSE_AUTO_THRESHOLD` players. Selection is
**bit-inert**: for the same seed both substrates produce identical
:class:`~repro.sim.metrics.RunMetrics`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.billboard.columnar import ColumnarBoard
from repro.billboard.votes import VoteLedger
from repro.errors import ConfigurationError

#: ``substrate="auto"`` picks the columnar post log at or above this
#: many players, where ``Billboard``'s per-post objects dominate RSS
#: (BENCH_scale.json). Below it ``auto`` keeps ``Billboard``, though no
#: bench shows that faster: on the benchmark's scalar_e3 cell (n=4096,
#: E3, 6 x 8 scalar trials) ``Billboard`` took 1.6-2.1x the columnar
#: board's wall time at 0.9 MB more peak RSS, same digest, in six
#: interleaved pairs (docs/performance.md, "The substrate knob").
SPARSE_AUTO_THRESHOLD = 32_768

#: valid values of the ``substrate`` knob, in documentation order
SUBSTRATE_CHOICES: Tuple[str, ...] = ("auto", "dense", "sparse")


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


# Kept because perfbench/sims.py imports this name and wraps its
# append_many for per-layer attribution.
SparseBoard = ColumnarBoard


class SparseVoteLedger(VoteLedger):
    """Kept because perfbench/sims.py wraps these three queries on this
    name and on :class:`VoteLedger`. The span wrapper patches the first
    class in the MRO that defines a name, so binding them here keeps its
    wrappers off :class:`VoteLedger`'s (an alias would count each query
    twice). Nothing builds this class."""

    current_vote_array = VoteLedger.current_vote_array
    counts_in_window = VoteLedger.counts_in_window
    objects_with_votes = VoteLedger.objects_with_votes
