"""The ``substrate`` argument: which post log the scalar engine and
``repro serve`` keep.

Both substrates store posts as the same numpy columns (21 bytes a post)
and read their votes through one
:class:`~repro.billboard.votes.VoteLedger`. ``dense`` keeps the
:class:`~repro.billboard.board.Billboard`, which adds a lazy hash chain
and so a pending copy of the rows written since its digest was last
read; ``sparse`` keeps the plain
:class:`~repro.billboard.columnar.ColumnarBoard`. Lanes always run the
columnar board. ``auto`` picks sparse at or above
:data:`SPARSE_AUTO_THRESHOLD` players; every CLI run and ``repro
serve`` use it, and only direct callers of
:func:`~repro.sim.runner.run_trials`,
:func:`~repro.sim.runner.run_trial_grid` and
:class:`~repro.sim.engine.SynchronousEngine` name another. Selection is
**bit-inert**: for the same seed both substrates produce identical
:class:`~repro.sim.metrics.RunMetrics`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.billboard.columnar import ColumnarBoard
from repro.billboard.votes import VoteLedger
from repro.errors import ConfigurationError

#: ``substrate="auto"`` picks the chainless post log at or above this many
#: players. Until 1.17.0 ``Billboard`` stored a ``Post`` object per post,
#: whose RSS dominated at that scale (BENCH_scale.json); now the chain's
#: pending copy (21 bytes a post until the digest is read) is all it
#: adds, and no bench needs the threshold. It stays because the
#: benchmark's workloads pin the ``dense``/``sparse`` labels it yields
#: (docs/performance.md, "The substrate knob").
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
