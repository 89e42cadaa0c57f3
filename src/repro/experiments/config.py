"""Experiment results, scale presets, and the worker-count default.

``Scale.SMOKE`` runs in seconds (used by the test suite to exercise every
experiment end-to-end); ``Scale.FULL`` is what the benches run and what
EXPERIMENTS.md records.

The Monte-Carlo worker count used by every experiment's
:func:`~repro.experiments.common.measure` call resolves here: an explicit
``n_jobs`` argument wins, then :func:`set_default_n_jobs`, then the
``REPRO_BENCH_JOBS`` environment variable, then serial. Parallelism never
changes results (see :func:`repro.sim.runner.run_trials`), so the knob is
process-wide state rather than a per-experiment parameter. The
``batch_lanes`` and ``substrate`` knobs follow the same pattern
(``REPRO_BATCH_LANES``, ``REPRO_SUBSTRATE``). ``n_jobs`` also picks the
backend: serial at one worker, the forked pool above.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.tables import Table

#: environment variable supplying the default Monte-Carlo worker count
JOBS_ENV_VAR = "REPRO_BENCH_JOBS"

#: environment variable supplying the default trial-lane batch width
LANES_ENV_VAR = "REPRO_BATCH_LANES"

#: environment variable supplying the default billboard substrate name
SUBSTRATE_ENV_VAR = "REPRO_SUBSTRATE"

_default_n_jobs: Optional[int] = None

_default_batch_lanes: Optional[int] = None

_default_substrate: Optional[str] = None


def default_n_jobs() -> int:
    """The process-wide default worker count for trial execution.

    Resolution order: :func:`set_default_n_jobs` override, then the
    ``REPRO_BENCH_JOBS`` environment variable, then ``1`` (serial).
    """
    if _default_n_jobs is not None:
        return _default_n_jobs
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def set_default_n_jobs(n_jobs: Optional[int]) -> None:
    """Override the process-wide worker default (``None`` restores env/1)."""
    global _default_n_jobs
    _default_n_jobs = n_jobs


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """An explicit ``n_jobs`` wins; ``None`` falls back to the default."""
    return default_n_jobs() if n_jobs is None else n_jobs


def default_batch_lanes() -> Optional[int]:
    """The process-wide default ``batch_lanes`` for trial execution.

    Resolution order: :func:`set_default_batch_lanes` override, then the
    ``REPRO_BATCH_LANES`` environment variable, then ``None`` (the
    runner's own default — scalar execution). Like ``n_jobs``, batching
    never changes results (the equivalence suite pins this), so it is
    process-wide state rather than a per-experiment parameter.
    """
    if _default_batch_lanes is not None:
        return _default_batch_lanes
    raw = os.environ.get(LANES_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{LANES_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def set_default_batch_lanes(batch_lanes: Optional[int]) -> None:
    """Override the process-wide lane default (``None`` restores env)."""
    global _default_batch_lanes
    _default_batch_lanes = batch_lanes


def resolve_batch_lanes(batch_lanes: Optional[int]) -> Optional[int]:
    """An explicit ``batch_lanes`` wins; ``None`` falls back to the default."""
    return default_batch_lanes() if batch_lanes is None else batch_lanes


def default_substrate() -> Optional[str]:
    """The process-wide default billboard substrate for trial sweeps.

    Resolution order: :func:`set_default_substrate` override, then the
    ``REPRO_SUBSTRATE`` environment variable (``auto``, ``dense``, or
    ``sparse``), then ``None`` — the runner's own default (``auto``:
    sparse at or above
    :data:`~repro.billboard.sparse.SPARSE_AUTO_THRESHOLD` players).
    Like ``n_jobs``, the substrate never changes results (the sparse
    equivalence suite pins this), so it is process-wide state rather
    than a per-experiment parameter.
    """
    if _default_substrate is not None:
        return _default_substrate
    raw = os.environ.get(SUBSTRATE_ENV_VAR, "").strip()
    if not raw:
        return None
    from repro.billboard.sparse import SUBSTRATE_CHOICES

    if raw not in SUBSTRATE_CHOICES:
        raise ConfigurationError(
            f"{SUBSTRATE_ENV_VAR} must be one of "
            f"{', '.join(SUBSTRATE_CHOICES)}; got {raw!r}"
        )
    return raw


def set_default_substrate(substrate: Optional[str]) -> None:
    """Override the process-wide substrate default (``None`` restores
    env/runner choice)."""
    global _default_substrate
    _default_substrate = substrate


def resolve_substrate(substrate: Optional[str]) -> Optional[str]:
    """An explicit ``substrate`` wins; ``None`` falls back to the default."""
    return default_substrate() if substrate is None else substrate


class Scale(enum.Enum):
    """How big an experiment run is."""

    SMOKE = "smoke"
    FULL = "full"


@dataclass
class ExperimentResult:
    """The output of one experiment run.

    Attributes
    ----------
    experiment_id:
        "E1".."E12" per DESIGN.md's index.
    title, claim:
        What is being reproduced and the paper's statement of it.
    columns:
        Column order for rendering.
    rows:
        One dict per table row.
    checks:
        Named boolean shape checks ("distill beats async at every n",
        "ratio within ...") — what the tests assert and EXPERIMENTS.md
        reports as pass/fail.
    notes:
        Free-form commentary (fit parameters, crossovers found).
    """

    experiment_id: str
    title: str
    claim: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    formats: Optional[Mapping[str, str]] = None

    def table(self) -> Table:
        table = Table(self.columns, formats=self.formats)
        for row in self.rows:
            table.add_row(**{k: v for k, v in row.items() if k in self.columns})
        return table

    def render(self) -> str:
        """Full report: header, table, checks, notes."""
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper claim: {self.claim}",
            "",
            self.table().render(),
        ]
        if self.checks:
            lines.append("")
            for name, ok in self.checks.items():
                lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())
