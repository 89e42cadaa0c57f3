"""Declarative fault plans.

A :class:`FaultPlan` is a frozen description of *which* infrastructure
faults a run should suffer and at what rates; the
:class:`~repro.faults.injector.FaultInjector` turns a plan plus a
dedicated rng stream into concrete per-round decisions. Keeping the plan
declarative (and hashable) lets experiments sweep fault rates the same
way they sweep ``n`` or ``alpha``, and lets the trial runner ship plans
to pool workers without pickling any live state.

The paper's model assumes a *reliable* billboard and immortal honest
players; every knob here weakens one of those assumptions (see
``docs/robustness.md`` for the full fault model):

* ``post_loss_rate`` — a lossy billboard: each honest post is
  independently dropped.
* ``crash_rate`` / ``restart_after`` — churn: an active honest player
  crashes with per-round probability ``crash_rate``; with
  ``restart_after=k`` it rejoins ``k`` rounds later with no local
  memory (it re-reads the billboard — the paper's shared board is what
  makes restarting meaningful), with ``restart_after=None`` it is gone
  for good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultPlan:
    """Rates and parameters of the injected faults (all default to off).

    Attributes
    ----------
    post_loss_rate:
        Probability that an honest billboard post is dropped.
    crash_rate:
        Per-round probability that each still-active honest player
        crashes.
    restart_after:
        Rounds a crashed player stays down before rejoining with no
        local memory; ``None`` means crashed players never return.
    """

    post_loss_rate: float = 0.0
    crash_rate: float = 0.0
    restart_after: Optional[int] = None

    def __post_init__(self) -> None:
        _check_rate("post_loss_rate", self.post_loss_rate)
        _check_rate("crash_rate", self.crash_rate)
        if self.restart_after is not None and self.restart_after < 1:
            raise ConfigurationError(
                f"restart_after must be >= 1 or None, got {self.restart_after}"
            )

    def is_null(self) -> bool:
        """Whether this plan injects nothing (all rates zero).

        Null plans are the bit-identity contract: a run configured with a
        null plan must produce exactly the byte-for-byte output of a run
        with no fault layer at all.
        """
        return self.post_loss_rate == 0.0 and self.crash_rate == 0.0
