"""The retry policy: capped exponential backoff, deterministic.

The local pool rebuilds itself after ``BrokenProcessPool`` on this one
frozen policy (``backoff_base * 2 ** (attempt - 1)``, capped), so the
schedule is a single auditable contract rather than constants inside
the pool loop.

The schedule is *deterministic by construction*: no jitter, no clock
reads (only :func:`time.sleep`, which consumes time but never tells it).
Two runs with the same policy retry on the same schedule, which is what
keeps recovery behaviour reproducible in the broken-pool tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with a bounded retry budget.

    Attributes
    ----------
    max_retries:
        How many retries to attempt before giving up (``0`` = never
        retry). For the local pool this counts pool rebuilds.
    backoff_base:
        Delay before the first retry, in seconds; doubled on each
        further retry. ``0.0`` retries immediately (the tests' choice).
    backoff_cap:
        Upper bound on any single delay, so long sweeps never back off
        into hours.
    """

    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_cap: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_cap < 0:
            raise ConfigurationError(
                f"backoff_cap must be >= 0, got {self.backoff_cap}"
            )

    # ------------------------------------------------------------------
    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise ConfigurationError(
                f"retry attempts are 1-based, got {attempt}"
            )
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)

    def schedule(self) -> Iterator[float]:
        """The full delay schedule, one entry per allowed retry."""
        for attempt in range(1, self.max_retries + 1):
            yield self.delay(attempt)

    def allows(self, attempt: int) -> bool:
        """Whether retry number ``attempt`` (1-based) is within budget."""
        return attempt <= self.max_retries

    def sleep(self, attempt: int) -> None:
        """Sleep out the backoff before retry number ``attempt``."""
        delay = self.delay(attempt)
        if delay > 0:
            time.sleep(delay)
