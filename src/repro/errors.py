"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An algorithm, instance, or experiment was configured inconsistently.

    Examples: ``alpha`` outside ``(0, 1]``, a good-object fraction of zero,
    or a strategy handed an instance it cannot run on.
    """


class BillboardError(ReproError):
    """Base class for violations of the billboard substrate's contract."""


class TamperError(BillboardError):
    """An attempt was made to mutate or erase an existing billboard post.

    The billboard of the paper (Section 2.1) is append-only; any code path
    that would rewrite history is a bug and fails loudly.
    """


class InvalidPostError(BillboardError):
    """A post was malformed: unknown player, bad object id, or a post
    stamped with a round earlier than an already-appended post."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent internal state."""


class BudgetExceededError(SimulationError):
    """A run exceeded its safety round budget without terminating.

    DISTILL terminates with probability one, so hitting this in practice
    indicates either a mis-configured budget or an algorithm bug; raising is
    preferable to looping forever.
    """


class TrialTimeoutError(SimulationError):
    """A single Monte-Carlo trial exceeded its wall-clock budget.

    Raised by the trial runner when ``timeout=`` is set. A timed-out
    trial is *deterministic* — re-running the same seed would hang the
    same way — so the runner reports it instead of retrying (retries are
    reserved for crashed pool workers, which are environmental)."""


class CheckpointError(ReproError):
    """A trial-runner checkpoint file is unreadable or belongs to a
    different sweep (seed or trial-count mismatch). Resuming against the
    wrong checkpoint would silently mix results from two experiments, so
    the runner fails loudly instead."""


class LoadShedError(ReproError):
    """The serving layer refused a request to protect its latency SLO.

    Raised client-side when :class:`~repro.serve.service.BillboardService`
    answers a request with a ``shed`` frame — the per-client token bucket
    ran dry or the global in-flight cap was hit. Shedding is *not* a
    failure of the board: the request was never applied, so the caller
    can back off and retry without risking a duplicate post. ``reason``
    carries the server's admission verdict (``"rate"`` or
    ``"inflight"``).
    """

    def __init__(self, message: str, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class AdversaryViolationError(SimulationError):
    """An adversary attempted an action outside the Byzantine model as
    mediated by the engine (e.g. casting a vote on behalf of an honest
    player, or probing for a player it does not control)."""
