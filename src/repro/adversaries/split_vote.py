"""The adaptive split-vote adversary — the worst case of Lemma 7.

Lemma 7 bounds DISTILL's while-loop by charging each surviving bad
candidate its threshold of fresh dishonest votes: keeping a bad object in
``C_{t+1}`` costs strictly more than ``n/(4·c_t)`` votes *cast in iteration
t*, and the total dishonest budget is ``(1-α)n``. The adversary that
realizes the bound spends exactly that way: it tops bad candidates up to
just past each stage's threshold, keeping as many alive as it can afford,
for as long as it can afford.

Because every phase boundary of DISTILL is a deterministic function of the
public billboard (see :class:`~repro.core.tracker.DistillPhaseTracker`),
the adversary simply runs the same tracker the honest players do and reads
the thresholds off it. This is a legitimate adaptive Byzantine adversary:
it uses only public information plus realized history.

Attack plan per window:

* **Step 1.3 window** — spend up to ``step13_fraction`` of the remaining
  budget pushing distinct bad objects to the ``ceil(k2/4)`` entry
  threshold of ``C0`` (Step 1.4 counts votes for *any* object, so no
  Step 1.1 grooming is needed).
* **Iteration window** — the survival threshold is ``floor(n/(4·c_t))+1``
  fresh votes; keep ``min(|bad ∩ C_t|, budget // need)`` bad candidates
  alive, preferring candidates that survived so far (sunk cost already
  paid by earlier votes).
* **Step 1.1 window** — spend up to ``step11_fraction`` of the remaining
  budget on *distinct* bad objects. A vote here cannot reach ``C0`` by
  itself (Step 1.4's threshold sees to that), but it inflates ``S`` and so
  dilutes the honest probes of Step 1.3 — each bogus entry lowers the
  chance an honest Step 1.3 probe lands on a genuinely good candidate.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock
from repro.billboard.views import BillboardView
from repro.core.parameters import DistillParameters
from repro.core.tracker import DistillPhase, DistillPhaseTracker
from repro.strategies.base import StrategyContext
from repro.world.instance import Instance


class SplitVoteAdversary(Adversary):
    """Threshold-topping adaptive adversary against DISTILL.

    Parameters
    ----------
    params:
        The DISTILL constants the honest players run with (the algorithm
        is public). Must match the honest strategy's for the mirror to be
        exact; a mismatched mirror degrades the attack, not the
        simulation.
    step11_fraction:
        Fraction of the remaining budget spent diluting ``S`` per ATTEMPT.
    step13_fraction:
        Fraction of the remaining budget allowed on ``C0`` pollution per
        ATTEMPT.
    votes_per_identity:
        The ``f`` of Section 4.1: how many effective votes each dishonest
        identity is worth under the run's ledger mode. Must match the
        engine's ``max_votes_per_player`` for the budget model to be
        exact.
    """

    name = "split-vote"

    def __init__(
        self,
        params: Optional[DistillParameters] = None,
        step11_fraction: float = 0.25,
        step13_fraction: float = 0.5,
        votes_per_identity: int = 1,
    ) -> None:
        if votes_per_identity < 1:
            raise ValueError(
                f"votes_per_identity must be >= 1, got {votes_per_identity}"
            )
        self.votes_per_identity = votes_per_identity
        for label, frac in (
            ("step11_fraction", step11_fraction),
            ("step13_fraction", step13_fraction),
        ):
            if not 0 <= frac <= 1:
                raise ValueError(f"{label} must be in [0, 1], got {frac}")
        self.params = params or DistillParameters()
        self.step11_fraction = step11_fraction
        self.step13_fraction = step13_fraction

    # ------------------------------------------------------------------
    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        ctx = StrategyContext(
            n=instance.n,
            m=instance.m,
            alpha=instance.alpha,
            beta=instance.beta,
            good_threshold=instance.space.good_threshold,
        )
        self.tracker = DistillPhaseTracker(ctx, self.params)
        # The vote-slot pool: each identity supplies `votes_per_identity`
        # slots, laid out as that many copies of one permutation of the
        # dishonest identities. _cast is the pool's only consumer and
        # takes slots from the front, so every reachable pool is a
        # contiguous window of this periodic sequence.
        order = self.rng.permutation(self.dishonest_ids)
        self._unused = np.tile(order, self.votes_per_identity)
        self._bad = self.bad_object_ids()
        self._good_mask = instance.space.good_mask
        self._handled_window = (None, -1)

    @property
    def remaining_budget(self) -> int:
        return int(self._unused.size)

    # ------------------------------------------------------------------
    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        if self._unused.size == 0 or self._bad.size == 0:
            return None
        # Mirror the honest phase computation exactly: advance on the
        # honest start-of-round horizon.
        self.tracker.advance(round_no, view.with_horizon(round_no))
        window = (self.tracker.phase, self.tracker.phase_start)
        if window == self._handled_window:
            return None
        self._handled_window = window

        if self.tracker.phase is DistillPhase.STEP11:
            return self._attack_step11()
        if self.tracker.phase is DistillPhase.STEP13:
            return self._attack_step13()
        return self._attack_iteration()

    # ------------------------------------------------------------------
    def _cast(self, targets: np.ndarray, need: int) -> Optional[PostBlock]:
        """``need`` votes for each target, while vote slots last.

        One batch must come from ``need`` distinct identities, because
        the ledger ignores a player's repeat vote for one object. Any
        window of the periodic pool no longer than the number of
        identities is pairwise distinct, so the batches are consecutive
        slices of the pool's front: target ``i``'s voters are slots
        ``[i·need, (i+1)·need)``. A ``need`` above the pool or above the
        number of identities casts nothing and consumes nothing.
        """
        pool = self._unused
        if need > min(pool.size, self.dishonest_ids.size):
            return None
        n_batches = min(len(targets), pool.size // need)
        self._unused = pool[n_batches * need :]
        return PostBlock.votes(
            pool[: n_batches * need], np.repeat(targets[:n_batches], need)
        )

    def _attack_step11(self) -> Optional[PostBlock]:
        budget = math.floor(self.step11_fraction * self._unused.size)
        n_targets = min(self._bad.size, budget)
        if n_targets <= 0:
            return None
        targets = self.rng.choice(self._bad, size=n_targets, replace=False)
        return self._cast(targets, need=1)

    def _attack_step13(self) -> Optional[PostBlock]:
        need = max(1, math.ceil(self.params.c0_vote_threshold))
        budget = math.floor(self.step13_fraction * self._unused.size)
        n_targets = min(self._bad.size, budget // need)
        if n_targets <= 0:
            return None
        targets = self.rng.choice(self._bad, size=n_targets, replace=False)
        return self._cast(targets, need)

    def _attack_iteration(self) -> Optional[PostBlock]:
        candidates = self.tracker.candidates
        bad_candidates = candidates[~self._good_mask[candidates]]
        if bad_candidates.size == 0:
            return None
        need = math.floor(self.tracker.iteration_threshold()) + 1
        n_targets = min(bad_candidates.size, self._unused.size // need)
        if n_targets <= 0:
            return None
        return self._cast(bad_candidates[:n_targets], need)
