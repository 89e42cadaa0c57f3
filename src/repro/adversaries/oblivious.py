"""The oblivious counterpart of the split-vote adversary (Section 2.3).

The paper distinguishes two adversary powers: an *oblivious* adversary
fixes the dishonest players' actions independent of the coin flips; an
*adaptive* one reacts to realized history. DISTILL is proved against the
adaptive one — which raises the measurable question (ablation A5): how
much does adaptivity actually buy the attacker?

:class:`ObliviousSplitVoteAdversary` runs the same threshold-splitting
playbook as :class:`~repro.adversaries.split_vote.SplitVoteAdversary`,
but commits its entire posting schedule at reset, before a single coin is
flipped. It can do this because Step 1's phase lengths are deterministic
functions of the public parameters; what it *cannot* do is react to the
realized candidate sets — its iteration-phase votes target the bad
objects it planted, under its own precomputed schedule of phase
boundaries (assuming ATTEMPT does not restart), and are simply wasted
whenever reality diverges.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.post import PostBlock
from repro.billboard.views import BillboardView
from repro.core.parameters import DistillParameters
from repro.world.instance import Instance


class ObliviousSplitVoteAdversary(Adversary):
    """Threshold-splitting with a schedule fixed before the run.

    Parameters mirror the adaptive version where meaningful.
    """

    name = "oblivious-split-vote"

    def __init__(
        self,
        params: Optional[DistillParameters] = None,
        step11_fraction: float = 0.25,
        step13_fraction: float = 0.5,
        planned_iterations: int = 3,
    ) -> None:
        if planned_iterations < 0:
            raise ValueError(
                f"planned_iterations must be >= 0, got {planned_iterations}"
            )
        self.params = params or DistillParameters()
        self.step11_fraction = step11_fraction
        self.step13_fraction = step13_fraction
        self.planned_iterations = planned_iterations

    # ------------------------------------------------------------------
    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        self._schedule: Dict[int, PostBlock] = {}
        bad = self.bad_object_ids()
        voters = self.rng.permutation(self.dishonest_ids)
        if bad.size == 0 or voters.size == 0:
            return

        n = instance.n
        len_s11 = 2 * self.params.step11_invocations(
            n, instance.alpha, instance.beta
        )
        len_s13 = 2 * self.params.step13_invocations(instance.alpha)
        len_iter = 2 * self.params.iteration_invocations(instance.alpha)

        def cast(round_no: int, targets: np.ndarray, need: int) -> None:
            """``need`` votes for each target in turn, from the front of
            the voters, while a whole batch is left. The windows start at
            least two rounds apart, so each round gets one block."""
            nonlocal voters
            n_batches = min(len(targets), voters.size // need)
            if n_batches == 0:
                return
            self._schedule[round_no] = PostBlock.votes(
                voters[: n_batches * need],
                np.repeat(targets[:n_batches], need),
            )
            voters = voters[n_batches * need :]

        # Step 1.1 window: dilute S with distinct bad objects.
        n_dilute = min(
            bad.size, math.floor(self.step11_fraction * voters.size)
        )
        dilute = self.rng.choice(bad, size=n_dilute, replace=False)
        cast(0, dilute, need=1)

        # Step 1.3 window: push chosen bad objects to the C0 threshold.
        need_c0 = max(1, math.ceil(self.params.c0_vote_threshold))
        budget_c0 = math.floor(self.step13_fraction * voters.size)
        planted = self.rng.choice(
            bad,
            size=min(bad.size, max(budget_c0 // need_c0, 0)),
            replace=False,
        )
        if planted.size:
            cast(len_s11, planted, need=need_c0)

        # Iteration windows: keep the planted objects alive under the
        # *planned* candidate counts (planted + 1 good survivor), for a
        # fixed number of iterations — all guessed in advance.
        c_guess = int(planted.size) + 1
        start = len_s11 + len_s13
        for t in range(self.planned_iterations):
            if c_guess <= 1 or voters.size == 0:
                break
            need = (
                math.floor(
                    self.params.iteration_vote_threshold(n, c_guess)
                )
                + 1
            )
            keep = min(c_guess - 1, voters.size // need)
            if keep <= 0:
                break
            targets = planted[:keep]
            cast(start + t * len_iter, targets, need=need)
            c_guess = keep + 1

    def act(self, round_no: int, view: BillboardView) -> Optional[PostBlock]:
        return self._schedule.pop(round_no, None)
