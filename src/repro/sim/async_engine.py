"""The asynchronous execution engine (the model of the prior work [1]).

A basic step: one player — chosen by the schedule, which may be
adversarial — reads the billboard, probes one object, and posts the
outcome. Posts are timestamped with the global step number ("an integral
part of any posting on any real billboard", Section 1.2), which is what
lets synchrony be *simulated*: see
:class:`~repro.sim.sync_adapter.SynchronizedDistillAdapter`.

Strategies for this engine implement the per-step
:class:`AsyncStrategy` interface. The memoryless protocols (trivial,
EC'04 explore/exploit) port directly via :class:`PerStepAdapter`; DISTILL
needs the timestamp-barrier adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # type-only import
    from repro.obs.registry import Registry

from repro.adversaries.base import Adversary, check_block
from repro.billboard.board import Billboard
from repro.billboard.post import PostKind
from repro.billboard.views import BillboardView
from repro.billboard.votes import VoteMode
from repro.errors import BudgetExceededError, SimulationError
from repro.sim.schedules import RoundRobinSchedule, Schedule
from repro.strategies.base import Strategy, StrategyContext
from repro.world.instance import Instance
from repro.world.valuemodel import TrueValueModel, ValueModel


class AsyncStrategy:
    """Per-step honest protocol for the asynchronous engine."""

    name = "async-strategy"

    def reset(self, ctx: StrategyContext, rng: np.random.Generator) -> None:
        self.ctx = ctx
        self.rng = rng

    def step(self, step_no: int, player: int, view: BillboardView) -> int:
        """Choose the object ``player`` probes this step (-1 = idle)."""
        raise NotImplementedError

    def handle_result(
        self, step_no: int, player: int, object_id: int, value: float
    ) -> Tuple[bool, bool]:
        """Digest a probe outcome; return ``(vote, halt)``.

        Default: the local-testing rule (vote for and halt on the first
        object passing the threshold).
        """
        threshold = self.ctx.good_threshold
        if threshold is None:
            raise NotImplementedError(
                "no-local-testing strategies must override handle_result"
            )
        good = value >= threshold
        return good, good

    def info(self) -> Dict[str, Any]:
        return {}


class PerStepAdapter(AsyncStrategy):
    """Port a memoryless cohort :class:`Strategy` to the async engine.

    Valid only for strategies whose per-round decision does not depend on
    the round number (trivial probing, the EC'04 explore/exploit rule):
    each async step simply asks the wrapped strategy for a one-player
    round.
    """

    def __init__(self, inner: Strategy) -> None:
        self.inner = inner
        self.name = f"async({inner.name})"

    def reset(self, ctx: StrategyContext, rng: np.random.Generator) -> None:
        super().reset(ctx, rng)
        self.inner.reset(ctx, rng)

    def step(self, step_no: int, player: int, view: BillboardView) -> int:
        probes = self.inner.choose_probes(
            0, np.array([player], dtype=np.int64), view
        )
        return int(probes[0])

    def info(self) -> Dict[str, Any]:
        return self.inner.info()


@dataclass
class AsyncRunMetrics:
    """Outcome of one asynchronous run.

    ``satisfied_step`` is the step at which each player first probed a
    ground-truth good object (-1 = never); individual cost is per-player
    ``probes``. ``steps`` counts basic steps (n steps ~ one synchronous
    round under round robin).
    """

    honest_mask: np.ndarray
    probes: np.ndarray
    satisfied_step: np.ndarray
    steps: int
    all_honest_satisfied: bool
    strategy_info: Dict[str, Any] = field(default_factory=dict)

    @property
    def honest_probes(self) -> np.ndarray:
        return self.probes[self.honest_mask]

    @property
    def mean_individual_probes(self) -> float:
        return float(self.honest_probes.mean())

    @property
    def max_individual_probes(self) -> int:
        return int(self.honest_probes.max())

    @property
    def total_honest_probes(self) -> int:
        """The prior work's *total cost* metric (O(1/β + n log n) in [1])."""
        return int(self.honest_probes.sum())

    def probes_of(self, player: int) -> int:
        return int(self.probes[player])


class AsynchronousEngine:
    """Run an async strategy under a (possibly adversarial) schedule."""

    def __init__(
        self,
        instance: Instance,
        strategy: AsyncStrategy,
        schedule: Optional[Schedule] = None,
        adversary: Optional[Adversary] = None,
        value_model: Optional[ValueModel] = None,
        rng: Optional[np.random.Generator] = None,
        schedule_rng: Optional[np.random.Generator] = None,
        adversary_rng: Optional[np.random.Generator] = None,
        max_steps: int = 10_000_000,
        strict: bool = True,
        vote_mode: VoteMode = VoteMode.SINGLE,
        obs: Optional["Registry"] = None,
    ) -> None:
        self.instance = instance
        self.strategy = strategy
        self.schedule = schedule or RoundRobinSchedule()
        #: Byzantine controller of the dishonest players; it acts after
        #: every step with the full board (its posts are stamped with the
        #: current step, like everything else)
        self.adversary = adversary
        self.value_model = value_model or TrueValueModel(instance.space)
        self.rng = (
            rng
            if rng is not None
            else np.random.default_rng()  # repro: noqa=RPL003(unseeded interactive default; seeded callers pass explicit streams)
        )
        self.schedule_rng = (
            schedule_rng
            if schedule_rng is not None
            else np.random.default_rng()  # repro: noqa=RPL003(unseeded interactive default; seeded callers pass explicit streams)
        )
        self.adversary_rng = (
            adversary_rng
            if adversary_rng is not None
            else np.random.default_rng()  # repro: noqa=RPL003(unseeded interactive default; seeded callers pass explicit streams)
        )
        self.max_steps = max_steps
        self.strict = strict
        #: optional event-counter registry (``async.*`` names; counters
        #: only — no clock reads in ``sim`` — and bit-inert)
        self.obs = obs
        self.ctx = StrategyContext(
            n=instance.n,
            m=instance.m,
            alpha=instance.alpha,
            beta=instance.beta,
            good_threshold=instance.space.good_threshold,
        )
        self.board = Billboard(instance.n, instance.m, vote_mode=vote_mode)

    def run(self) -> AsyncRunMetrics:
        inst = self.instance
        probes = np.zeros(inst.n, dtype=np.int64)
        satisfied_step = np.full(inst.n, -1, dtype=np.int64)
        active = inst.honest_mask.copy()

        self.strategy.reset(self.ctx, self.rng)
        self.schedule.reset(inst.n, self.schedule_rng)
        if self.adversary is not None:
            self.adversary.reset(inst, self.adversary_rng)

        obs = self.obs
        if obs is not None:
            count_steps = obs.counter("async.steps").add
            count_probes = obs.counter("async.probes").add
            count_votes = obs.counter("async.votes").add

        step_no = 0
        while step_no < self.max_steps:
            active_ids = np.flatnonzero(active)
            if active_ids.size == 0:
                break
            if obs is not None:
                count_steps()
            player = self.schedule.next_player(step_no, active_ids)
            if not active[player]:
                raise SimulationError(
                    f"schedule {self.schedule.name!r} picked inactive "
                    f"player {player}"
                )
            # async steps are atomic: the player sees everything so far
            view = BillboardView(self.board)
            target = self.strategy.step(step_no, player, view)
            if target >= 0:
                if target >= inst.m:
                    raise SimulationError(
                        f"strategy {self.strategy.name!r} probed unknown "
                        f"object {target}"
                    )
                if obs is not None:
                    count_probes()
                value = self.value_model.observe(player, target)
                probes[player] += 1
                if inst.space.good_mask[target] and satisfied_step[player] < 0:
                    satisfied_step[player] = step_no
                vote, halt = self.strategy.handle_result(
                    step_no, player, target, value
                )
                if vote:
                    if obs is not None:
                        count_votes()
                    self.board.append(
                        step_no, player, target, value, PostKind.VOTE
                    )
                if halt:
                    active[player] = False
            if self.adversary is not None:
                self._adversary_step(step_no)
            step_no += 1
        else:
            if self.strict:
                raise BudgetExceededError(
                    f"async run exceeded {self.max_steps} steps"
                )

        sat_honest = satisfied_step[inst.honest_mask] >= 0
        return AsyncRunMetrics(
            honest_mask=inst.honest_mask.copy(),
            probes=probes,
            satisfied_step=satisfied_step,
            steps=step_no,
            all_honest_satisfied=bool(sat_honest.all()),
            strategy_info=self.strategy.info(),
        )

    def _adversary_step(self, step_no: int) -> None:
        """The adversary's turn after a basic step: its block is checked
        whole, then lands whole."""
        block = self.adversary.act(step_no, BillboardView(self.board))
        if block is None:
            return
        check_block(self.adversary.name, block, self.instance.honest_mask)
        self.board.post_block(step_no, *block)
