"""The batched synchronous engine: K independent trials per round loop.

The experiment suite's unit of work is thousands of *independent* trials
of the same small world. The scalar :class:`~repro.sim.engine.SynchronousEngine`
pays the full Python round-loop overhead once per trial; this engine pays
it once per *batch*, advancing ``K`` trials — *lanes* — in lockstep:

* per-lane state (``probes``, ``paid``, ``satisfied_round``,
  ``halted_round``, ``active``) lives in ``(K, n)`` arrays, updated with
  one vectorized scatter per round across every lane at once;
* each lane draws its honest and adversary coins from its own pinned
  per-trial rng stream, in the *exact* order the scalar engine would —
  so each lane's randomness is bit-identical to a scalar run of that
  trial;
* each lane has its own columnar billboard
  (:class:`~repro.billboard.columnar.ColumnarBoard`) with the scalar
  engine's :class:`~repro.billboard.votes.VoteLedger`, so the ``substrate``
  knob has nothing to select here;
* finished lanes are masked out, not removed — remaining lanes keep
  their indices, and the loop ends when every lane is done.

Equivalence contract (enforced by ``tests/sim/test_batch_equivalence.py``):
for every supported configuration, the per-trial :class:`RunMetrics`
produced here are **identical** — field for field, array for array — to
running each lane through the scalar engine. Batching is a wall-clock
optimization only; it is never allowed to be a semantics change.

Fault injection is batch-native: a
:class:`~repro.faults.batched.BatchedFaultInjector` carries one scalar
injector per lane (each on its pinned spare stream) and applies lossy
and delayed posts, churn restarts, and observation noise with the same
``(K, n)`` scatter discipline as the rest of the engine — in the scalar
engine's exact per-round order, so faulted lanes stay bit-identical to
faulted scalar runs. Lanes may carry *different* fault plans, which is
what lets the runner pack whole sweep grids into one batch. The only
remaining unsupported configuration is structured tracing (deeply
per-trial); :func:`batch_fallback_reason` reports it so the runner can
degrade to the scalar engine with a warning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.billboard.lanes import LaneBillboard
from repro.billboard.post import PostKind
from repro.billboard.views import BillboardView
from repro.errors import (
    AdversaryViolationError,
    BudgetExceededError,
    ConfigurationError,
    SimulationError,
)
from repro.faults.plan import FaultPlan
from repro.sim.engine import EngineConfig
from repro.sim.metrics import RunMetrics
from repro.strategies.base import StrategyContext
from repro.strategies.batched import BatchedStrategy
from repro.world.instance import Instance
from repro.world.playerstate import player_array
from repro.world.valuemodel import TrueValueModel, ValueModel

if TYPE_CHECKING:  # imported lazily to avoid a package-level cycle
    from repro.adversaries.batched import BatchedAdversary
    from repro.faults.batched import BatchedFaultInjector
    from repro.obs.registry import Registry


def batch_fallback_reason(
    config: Optional[EngineConfig], fault_plan: Optional[FaultPlan]
) -> Optional[str]:
    """Why a configuration cannot run on the batched engine (or ``None``).

    The runner consults this before grouping trials into lanes; the one
    remaining unsupported configuration — structured tracing — degrades
    to the scalar engine (same results, no batching win). Fault plans
    batch natively (``fault_plan`` is accepted for signature stability
    and the day a plan grows a per-trial-only knob).
    """
    del fault_plan  # every plan batches; see BatchedFaultInjector
    if config is not None and config.trace:
        return "structured traces are per-trial"
    return None


class BatchedEngine:
    """Runs ``K`` independent trials of one protocol in lockstep.

    Parameters
    ----------
    instances:
        One world per lane. All lanes must share ``(n, m)`` — lockstep
        needs a common state shape (experiment cells satisfy this by
        construction: same cell, different seeds).
    strategy:
        A :class:`~repro.strategies.batched.BatchedStrategy` holding the
        per-lane protocol state.
    adversary:
        A :class:`~repro.adversaries.batched.BatchedAdversary`, or
        ``None`` for silent dishonest players.
    value_models:
        Optional per-lane observation models; defaults to ground truth
        per lane, like the scalar engine.
    rngs / adversary_rngs:
        Per-lane generator streams (the pinned per-trial streams).
    ctxs:
        Optional per-lane :class:`StrategyContext` overrides.
    faults:
        Optional :class:`~repro.faults.batched.BatchedFaultInjector`
        carrying one scalar injector per lane (each on its own pinned
        fault stream). ``None`` — the default — leaves every code path
        byte-identical to the fault-free engine; lanes whose injector
        slot is ``None`` run fault-free inside a faulted batch.
    obs:
        Optional :class:`~repro.obs.registry.Registry` the run increments
        ``batch.*`` event counters into. Counters only (no clock reads in
        ``sim``); results are bit-identical with or without it.
    """

    def __init__(
        self,
        instances: Sequence[Instance],
        strategy: BatchedStrategy,
        adversary: Optional["BatchedAdversary"] = None,
        value_models: Optional[Sequence[ValueModel]] = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        adversary_rngs: Optional[Sequence[np.random.Generator]] = None,
        config: Optional[EngineConfig] = None,
        ctxs: Optional[Sequence[Optional[StrategyContext]]] = None,
        faults: Optional["BatchedFaultInjector"] = None,
        obs: Optional["Registry"] = None,
    ) -> None:
        if not instances:
            raise ConfigurationError("BatchedEngine needs at least one lane")
        shape = (instances[0].n, instances[0].m)
        for inst in instances:
            if (inst.n, inst.m) != shape:
                raise ConfigurationError(
                    "all lanes must share (n, m); got "
                    f"{(inst.n, inst.m)} alongside {shape}"
                )
        self.instances = list(instances)
        self.n_lanes = len(self.instances)
        self.strategy = strategy
        self.adversary = adversary
        self.config = config or EngineConfig()
        if self.config.trace:
            raise ConfigurationError(
                "BatchedEngine does not support structured traces; "
                "use the scalar engine"
            )
        self.rngs = (
            list(rngs)
            if rngs is not None
            else [
                np.random.default_rng()  # repro: noqa=RPL003(unseeded interactive default; the runner always passes pinned per-lane streams)
                for _ in self.instances
            ]
        )
        self.adversary_rngs = (
            list(adversary_rngs)
            if adversary_rngs is not None
            else [
                np.random.default_rng()  # repro: noqa=RPL003(unseeded interactive default; the runner always passes pinned per-lane streams)
                for _ in self.instances
            ]
        )
        self.value_models = (
            list(value_models)
            if value_models is not None
            else [TrueValueModel(inst.space) for inst in self.instances]
        )
        self.ctxs = [
            (ctx if ctx is not None else self._default_ctx(inst))
            for inst, ctx in zip(
                self.instances,
                ctxs if ctxs is not None else [None] * self.n_lanes,
            )
        ]
        self.boards = LaneBillboard(
            self.n_lanes,
            shape[0],
            shape[1],
            vote_mode=self.config.vote_mode,
            max_votes_per_player=self.config.max_votes_per_player,
        )
        if faults is not None and faults.n_lanes != self.n_lanes:
            raise ConfigurationError(
                f"fault injector carries {faults.n_lanes} lanes for a "
                f"{self.n_lanes}-lane engine"
            )
        self.faults = faults
        self.obs = obs

    @staticmethod
    def _default_ctx(instance: Instance) -> StrategyContext:
        return StrategyContext(
            n=instance.n,
            m=instance.m,
            alpha=instance.alpha,
            beta=instance.beta,
            good_threshold=instance.space.good_threshold,
        )

    # ------------------------------------------------------------------
    def run(self) -> List[RunMetrics]:
        """Advance all lanes to completion; return per-lane metrics."""
        K = self.n_lanes
        n, m = self.instances[0].n, self.instances[0].m
        good = np.stack([inst.space.good_mask for inst in self.instances])
        costs = np.stack([inst.space.costs for inst in self.instances])

        probes = np.zeros((K, n), dtype=np.int64)
        paid = np.zeros((K, n), dtype=np.float64)
        satisfied_round = player_array((K, n), -1, np.int64)
        halted_round = player_array((K, n), -1, np.int64)
        alive = np.ones(K, dtype=bool)
        rounds_out = np.zeros(K, dtype=np.int64)

        faults = self.faults
        value_models = self.value_models
        if faults is not None:
            # Faulted lanes keep the (K, n) mask representation: the
            # batched injector scatters crashes/restarts into the shared
            # masks directly, so the engine cannot maintain incremental
            # id sets without re-deriving them anyway.
            active = np.stack(
                [inst.honest_mask.copy() for inst in self.instances]
            )
            #: round at which each crashed player restarts (-1: not down)
            down_until = player_array((K, n), -1, np.int64)
            lane_active_ids: List[np.ndarray] = []
            faults.reset()
            value_models = faults.wrap_value_models(value_models)
        else:
            # Fault-free lanes track sorted active id arrays maintained
            # incrementally (halts are the only membership change), so a
            # round costs O(players that act), not O(K * n). The ids are
            # bit-identical to the flatnonzero scans they replace.
            active = None
            down_until = None
            lane_active_ids = [
                inst.honest_ids.copy() for inst in self.instances
            ]

        self.strategy.reset_lanes(self.ctxs, self.rngs)
        if self.adversary is not None:
            self.adversary.reset_lanes(self.instances, self.adversary_rngs)

        obs = self.obs
        if obs is not None:
            obs.counter("batch.runs").add()
            obs.counter("batch.lanes").add(K)
            count_rounds = obs.counter("batch.rounds").add
            count_lane_rounds = obs.counter("batch.lane_rounds").add
            count_probes = obs.counter("batch.probes").add

        record_reports = self.config.record_reports
        round_no = 0
        while round_no < self.config.max_rounds:
            if not alive.any():
                break
            if faults is not None:
                # Round-start fault effects land before the stop checks,
                # like the scalar engine: due posts are delivered at a
                # lane's final round, and restarts can revive a lane
                # whose every player is down.
                faults.round_start(
                    round_no, alive, active, down_until, self.boards,
                    self.strategy,
                )
            # Stop checks, in the scalar engine's order: all-halted
            # (with nobody pending a restart) first, then the strategy's
            # own termination rule.
            lanes: List[int] = []
            for k in np.flatnonzero(alive):
                k = int(k)
                if faults is not None:
                    done = (
                        not active[k].any()
                        and not (down_until[k] >= 0).any()
                    )
                else:
                    done = lane_active_ids[k].size == 0
                if done:
                    alive[k] = False
                    rounds_out[k] = round_no
                elif self.strategy.finished(k, round_no):
                    alive[k] = False
                    rounds_out[k] = round_no
                else:
                    lanes.append(k)
            if not lanes:
                break
            if obs is not None:
                count_rounds()
                count_lane_rounds(len(lanes))

            if faults is not None:
                # crashes land before probing: a player crashing in
                # round r does not probe in round r
                faults.apply_crashes(
                    round_no, lanes, active, halted_round, down_until
                )
                # lanes with every player down idle this round: no
                # strategy calls, but the adversary still acts and the
                # round still counts (the scalar engine's idle path)
                probe_lanes = [k for k in lanes if active[k].any()]
                actives = [np.flatnonzero(active[k]) for k in probe_lanes]
            else:
                probe_lanes = lanes
                actives = [lane_active_ids[k] for k in probe_lanes]
            views = [
                BillboardView(self.boards.lane(k), before_round=round_no)
                for k in probe_lanes
            ]
            raw_choices = self.strategy.choose_probes_batch(
                round_no, probe_lanes, actives, views
            )

            probing_lanes: List[int] = []
            probers_per_lane: List[np.ndarray] = []
            targets_per_lane: List[np.ndarray] = []
            values_per_lane: List[np.ndarray] = []
            for k, active_ids, choices in zip(
                probe_lanes, actives, raw_choices
            ):
                choices = np.asarray(choices, dtype=np.int64)
                if choices.shape != active_ids.shape:
                    raise SimulationError(
                        f"strategy {self.strategy.name!r} returned "
                        f"{choices.shape} probes for {active_ids.shape} players"
                    )
                probing = choices >= 0
                probers = active_ids[probing]
                targets = choices[probing]
                if targets.size and (targets >= m).any():
                    raise SimulationError(
                        f"strategy {self.strategy.name!r} probed an unknown object"
                    )
                if probers.size:
                    probing_lanes.append(k)
                    probers_per_lane.append(probers)
                    targets_per_lane.append(targets)
                    values_per_lane.append(
                        value_models[k].observe_many(probers, targets)
                    )

            if probing_lanes:
                # One cross-lane scatter for the whole batch: (lane,
                # player) pairs are unique within a round, so fancy-index
                # += is exact.
                lane_idx = np.repeat(
                    np.array(probing_lanes, dtype=np.int64),
                    [p.size for p in probers_per_lane],
                )
                flat_probers = np.concatenate(probers_per_lane)
                flat_targets = np.concatenate(targets_per_lane)
                if obs is not None:
                    count_probes(int(flat_probers.size))
                probes[lane_idx, flat_probers] += 1
                paid[lane_idx, flat_probers] += costs[lane_idx, flat_targets]
                newly_good = good[lane_idx, flat_targets] & (
                    satisfied_round[lane_idx, flat_probers] < 0
                )
                satisfied_round[
                    lane_idx[newly_good], flat_probers[newly_good]
                ] = round_no

                results = self.strategy.handle_results_batch(
                    round_no,
                    probing_lanes,
                    probers_per_lane,
                    targets_per_lane,
                    values_per_lane,
                )
                for k, probers, targets, values, (vote_mask, halt_mask) in zip(
                    probing_lanes,
                    probers_per_lane,
                    targets_per_lane,
                    values_per_lane,
                    results,
                ):
                    vote_mask = np.asarray(vote_mask, dtype=bool)
                    halt_mask = np.asarray(halt_mask, dtype=bool)
                    board = self.boards.lane(k)
                    if vote_mask.any():
                        v_players = probers[vote_mask]
                        v_objects = targets[vote_mask]
                        v_values = values[vote_mask]
                        if faults is not None:
                            v_players, v_objects, v_values = (
                                faults.filter_block(
                                    k,
                                    round_no,
                                    v_players,
                                    v_objects,
                                    v_values,
                                    PostKind.VOTE,
                                )
                            )
                        if v_players.size:
                            board.post_block(
                                round_no,
                                v_players,
                                v_objects,
                                v_values,
                                PostKind.VOTE,
                            )
                    if record_reports and (~vote_mask).any():
                        r_players = probers[~vote_mask]
                        r_objects = targets[~vote_mask]
                        r_values = values[~vote_mask]
                        if faults is not None:
                            r_players, r_objects, r_values = (
                                faults.filter_block(
                                    k,
                                    round_no,
                                    r_players,
                                    r_objects,
                                    r_values,
                                    PostKind.REPORT,
                                )
                            )
                        if r_players.size:
                            board.post_block(
                                round_no,
                                r_players,
                                r_objects,
                                r_values,
                                PostKind.REPORT,
                            )
                    halters = probers[halt_mask]
                    if faults is not None:
                        active[k, halters] = False
                        # a halted player can no longer be pending restart
                        down_until[k, halters] = -1
                    elif halters.size:
                        lane_active_ids[k] = np.setdiff1d(
                            lane_active_ids[k], halters, assume_unique=True
                        )
                    halted_round[k, halters] = round_no

            if self.adversary is not None:
                for k in lanes:
                    self._adversary_turn(k, round_no)

            round_no += 1
        else:
            if alive.any() and self.config.strict:
                raise BudgetExceededError(
                    f"run exceeded {self.config.max_rounds} rounds "
                    f"(strategy={self.strategy.name!r})"
                )
            rounds_out[alive] = round_no

        if obs is not None and faults is not None:
            for key, value in faults.info_total().items():
                obs.counter(f"faults.{key}").add(int(value))

        return [
            self._lane_metrics(
                k, probes, paid, satisfied_round, halted_round, rounds_out
            )
            for k in range(K)
        ]

    # ------------------------------------------------------------------
    def _adversary_turn(self, lane: int, round_no: int) -> None:
        board = self.boards.lane(lane)
        full_view = BillboardView(board, before_round=None)
        actions = self.adversary.act(lane, round_no, full_view)
        if not actions:
            return
        honest = self.instances[lane].honest_mask
        entries = []
        for action in actions:
            player = int(action.player)
            if not (0 <= player < honest.size) or honest[player]:
                raise AdversaryViolationError(
                    f"adversary {self.adversary.name!r} tried to post as "
                    f"player {action.player}, which it does not control"
                )
            entries.append(
                (
                    player,
                    int(action.object_id),
                    float(action.claimed_value),
                    action.kind,
                )
            )
        board.append_many(round_no, entries)

    def _lane_metrics(
        self,
        k: int,
        probes: np.ndarray,
        paid: np.ndarray,
        satisfied_round: np.ndarray,
        halted_round: np.ndarray,
        rounds_out: np.ndarray,
    ) -> RunMetrics:
        inst = self.instances[k]
        sat_honest = satisfied_round[k][inst.honest_mask] >= 0
        # np.array (not .copy()) detaches each lane row into a plain
        # in-memory ndarray even when the (K, n) state is memmap-backed
        # (see repro.world.playerstate), so metrics never reference an
        # engine-lifetime temp-file mapping.
        return RunMetrics(
            honest_mask=inst.honest_mask.copy(),
            probes=np.array(probes[k]),
            paid=np.array(paid[k]),
            satisfied_round=np.array(satisfied_round[k]),
            halted_round=np.array(halted_round[k]),
            rounds=int(rounds_out[k]),
            all_honest_satisfied=bool(sat_honest.all()),
            strategy_info=self.strategy.info(k),
            fault_info=(
                self.faults.info(k) if self.faults is not None else {}
            ),
            trace=None,
        )
