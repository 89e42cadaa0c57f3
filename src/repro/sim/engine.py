"""The synchronous round engine.

One round of the paper's execution model (Section 2.1), as the engine runs
it:

1. every active honest player reads the billboard *as of the end of the
   previous round* (a :class:`BillboardView` with horizon ``round_no``),
2. the honest cohort strategy picks one probe per active player (coin
   flips happen here),
3. probes are executed: each prober pays the object's cost and observes a
   value through the instance's :class:`~repro.world.valuemodel.ValueModel`,
4. the strategy decides which probes become votes and which players halt;
   votes are posted (negative reports are posted only when
   ``record_reports`` is on — they influence nothing, see
   :class:`~repro.billboard.post.PostKind`),
5. the adversary observes the *complete* board — including this round's
   honest posts and therefore all realized coin flips, the adaptive model
   of Section 2.3 — and posts one block under dishonest identities,
   checked by :func:`~repro.adversaries.base.check_block` before it lands.

The engine stops when every honest player is satisfied (has probed a
ground-truth good object), when the strategy declares itself finished
(prescribed-length runs, Section 5.3), or — as a safety net — when
``max_rounds`` elapses, which raises
:class:`~repro.errors.BudgetExceededError` unless ``strict`` is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.adversaries.base import Adversary, check_block
from repro.billboard.board import Billboard
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import PostKind
from repro.billboard.sparse import choose_substrate
from repro.billboard.views import BillboardView
from repro.billboard.votes import VoteMode
from repro.errors import BudgetExceededError, SimulationError
from repro.sim.metrics import RunMetrics
from repro.strategies.base import Strategy, StrategyContext
from repro.world.instance import Instance
from repro.world.valuemodel import TrueValueModel, ValueModel

if TYPE_CHECKING:  # imported lazily to avoid a package-level cycle
    from repro.faults.injector import FaultInjector
    from repro.obs.registry import Registry


@dataclass
class EngineConfig:
    """Engine knobs.

    Attributes
    ----------
    max_rounds:
        Safety round budget. DISTILL terminates with probability one, so a
        run hitting this limit is a bug (``strict=True`` raises) or an
        intentionally truncated measurement (``strict=False`` returns
        what happened).
    strict:
        Whether exhausting ``max_rounds`` raises.
    record_reports:
        Whether negative probe reports are appended to the board. They are
        protocol-inert (DISTILL uses positive reports only) but part of the
        model's convention; enable for tracing/audits, disable (default)
        for speed.
    vote_mode:
        Reader-side vote rule for the run's billboard.
    max_votes_per_player:
        The ``f`` of Section 4.1 (MULTI mode).
    """

    max_rounds: int = 1_000_000
    strict: bool = True
    record_reports: bool = False
    vote_mode: VoteMode = VoteMode.SINGLE
    max_votes_per_player: int = 1
    #: record a structured event log (see :mod:`repro.sim.trace`)
    trace: bool = False


class SynchronousEngine:
    """Runs one honest cohort strategy against one adversary.

    Parameters
    ----------
    instance:
        The world (objects + roles).
    strategy:
        Honest cohort protocol. Its :class:`StrategyContext` is built from
        the instance unless ``ctx`` overrides it (e.g. to feed DISTILL a
        wrong hardwired ``α`` on purpose, as Section 5.1's wrapper does).
    adversary:
        Byzantine controller of the dishonest players; ``None`` means the
        dishonest players stay silent.
    value_model:
        Observation model for honest probes; defaults to ground truth.
    rng:
        Generator for the honest cohort's coins. The adversary receives
        its own generator via ``adversary_rng`` so that honest and
        adversarial randomness are independent streams.
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector` applying
        infrastructure faults (lossy billboard, churn) to the run.
        ``None`` — the default, and the paper's model — leaves every
        code path byte-identical to the fault-free engine. The injector
        must carry its *own* rng stream.
    obs:
        Optional :class:`~repro.obs.registry.Registry` the run increments
        event counters into (``engine.*``, ``billboard.*``, ``faults.*``).
        Counters only — the engine never reads a clock, keeping
        reprolint's wall-clock ban intact for ``sim``. ``None`` (default)
        costs one predicate check per instrumentation site and results
        are bit-identical either way.
    substrate:
        Post-log selection: ``"dense"`` (the chained :class:`Billboard`),
        ``"sparse"`` (the :class:`~repro.billboard.columnar.ColumnarBoard`),
        or ``"auto"``/``None`` (sparse at or above
        :data:`~repro.billboard.sparse.SPARSE_AUTO_THRESHOLD` players).
        Both read votes through the same ledger. Bit-inert: results, and
        structured traces, are identical either way.
    """

    def __init__(
        self,
        instance: Instance,
        strategy: Strategy,
        adversary: Optional[Adversary] = None,
        value_model: Optional[ValueModel] = None,
        rng: Optional[np.random.Generator] = None,
        adversary_rng: Optional[np.random.Generator] = None,
        config: Optional[EngineConfig] = None,
        ctx: Optional[StrategyContext] = None,
        fault_injector: Optional["FaultInjector"] = None,
        obs: Optional["Registry"] = None,
        substrate: Optional[str] = None,
    ) -> None:
        self.instance = instance
        self.strategy = strategy
        self.adversary = adversary
        self.config = config or EngineConfig()
        self.rng = (
            rng
            if rng is not None
            else np.random.default_rng()  # repro: noqa=RPL003(unseeded interactive default; seeded callers pass explicit streams)
        )
        self.adversary_rng = (
            adversary_rng
            if adversary_rng is not None
            else np.random.default_rng()  # repro: noqa=RPL003(unseeded interactive default; seeded callers pass explicit streams)
        )
        self.value_model = value_model or TrueValueModel(instance.space)
        self.ctx = ctx or StrategyContext(
            n=instance.n,
            m=instance.m,
            alpha=instance.alpha,
            beta=instance.beta,
            good_threshold=instance.space.good_threshold,
        )
        self.substrate = choose_substrate(substrate, instance.n)
        board_args = (instance.n, instance.m, self.config.vote_mode,
                      self.config.max_votes_per_player)
        self.board: ColumnarBoard = (
            ColumnarBoard(*board_args)
            if self.substrate == "sparse"
            else Billboard(*board_args)
        )
        self.fault_injector = fault_injector
        self.obs = obs
        #: populated when ``config.trace`` is on
        self.trace = None
        if self.config.trace:
            from repro.sim.trace import Trace

            self.trace = Trace()

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Execute rounds until a stop condition; return the metrics."""
        inst = self.instance
        n = inst.n
        good_mask = inst.space.good_mask
        costs = inst.space.costs

        probes = np.zeros(n, dtype=np.int64)
        paid = np.zeros(n, dtype=np.float64)
        satisfied_round = np.full(n, -1, dtype=np.int64)
        halted_round = np.full(n, -1, dtype=np.int64)
        # The active set is kept as a sorted id array maintained
        # incrementally (a keep-mask on crash and on halt, a merge on
        # restart), so a round's cost scales with the players that
        # actually act — there is no per-round O(n) mask scan. The arrays
        # stay bit-identical to the flatnonzero(active) scans they replace:
        # every update preserves sorted unique ids.
        active_ids = inst.honest_ids.copy()  # honest players still probing

        faults = self.fault_injector
        #: crashed players keyed by the round they restart in; crashed
        #: players cannot probe or halt while down, so each entry stays
        #: exact until its round arrives (restart_after is fixed, hence
        #: at most one batch per restart round)
        restart_at: Dict[int, np.ndarray] = {}
        n_down = 0
        if faults is not None:
            faults.reset()

        self.strategy.reset(self.ctx, self.rng)
        if self.adversary is not None:
            self.adversary.reset(inst, self.adversary_rng)

        # Prefetched counter handles: the hot loop pays one attribute
        # increment per event when observing, one predicate check when not.
        obs = self.obs
        if obs is not None:
            obs.counter(f"substrate.{self.substrate}").add(1)
            count_round = obs.counter("engine.rounds").add
            count_probes = obs.counter("engine.probes").add
            count_votes = obs.counter("engine.votes").add
            count_halts = obs.counter("engine.halts").add
            self._count_honest_posts = obs.counter("billboard.posts_honest").add
            self._count_adversary_posts = obs.counter("billboard.posts_adversary").add

        round_no = 0
        while round_no < self.config.max_rounds:
            if faults is not None:
                restarts = restart_at.pop(round_no, None)
                if restarts is not None:
                    n_down -= restarts.size
                    # restarts were down, so the merge is of disjoint sets
                    active_ids = np.sort(np.concatenate((active_ids, restarts)))
                    faults.note_restarts(restarts)
                    self.strategy.on_player_restart(round_no, restarts)
                    if self.trace is not None:
                        self.trace.record(
                            round_no, "fault_restart", players=restarts.tolist()
                        )
            if active_ids.size == 0 and n_down == 0:
                break
            if self.strategy.finished(round_no):
                break
            if obs is not None:
                count_round()
            if faults is not None:
                # crashes land before probing: a player crashing in round
                # r does not probe in round r
                crashed = faults.crash_coins(round_no, active_ids)
                if crashed.size:
                    # crashed is drawn from the sorted active_ids
                    keep = np.ones(active_ids.size, dtype=bool)
                    keep[active_ids.searchsorted(crashed)] = False
                    active_ids = active_ids[keep]
                    if faults.plan.restart_after is None:
                        halted_round[crashed] = round_no
                    else:
                        restart_at[round_no + faults.plan.restart_after] = (
                            crashed
                        )
                        n_down += crashed.size
                    if self.trace is not None:
                        self.trace.record(
                            round_no, "fault_crash", players=crashed.tolist()
                        )

            if active_ids.size == 0:
                # everyone is down awaiting restart; the world idles
                if self.adversary is not None:
                    self._adversary_turn(round_no)
                round_no += 1
                continue
            honest_view = BillboardView(self.board, before_round=round_no)
            choices = self.strategy.choose_probes(
                round_no, active_ids, honest_view
            )
            choices = np.asarray(choices, dtype=np.int64)
            if choices.shape != active_ids.shape:
                raise SimulationError(
                    f"strategy {self.strategy.name!r} returned "
                    f"{choices.shape} probes for {active_ids.shape} players"
                )

            # The probing count picks the path: a round where every
            # active player probes (an explore round over a non-empty
            # pool, or an advice round whose advisors all voted) takes
            # active_ids and choices as they are, and builds no
            # positions. Otherwise a mask's true positions are found
            # once and each column is gathered by position, here and
            # for votes and reports below: numpy's boolean gather is
            # several times slower on a mask that is neither nearly
            # empty nor nearly full.
            probing = choices >= 0
            n_probing = int(np.count_nonzero(probing))
            if n_probing == active_ids.size:
                probers, targets = active_ids, choices
            else:
                probe_at = probing.nonzero()[0]
                probers = active_ids.take(probe_at)
                targets = choices.take(probe_at)
            if n_probing and targets.max() >= inst.m:
                raise SimulationError(
                    f"strategy {self.strategy.name!r} probed an unknown object"
                )

            if n_probing:
                if obs is not None:
                    count_probes(n_probing)
                values = self.value_model.observe_many(probers, targets)
                # probers are unique, so np.add.at adds exactly what a
                # fancy ``+=`` would, without its gather-and-scatter
                np.add.at(probes, probers, 1)
                np.add.at(paid, probers, self._probe_costs(round_no, targets, costs))
                if self.trace is not None:
                    self.trace.record(
                        round_no,
                        "probes",
                        players=probers.tolist(),
                        objects=targets.tolist(),
                        values=values.tolist(),
                    )

                hit = probers[good_mask[targets]]
                satisfied_round[hit[satisfied_round[hit] < 0]] = round_no

                vote_mask, halt_mask = self.strategy.handle_results(
                    round_no, probers, targets, values
                )
                # one mask object for both (the local-testing rule's
                # ``good, good``) makes the halters the voters
                halt_is_vote = vote_mask is halt_mask
                vote_mask = np.asarray(vote_mask, dtype=bool)
                halt_mask = (
                    vote_mask if halt_is_vote
                    else np.asarray(halt_mask, dtype=bool)
                )
                # positions from a mask of another length would gather
                # the wrong rows without an error
                if vote_mask.shape != probers.shape or (
                    halt_mask.shape != probers.shape
                ):
                    raise SimulationError(
                        f"strategy {self.strategy.name!r} returned masks of "
                        f"{vote_mask.shape} and {halt_mask.shape} for "
                        f"{probers.shape} probes"
                    )

                vote_at = vote_mask.nonzero()[0]
                n_votes = vote_at.size
                voters = probers.take(vote_at)
                if n_votes:
                    if obs is not None:
                        count_votes(n_votes)
                    self._post_honest(
                        round_no,
                        voters,
                        targets.take(vote_at),
                        values.take(vote_at),
                        PostKind.VOTE,
                        faults,
                    )
                if self.config.record_reports and n_votes < n_probing:
                    if n_votes:
                        report_at = (~vote_mask).nonzero()[0]
                        reported = (
                            probers.take(report_at),
                            targets.take(report_at),
                            values.take(report_at),
                        )
                    else:
                        reported = probers, targets, values
                    self._post_honest(
                        round_no, *reported, PostKind.REPORT, faults
                    )

                halters = (
                    voters if halt_is_vote
                    else probers.take(halt_mask.nonzero()[0])
                )
                if halters.size:
                    if obs is not None:
                        count_halts(int(halters.size))
                    # halters probed this round, so they are active —
                    # never pending a restart; probers are active_ids at
                    # the probing positions, so dropping them by mask
                    # keeps the ids sorted. The halting mask is mostly
                    # false, so its complement is nearly full and the
                    # boolean gather is the cheap one.
                    if probers is active_ids:
                        active_ids = active_ids[~halt_mask]
                    else:
                        keep = np.ones(active_ids.size, dtype=bool)
                        keep[probe_at] = ~halt_mask
                        active_ids = active_ids[keep]
                    halted_round[halters] = round_no
                    if self.trace is not None:
                        self.trace.record(
                            round_no, "halt", players=halters.tolist()
                        )

            if self.adversary is not None:
                self._adversary_turn(round_no)

            round_no += 1
        else:
            if self.config.strict:
                raise BudgetExceededError(
                    f"run exceeded {self.config.max_rounds} rounds "
                    f"(strategy={self.strategy.name!r})"
                )

        if obs is not None and faults is not None:
            # fold the injector's realization summary (all ints) into the
            # faults.* phase so obs files carry fault provenance too
            for key, value in faults.info().items():
                obs.counter(f"faults.{key}").add(int(value))

        sat_honest = satisfied_round[inst.honest_mask] >= 0
        return RunMetrics(
            honest_mask=inst.honest_mask.copy(),
            probes=probes,
            paid=paid,
            satisfied_round=satisfied_round,
            halted_round=halted_round,
            rounds=round_no,
            all_honest_satisfied=bool(sat_honest.all()),
            strategy_info=self.strategy.info(),
            fault_info=faults.info() if faults is not None else {},
            trace=self.trace,
        )

    # ------------------------------------------------------------------
    def _post_honest(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kind: PostKind,
        faults: Optional["FaultInjector"],
    ) -> None:
        """Append one same-kind block of honest posts, as columns,
        routing it through the lossy billboard when faults are injected.
        Vote trace events are recorded only for posts that land; drops
        get their own event kind."""
        keep = None if faults is None else faults.keep_mask(players.shape[0])
        landed = (
            (players, objects, values) if keep is None
            else (players[keep], objects[keep], values[keep])
        )
        if landed[0].size:
            self.board.post_block(round_no, *landed, kind)
            if self.obs is not None:
                self._count_honest_posts(int(landed[0].size))
        if self.trace is None:
            return
        if kind is PostKind.VOTE:
            for player, object_id in zip(
                landed[0].tolist(), landed[1].tolist()
            ):
                self.trace.record(
                    round_no, "vote", player=player, object=object_id
                )
        if keep is None:
            return
        for i in np.flatnonzero(~keep).tolist():
            self.trace.record(
                round_no,
                "fault_drop",
                player=int(players[i]),
                object=int(objects[i]),
                post_kind=kind.value,
            )

    # ------------------------------------------------------------------
    def _probe_costs(
        self, round_no: int, targets: np.ndarray, base_costs: np.ndarray
    ) -> np.ndarray:
        """Cost charged for each probe this round.

        The base engine charges the objects' static costs (the paper's
        model); :class:`~repro.extensions.pricing.PricedEngine` overrides
        this to let reputation feed back into prices (the Section 6 open
        problem).
        """
        return base_costs[targets]

    # ------------------------------------------------------------------
    def _adversary_turn(self, round_no: int) -> None:
        """Let the adversary post its block, identities checked first.

        The block is checked whole before anything hits the board, and
        ``post_block`` is all-or-nothing, so a violating adversary leaves
        no partial round behind.
        """
        full_view = BillboardView(self.board, before_round=None)
        block = self.adversary.act(round_no, full_view)
        if block is None:
            return
        check_block(self.adversary.name, block, self.instance.honest_mask)
        self.board.post_block(round_no, *block)
        if self.obs is not None:
            self._count_adversary_posts(len(block.players))
        if self.trace is not None:
            for player, object_id in zip(
                np.asarray(block.players).tolist(),
                np.asarray(block.objects).tolist(),
            ):
                self.trace.record(
                    round_no,
                    "adversary",
                    player=player,
                    object=object_id,
                    post_kind=block.kind.value,
                )
