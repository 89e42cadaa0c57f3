"""The three simulation workloads and their working process.

Each workload is a *unit* of runner calls fixed by the seed. The timed
phase repeats the unit until the time is up; every repetition must
reproduce the unit's digest (SHA-256 over each call's
``TrialResults.per_trial``), and seeds with a committed digest must
match it. The working process talks to ``run.py`` over stdin/stdout:
it prints ``{"event": "ready"}`` once set up, waits for ``go`` (or
``exit``), then prints one ``{"event": "result", ...}`` line.

Run as ``python3 perfbench/sims.py WORKLOAD SEED SECONDS TRACE OUT_DIR``
(``run.py`` does this; ``src/`` must be on ``PYTHONPATH``, as it must be
for any import of this module).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.sim.runner as runner
import repro.world.generators as generators
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.billboard.board import Billboard
from repro.billboard.lanes import LaneBoard
from repro.billboard.post import PostKind
from repro.billboard.sparse import SparseBoard, SparseVoteLedger
from repro.billboard.votes import VoteLedger
from repro.core.batched import BatchedDistillStrategy
from repro.core.distill import DistillStrategy
from repro.exec.serial import SerialExecutor
from repro.faults.batched import BatchedFaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.registry import Counter, Registry
from repro.sim.batch_engine import BatchedEngine
from repro.sim.engine import EngineConfig, SynchronousEngine
from repro.world import valuemodel

from hostspeed import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: the workloads this module runs, in the order ``run.py`` lists them
SIM_WORKLOADS = ("scalar_e3", "lanes_grid", "sparse_1e5")


# ----------------------------------------------------------------------
# Per-round and per-trial clock through the public ``obs=`` argument
# ----------------------------------------------------------------------
def stamping_registry() -> Any:
    """An ``obs.Registry`` whose round and trial counters log a timestamp.

    The engines bump ``engine.rounds``/``batch.rounds`` once per round
    (the batched engine then ``batch.lane_rounds`` by the lanes it
    advanced) and the runner bumps ``trial.completed`` per finished trial
    or lane group, so the log gives round walls and trial latencies
    without patching any code. Cost: a clock read or two per round.
    """
    stamped = ("engine.rounds", "batch.rounds", "batch.lane_rounds", "trial.completed")

    class _StampedCounter(Counter):
        __slots__ = ("log",)

        def add(self, amount: int = 1) -> None:
            self.value += int(amount)
            self.log.append((self.name, time.perf_counter(), int(amount)))

    class _StampingRegistry(Registry):
        def __init__(self) -> None:
            super().__init__()
            self.log: List[Tuple[str, float, int]] = []

        def counter(self, name: str) -> Counter:
            if name in stamped and name not in self._counters:
                handle = _StampedCounter(name)
                handle.log = self.log
                self._counters[name] = handle
            return super().counter(name)

    return _StampingRegistry()


def round_costs(log: Sequence[Tuple[str, float, int]]) -> List[float]:
    """Mean seconds per trial-round, one sample per trial.

    A trial's rounds run from its first round stamp to its completion
    stamp; a lane group's wall is divided by the lane-rounds it advanced
    (its ``batch.lane_rounds`` increments) and counts once per lane.
    """
    out: List[float] = []
    first: Optional[float] = None
    trial_rounds = 0
    for name, stamp, amount in log:
        if name == "trial.completed":
            if first is not None and trial_rounds:
                out.extend([(stamp - first) / trial_rounds] * amount)
            first, trial_rounds = None, 0
            continue
        if name != "batch.lane_rounds" and first is None:
            first = stamp
        if name != "batch.rounds":
            trial_rounds += amount
    return out


def trial_latencies(
    log: Sequence[Tuple[str, float, int]], call_start: float
) -> List[float]:
    """Seconds from the previous result (or the call) to each trial's.

    A lane group's trials all complete together, so each of them gets the
    group's latency.
    """
    out: List[float] = []
    previous = call_start
    for name, stamp, amount in log:
        if name == "trial.completed":
            out.extend([stamp - previous] * amount)
            previous = stamp
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Call:
    """One runner call of a unit: ``run(obs)`` returns its TrialResults."""

    def __init__(self, run: Callable[[Any], List[Any]], trials: int) -> None:
        self.run = run
        self.trials = trials


def _planted(n: int, alpha: float) -> Callable[[np.random.Generator], Any]:
    # looked up per call so the traced run's wrapper on the module
    # attribute sees every instance build
    return lambda rng: generators.planted_instance(
        n=n, m=n, beta=1.0 / n, alpha=alpha, rng=rng
    )


def e3_trials(make_instance: Callable[..., Any], n_trials: int, seed: Any, config: EngineConfig, **knobs: Any) -> Any:
    """``run_trials`` for DISTILL vs split-vote on the serial executor."""
    return runner.run_trials(
        make_instance,
        DistillStrategy,
        SplitVoteAdversary,
        n_trials=n_trials,
        seed=seed,
        config=config,
        n_jobs=1,
        executor="serial",
        **knobs,
    )


E3_CONFIG = EngineConfig(max_rounds=500_000)
SPARSE_CONFIG = EngineConfig(max_rounds=100_000, record_reports=True)


def scalar_e3_calls(seed: int, n: int = 4096, calls: int = 6, trials: int = 8) -> List[Call]:
    """The E3 cell (alpha=0.9, n=m=4096, beta=1/n, DISTILL vs split-vote)
    on the default path, pinned explicitly: scalar engine, Post-object
    board, dense ledger, serial executor."""
    make_instance = _planted(n, 0.9)

    def call(index: int) -> Call:
        return Call(
            lambda obs: [
                e3_trials(make_instance, trials, [seed, index], E3_CONFIG,
                           batch_lanes=1, substrate="dense", obs=obs)
            ],
            trials,
        )

    return [call(index) for index in range(calls)]


def lanes_grid_cells(seed: int, n: int = 4096, trials: int = 16) -> List[Any]:
    """The three lanes_grid cells: fault-free, 25% post loss, and loss
    plus 5% crashes restarting after 4 rounds (alpha=0.2, beta=1/n)."""
    make_instance = _planted(n, 0.2)
    plans = [
        None,
        FaultPlan(post_loss_rate=0.25),
        FaultPlan(post_loss_rate=0.25, crash_rate=0.05, restart_after=4),
    ]
    return [
        runner.GridCell(
            make_instance,
            DistillStrategy,
            SplitVoteAdversary,
            n_trials=trials,
            seed=[seed, index],
            fault_plan=plan,
        )
        for index, plan in enumerate(plans)
    ]


def lanes_grid_calls(seed: int, n: int = 4096, trials: int = 16) -> List[Call]:
    """One ``run_trial_grid`` call over the cells, 32 lanes per group."""
    cells = lanes_grid_cells(seed, n, trials)
    return [
        Call(
            lambda obs: runner.run_trial_grid(cells, config=E3_CONFIG, batch_lanes=32, obs=obs),
            trials * len(cells),
        )
    ]


def sparse_1e5_calls(seed: int, n: int = 100_000, substrate: Optional[str] = None) -> List[Call]:
    """One E3-style trial (alpha=0.75, beta=1/n, reports recorded) on the
    default auto substrate, which resolves to the sparse board at this n."""
    make_instance = _planted(n, 0.75)
    return [
        Call(
            lambda obs: [
                e3_trials(make_instance, 1, seed, SPARSE_CONFIG,
                           batch_lanes=1, substrate=substrate, obs=obs)
            ],
            1,
        )
    ]


def unit_calls(workload: str, seed: int) -> List[Call]:
    if workload == "scalar_e3":
        return scalar_e3_calls(seed)
    if workload == "lanes_grid":
        return lanes_grid_calls(seed)
    if workload == "sparse_1e5":
        return sparse_1e5_calls(seed)
    raise ValueError(f"unknown simulation workload {workload!r}")


def warmup_calls(workload: str) -> List[Call]:
    """A small run down the same code path, so imports and first-call
    costs land in set-up, not in the timed phase."""
    if workload == "scalar_e3":
        return scalar_e3_calls(0, n=256, calls=1, trials=2)
    if workload == "lanes_grid":
        return lanes_grid_calls(0, n=256, trials=2)
    return sparse_1e5_calls(0, n=2048, substrate="sparse")


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def results_digest(results: Sequence[Any]) -> str:
    """SHA-256 over each TrialResults' ``per_trial`` arrays, keys sorted."""
    digest = hashlib.sha256()
    for result in results:
        for key in sorted(result.per_trial):
            digest.update(key.encode())
            digest.update(
                np.ascontiguousarray(result.per_trial[key], np.float64).tobytes()
            )
    return digest.hexdigest()


def committed_digest(workload: str, seed: int) -> Optional[str]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(workload, {}).get(str(seed))


def cross_check(workload: str, seed: int, results: Sequence[Any]) -> List[str]:
    """Recompute part of the unit down an independent engine path.

    The scalar and batched engines are pinned bit-identical, so any seed
    can be checked without a committed digest: scalar_e3's first call is
    replayed on the batched engine, lanes_grid's first trial of each cell
    on the scalar engine, and sparse_1e5's trial on the batched engine.
    Returns one message per mismatch.
    """
    if workload == "scalar_e3":
        first = results[0]
        replays = [(first, e3_trials(_planted(4096, 0.9), first.n_trials, [seed, 0], E3_CONFIG,
                                      batch_lanes=first.n_trials, substrate="dense"))]
    elif workload == "lanes_grid":
        replays = [
            (result, e3_trials(cell.make_instance, 1, cell.seed, E3_CONFIG,
                                batch_lanes=1, fault_plan=cell.fault_plan))
            for cell, result in zip(lanes_grid_cells(seed), results)
        ]
    else:
        replays = [(results[0], e3_trials(_planted(100_000, 0.75), 1, seed, SPARSE_CONFIG, batch_lanes=2))]
    problems: List[str] = []
    for index, (result, replay) in enumerate(replays):
        rows = replay.n_trials
        for key in sorted(result.per_trial):
            if not np.array_equal(result.per_trial[key][:rows], replay.per_trial[key]):
                problems.append(f"{workload} result {index}: per_trial[{key!r}] differs on the other engine")
    return problems


# ----------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------
class Phase:
    """What one timed phase observed, in reference seconds: per-call walls
    per repetition, trial latencies, per-trial round costs; and digest
    outcomes."""

    def __init__(self) -> None:
        self.walls: List[List[float]] = []
        self.trial_lat: List[float] = []
        self.round_costs: List[float] = []
        self.digests: List[str] = []
        self.errors: List[str] = []
        self.counters: Dict[str, int] = {}
        self.results: List[Any] = []
        #: host speed over the phase (:meth:`RefClock.speed`)
        self.speed = 1.0
        #: real seconds in runner calls, pauses left out
        self.real_wall = 0.0

    def timed_wall(self) -> float:
        """Seconds spent in runner calls over every repetition."""
        return sum(map(sum, self.walls))

    def median_unit_wall(self) -> float:
        """The median repetition's seconds (the untraced reference)."""
        return statistics.median(map(sum, self.walls))


def run_phase(calls: Sequence[Call], seconds: float, max_reps: int = 0, pauses: bool = True) -> Phase:
    """Repeat the unit until ``seconds`` pass (whole units, at least one).

    With ``pauses``, the phase stops for the reference kernel every
    ``hostspeed.EVERY_S`` seconds of CPU time, wherever the program is.
    """
    phase = Phase()
    clock = RefClock()
    deadline = time.perf_counter() + seconds
    #: per repetition: the registry's log and each call's (start, end, log slice)
    stamped: List[Tuple[List[Tuple[str, float, int]], List[Tuple[float, float, int, int]]]] = []
    with clock.interrupting() if pauses else contextlib.nullcontext():
        while True:
            registry = stamping_registry()
            calls_at: List[Tuple[float, float, int, int]] = []
            results: List[Any] = []
            try:
                for call in calls:
                    start = time.perf_counter()
                    mark = len(registry.log)
                    out = call.run(registry)
                    calls_at.append((start, time.perf_counter(), mark, len(registry.log)))
                    results.extend(out)
            except Exception as exc:  # a raising trial is a failed op
                phase.errors.append(f"{type(exc).__name__}: {exc}")
                break
            stamped.append((registry.log, calls_at))
            phase.digests.append(results_digest(results))
            phase.counters = registry.counters()
            phase.results = results
            if max_reps and len(stamped) >= max_reps:
                break
            if time.perf_counter() >= deadline:
                break
    clock.finish()
    for log, calls_at in stamped:
        ref_log = [(name, clock.ref(stamp), amount) for name, stamp, amount in log]
        phase.walls.append([clock.span(start, end) for start, end, _m, _n in calls_at])
        for start, _end, mark, stop in calls_at:
            phase.trial_lat.extend(trial_latencies(ref_log[mark:stop], clock.ref(start)))
        phase.round_costs.extend(round_costs(ref_log))
        phase.real_wall += sum(clock.real_span(start, end) for start, end, _m, _n in calls_at)
    phase.speed = clock.speed()
    return phase


def check_phase(phase: Phase, expect: Optional[str]) -> List[str]:
    """Digest gate: every repetition equals the first and the committed
    digest (when the seed has one)."""
    problems = list(phase.errors)
    reference = expect if expect is not None else (phase.digests[0] if phase.digests else None)
    for rep, digest in enumerate(phase.digests):
        if digest != reference:
            problems.append(
                f"repetition {rep}: digest {digest[:16]} != expected {str(reference)[:16]}"
            )
    return problems


def unit_ops(workload: str, calls: Sequence[Call], phase: Phase) -> int:
    """Ops in one unit: trials, or simulated rounds for sparse_1e5."""
    if workload == "sparse_1e5":
        return int(sum(r.per_trial["rounds"].sum() for r in phase.results))
    return sum(call.trials for call in calls)


def mean_ms(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) * 1e3 if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Traced repetition
# ----------------------------------------------------------------------
def install_sim_tracing(recorder: Any) -> None:
    """Wrap the public entry points of every simulation layer."""
    counts = recorder.counts

    def new_tag(kind: str) -> Callable[..., None]:
        def enter(engine: Any) -> None:
            counts[kind] += 1
            recorder.tag = f"{kind}{counts[kind] - 1}"
            if hasattr(engine, "boards"):
                counts["rounds_before"] = engine.obs.counter("batch.rounds").value

        return enter

    def engine_done(_result: Any, engine: Any) -> None:
        boards = engine.boards.lanes if hasattr(engine, "boards") else [engine.board]
        counts["effective_votes"] += sum(b.ledger.effective_vote_count for b in boards)
        if hasattr(engine, "boards"):
            rounds = engine.obs.counter("batch.rounds").value - counts["rounds_before"]
            counts["lane_slots"] += engine.n_lanes * rounds

    def entry_votes(_result: Any, _self: Any, _round: int, entries: Sequence[Any]) -> None:
        counts["votes_posted"] += sum(1 for e in entries if e[3] is PostKind.VOTE)

    def block_votes(_result: Any, _self: Any, _round: int, players: Any, _o: Any, _v: Any, kind: Any) -> None:
        if kind is PostKind.VOTE:
            counts["votes_posted"] += len(players)

    wrap = recorder.wrap
    wrap(runner, "run_trials", "sim.runner")
    wrap(runner, "run_trial_grid", "sim.runner")
    wrap(SerialExecutor, "run", "exec.serial")
    wrap(SynchronousEngine, "run", "sim.engine", on_enter=new_tag("trial"), on_exit=engine_done)
    wrap(BatchedEngine, "run", "sim.batch_engine", on_enter=new_tag("group"), on_exit=engine_done)
    wrap(generators, "planted_instance", "world.instance")
    for cls in vars(valuemodel).values():
        if isinstance(cls, type) and "observe_many" in vars(cls):
            wrap(cls, "observe_many", "world.observe")
    for cls, attr in (
        (DistillStrategy, "choose_probes"),
        (DistillStrategy, "handle_results"),
        (BatchedDistillStrategy, "choose_probes_batch"),
        (BatchedDistillStrategy, "handle_results_batch"),
    ):
        wrap(cls, attr, "core.strategy")
    # VectorSlotSplitVoteAdversary inherits act: one wrapper covers both
    wrap(SplitVoteAdversary, "act", "adversaries.act")
    entries_len = lambda _self, _round, entries: len(entries)  # noqa: E731
    wrap(Billboard, "append_many", "billboard.append", items=entries_len, on_exit=entry_votes)
    wrap(SparseBoard, "append_many", "billboard.append", items=entries_len, on_exit=entry_votes)
    wrap(LaneBoard, "post_block", "billboard.append",
         items=lambda _s, _r, players, *_a: len(players), on_exit=block_votes)
    wrap(LaneBoard, "post_entries", "billboard.append", items=entries_len, on_exit=entry_votes)
    for ledger in (VoteLedger, SparseVoteLedger):
        for attr in ("current_vote_array", "counts_in_window", "objects_with_votes"):
            wrap(ledger, attr, "billboard.query")
    for attr in ("round_start", "apply_crashes", "filter_block"):
        wrap(BatchedFaultInjector, attr, "faults")


def sim_layer_metrics(totals: Dict[str, Dict[str, float]], counters: Dict[str, int], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (see README.md for the map)."""
    def get(layer: str, key: str = "self_s") -> float:
        return float(totals.get(layer, {}).get(key, 0.0))

    posts = get("billboard.append", "items")
    return {
        "adversaries.act.self_s": get("adversaries.act"),
        "adversaries.act.calls": get("adversaries.act", "calls"),
        "billboard.append.self_s": get("billboard.append"),
        "billboard.append.posts": posts,
        "billboard.append.us_per_post": get("billboard.append") / posts * 1e6 if posts else 0.0,
        "billboard.query.self_s": get("billboard.query"),
        "billboard.query.calls": get("billboard.query", "calls"),
        "billboard.effective_vote_frac": (
            counts["effective_votes"] / counts["votes_posted"] if counts["votes_posted"] else 0.0
        ),
        "sim.batch_engine.self_s": get("sim.batch_engine"),
        "sim.batch_engine.lane_occupancy": (
            counters.get("batch.lane_rounds", 0) / counts["lane_slots"] if counts["lane_slots"] else 0.0
        ),
        "sim.engine.self_s": get("sim.engine"),
        "exec.dispatch.self_s": get("sim.runner") + get("exec.serial"),
        "faults.self_s": get("faults"),
        "faults.calls": get("faults", "calls"),
        "core.strategy.self_s": get("core.strategy"),
        "core.strategy.calls": get("core.strategy", "calls"),
        "world.instance.self_s": get("world.instance"),
        "world.observe.self_s": get("world.observe"),
        "sim.rounds": float(counters.get("engine.rounds", 0) + counters.get("batch.lane_rounds", 0)),
        "sim.probes": float(counters.get("engine.probes", 0) + counters.get("batch.probes", 0)),
    }


# ----------------------------------------------------------------------
# Working process
# ----------------------------------------------------------------------
def _emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: Sequence[str]) -> int:
    workload, seed, seconds, trace, out_dir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    from spans import SpanRecorder, layer_totals

    for call in warmup_calls(workload):
        call.run(stamping_registry())
    calls = unit_calls(workload, seed)
    _emit({"event": "ready"})
    if sys.stdin.readline().strip() != "go":
        return 0

    expect = committed_digest(workload, seed)
    # trace mode splits the time: untraced repetitions for the overhead
    # reference, then exactly one traced repetition of the same unit
    phase = run_phase(calls, seconds / 2 if trace else seconds)
    # ru_maxrss only grows: read it before the traced unit and the
    # cross-check, so it covers set-up and the timed phase alone
    rss = peak_rss_mb()
    problems = check_phase(phase, expect)
    result: Dict[str, Any] = {"event": "result", "seed": seed, "committed_digest": expect is not None}
    if phase.errors:
        pass
    elif trace:
        # the traced unit is checked against the untraced digest; the
        # cross-check on the other engine is left to untraced runs
        recorder = SpanRecorder()
        install_sim_tracing(recorder)
        try:
            # no pause inside the unit, or its self times would hold them
            traced = run_phase(calls, 0.0, max_reps=1, pauses=False)
        finally:
            recorder.close()
        problems += [f"traced: {p}" for p in check_phase(traced, phase.digests[0])]
        spans = recorder.finished()
        totals = layer_totals(spans, recorder.layer_of)
        layers = sim_layer_metrics(totals, traced.counters, recorder.counts)
        traced_wall = traced.timed_wall()
        layers["trace.overhead_frac"] = traced_wall / phase.median_unit_wall() - 1.0 if traced_wall else 0.0
        span_path = os.path.join(out_dir, f"{workload}-seed{seed}-spans.json")
        recorder.write(span_path, {"workload": workload, "seed": seed})
        result.update(layers=layers, totals=totals, traced_wall=traced_wall, span_file=span_path)
    else:
        problems += cross_check(workload, seed, phase.results)
    reps = len(phase.walls)
    ops = unit_ops(workload, calls, phase) * reps if phase.results else 0
    wall = phase.timed_wall()
    result.update(
        reps=reps,
        attempted=max(reps, 1) * sum(call.trials for call in calls),
        failed=(len(problems) > 0) * max(reps, 1) * sum(call.trials for call in calls),
        problems=problems,
        ops=ops,
        timed_wall=wall,
        walls=phase.walls,
        ops_per_s=ops / wall if wall else 0.0,
        # sparse_1e5's ops are rounds: its op latency is the round time
        latency_ms=mean_ms(phase.round_costs if workload == "sparse_1e5" else phase.trial_lat),
        epoch_ms=mean_ms(phase.round_costs),
        trial_samples=len(phase.trial_lat),
        round_samples=len(phase.round_costs),
        peak_rss_mb=rss,
        digest=phase.digests[0] if phase.digests else None,
        host_speed=phase.speed,
        real_ops_per_s=ops / phase.real_wall if phase.real_wall else 0.0,
    )
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main(sys.argv[1:]))
