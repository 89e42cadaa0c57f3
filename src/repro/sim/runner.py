"""Monte-Carlo trial runner.

Every experiment in the paper is a statement about *expectations* (or
high-probability events) over the algorithm's coins. The runner executes
many independent trials — fresh world, fresh coins, fresh adversary state —
and aggregates the per-run summaries into arrays with confidence intervals.

Factory-based design: the caller supplies callables that build the
instance, strategy, and adversary for each trial, so that worlds can be
resampled (expectations over the instance distribution, as in the Yao-style
lower-bound experiments) or held fixed (expectations over coins only).

Trials are independent by construction (each gets its own
:class:`~repro.rng.RngFactory` child), so the runner can fan them out over
a process pool (``n_jobs``): per-trial seed sequences are derived *before*
dispatch, in trial order, and results are re-assembled in trial order, so
the aggregated arrays are bit-identical to the serial path for the same
seed regardless of ``n_jobs`` or chunking.

Execution is delegated to :mod:`repro.exec` (``executor=``): the
serial reference backend or the local fork pool, both dispatching the
same pre-derived seeds, so results are bit-identical regardless of where
(or how many times, after crashes) a trial ran.

The runner is additionally hardened for long sweeps (see
``docs/robustness.md``):

* ``timeout=`` — a per-trial wall-clock cap; a hung engine raises
  :class:`~repro.errors.TrialTimeoutError` instead of stalling the
  sweep. Enforced by the monotonic-deadline watchdog in
  :mod:`repro.exec.deadline`, on any thread and both backends.
* a broken pool is rebuilt on the shared
  :class:`~repro.exec.retry.RetryPolicy` backoff; a retry re-dispatches
  the *same* pre-derived seed sequences, so retried trials are
  bit-identical to an undisturbed run. When the retry budget runs out
  the pool finishes the remaining trials in-process rather than giving
  up.
* ``checkpoint_path=`` — completed trials are appended to a JSONL
  checkpoint as they finish; an interrupted sweep resumes from the last
  completed chunk and produces ``per_trial`` arrays bit-identical to an
  uninterrupted run of the same seed.
* ``fault_plan=`` — a :class:`~repro.faults.plan.FaultPlan` applied to
  every trial's engine via the pinned fourth per-trial rng stream
  (reserved as a spare since the parallel-runner change), so enabling
  faults never shifts the world/honest/adversary streams. Faults run on
  the batched engine too (one injector per lane), so ``batch_lanes``
  and ``fault_plan`` compose without a fallback.

Finally, :func:`run_trial_grid` packs trials from *different* experiment
cells sharing ``(n, m)`` — varying alpha/beta/strategy/adversary/fault
plan per lane — into shared engine batches, so a sweep whose cells are
individually too small to fill ``batch_lanes`` still runs full lanes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.billboard.sparse import normalize_substrate
from repro.errors import CheckpointError, ConfigurationError, TrialTimeoutError
from repro.exec import Executor, LocalPoolExecutor, RetryPolicy, SerialExecutor
from repro.exec.deadline import trial_deadline as _trial_deadline
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.manifest import RunManifest, collect_manifest
from repro.obs.registry import Registry, active_registry
from repro.rng import RngFactory, SeedLike, make_seed_sequence
from repro.sim.batch_engine import BatchedEngine, batch_fallback_reason
from repro.sim.engine import EngineConfig, SynchronousEngine
from repro.sim.metrics import RunMetrics
from repro.strategies.base import Strategy, StrategyContext
from repro.world.instance import Instance

if TYPE_CHECKING:  # type-only: avoids a package-level import cycle
    from repro.adversaries.base import Adversary
    from repro.adversaries.batched import BatchedAdversary

InstanceFactory = Callable[[np.random.Generator], Instance]
StrategyFactory = Callable[[], Strategy]
AdversaryFactory = Callable[[], Optional["Adversary"]]
ContextFactory = Callable[[Instance], Optional[StrategyContext]]

#: one trial's outputs: (summary row, strategy info, kept metrics or None)
_TrialRecord = Tuple[Dict[str, float], Dict[str, Any], Optional[RunMetrics]]

#: one dispatchable unit: (trial index, pre-derived seed sequence)
_IndexedSeed = Tuple[int, np.random.SeedSequence]


@dataclass
class TrialResults:
    """Aggregated outcomes of a batch of independent trials.

    ``per_trial`` maps each summary key (see
    :meth:`~repro.sim.metrics.RunMetrics.summary`) to an array of one value
    per trial; ``metrics`` optionally keeps the full per-run records.
    """

    per_trial: Dict[str, np.ndarray]
    metrics: List[RunMetrics] = field(default_factory=list)
    strategy_infos: List[Dict[str, Any]] = field(default_factory=list)
    #: provenance record for the sweep (see :mod:`repro.obs.manifest`);
    #: ``None`` only for hand-built instances
    manifest: Optional[RunManifest] = None

    @property
    def n_trials(self) -> int:
        if not self.per_trial:
            raise ConfigurationError(
                "TrialResults carries no per-trial data; it was built "
                "from zero trials"
            )
        key = next(iter(self.per_trial))
        return int(self.per_trial[key].shape[0])

    def _column(self, key: str) -> np.ndarray:
        """One summary statistic's per-trial array, with a helpful error
        naming the available keys when ``key`` is unknown."""
        try:
            return self.per_trial[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown summary key {key!r}; available keys: "
                f"{sorted(self.per_trial)}"
            ) from None

    def mean(self, key: str) -> float:
        """Trial mean of one summary statistic."""
        return float(self._column(key).mean())

    def std(self, key: str) -> float:
        column = self._column(key)
        return float(column.std(ddof=1)) if self.n_trials > 1 else 0.0

    def sem(self, key: str) -> float:
        """Standard error of the mean."""
        return self.std(key) / np.sqrt(self.n_trials)

    def ci95(self, key: str) -> float:
        """Half-width of a normal-approximation 95% confidence interval."""
        return 1.96 * self.sem(key)

    def quantile(self, key: str, q: float) -> float:
        return float(np.quantile(self._column(key), q))

    def success_rate(self) -> float:
        """Fraction of trials in which all honest players succeeded."""
        return self.mean("all_honest_satisfied")

    def describe(self, key: str) -> str:
        return f"{self.mean(key):.3f} ± {self.ci95(key):.3f} (95% CI)"


# ----------------------------------------------------------------------
# Per-trial execution
# ----------------------------------------------------------------------
# The per-trial wall-clock budget is enforced by the monotonic-deadline
# watchdog (see :mod:`repro.exec.deadline`): same TrialTimeoutError,
# same message, but it works off the main thread too, where the old
# SIGALRM interval timer could not.


def _execute_trial(
    trial_factory: RngFactory,
    make_instance: InstanceFactory,
    make_strategy: StrategyFactory,
    make_adversary: AdversaryFactory,
    make_context: Optional[ContextFactory],
    config: Optional[EngineConfig],
    keep_metrics: bool,
    fault_plan: Optional[FaultPlan] = None,
    timeout: Optional[float] = None,
    substrate: Optional[str] = None,
    obs: Optional[Registry] = None,
) -> _TrialRecord:
    """Run one trial from its dedicated rng factory.

    The spawn order below — world, honest coins, adversary coins, faults —
    is a pinned contract (see the stream-order regression test): changing
    it, or dropping a stream, shifts every seeded result in the suite.
    The fourth stream was reserved as an unused spare before the fault
    layer existed, which is exactly why wiring faults through it keeps
    clean runs bit-identical.
    """
    with _trial_deadline(timeout):
        world_rng = trial_factory.spawn_generator()
        honest_rng = trial_factory.spawn_generator()
        adversary_rng = trial_factory.spawn_generator()
        fault_rng = trial_factory.spawn_generator()

        injector = None
        if fault_plan is not None and not fault_plan.is_null():
            injector = FaultInjector(fault_plan, fault_rng)

        instance = make_instance(world_rng)
        strategy = make_strategy()
        adversary = make_adversary()
        ctx = make_context(instance) if make_context is not None else None

        engine = SynchronousEngine(
            instance,
            strategy,
            adversary=adversary,
            rng=honest_rng,
            adversary_rng=adversary_rng,
            config=config,
            ctx=ctx,
            fault_injector=injector,
            obs=obs,
            substrate=substrate,
        )
        result = engine.run()
        if obs is not None:
            obs.counter("trial.completed").add()
        return (
            result.summary(),
            result.strategy_info,
            result if keep_metrics else None,
        )


# ----------------------------------------------------------------------
# Process-pool backend
# ----------------------------------------------------------------------
# The trial factories are plain callables (often closures), which do not
# survive pickling. The pool therefore uses the ``fork`` start method:
# the worker state is parked in this module-level slot immediately before
# the pool forks, and children inherit it by memory snapshot. Only the
# per-trial seed sequences travel through the pickle channel.
_WORKER_STATE: Optional[Dict[str, Any]] = None


def _run_trial_chunk(
    chunk: Sequence[_IndexedSeed],
) -> Tuple[List[Tuple[int, _TrialRecord]], Optional[Dict[str, Any]]]:
    """Worker entry: run one chunk, shipping metrics home as a snapshot.

    A forked worker inherits the parent's :class:`Registry` by memory
    snapshot, so increments made here would be invisible to the parent.
    Each chunk therefore accumulates into a *fresh* registry (fresh per
    chunk, not per worker — a worker that handles several chunks must not
    re-ship earlier chunks' counts) whose plain-dict snapshot returns
    through the pickle channel for the parent to merge.
    """
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - defends against misuse
        raise RuntimeError("worker state missing; was the pool forked?")
    if state.get("obs") is None:
        return _run_chunk(chunk, state), None
    local_state = dict(state)
    local = local_state["obs"] = Registry()
    pairs = _run_chunk(chunk, local_state)
    return pairs, local.snapshot()


#: one-time-per-process flags for the degradation warnings below
_DEGRADE_WARNED = False
_BATCH_FALLBACK_WARNED = False


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` knob: ``None``/1 → serial, ``-1`` → all cores.

    A request for more workers than the host has cores is a pessimization
    (pure pool overhead — the recorded ``BENCH_runner.json`` trajectory
    shows 0.94× on a 1-core box), so it auto-degrades to the core count
    (serial on a 1-core host), warning once per process.
    """
    global _DEGRADE_WARNED
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    cores = max(os.cpu_count() or 1, 1)
    if n_jobs == -1:
        return cores
    if n_jobs < 1:
        raise ConfigurationError(
            f"n_jobs must be a positive integer or -1 (all cores), got {n_jobs}"
        )
    if n_jobs > cores:
        target = "serial execution" if cores == 1 else f"{cores} worker(s)"
        if not _DEGRADE_WARNED:
            warnings.warn(
                f"n_jobs={n_jobs} exceeds the {cores} available core(s); "
                f"degrading to {target} (a pool larger than the machine is "
                "pure overhead)",
                RuntimeWarning,
                stacklevel=2,
            )
            _DEGRADE_WARNED = True
        return cores
    return n_jobs


def _choose_executor(
    executor: Union[str, Executor, None],
    jobs: int,
    retry: RetryPolicy,
    parallel_viable: bool,
) -> Executor:
    """Resolve the ``executor=`` argument into one backend.

    ``None`` picks the local fork pool when one is viable (``n_jobs >
    1``, more than one pending trial, ``fork`` available), otherwise
    serial. ``"serial"`` and ``"local"`` pick a backend by name; an
    :class:`~repro.exec.base.Executor` instance is used as given.
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        executor = "local" if parallel_viable else "serial"
    name = executor.strip().lower() if isinstance(executor, str) else None
    if name == "serial":
        return SerialExecutor()
    if name == "local":
        return LocalPoolExecutor(n_jobs=jobs, retry=retry)
    raise ConfigurationError(
        f"unknown executor {executor!r}; pass None, 'serial', 'local', "
        "or an Executor instance"
    )


def _run_chunk(
    chunk: Sequence[_IndexedSeed], state: Dict[str, Any]
) -> List[Tuple[int, _TrialRecord]]:
    """Execute one chunk of trials, batching into engine lanes if asked.

    ``state`` is the execution-knob dict built by :func:`run_trials`; the
    ``batch_lanes`` entry (absent or 1 → scalar) is a chunk-runner knob,
    not an :func:`_execute_trial` argument, so it is split off here.
    """
    state = dict(state)
    lanes = state.pop("batch_lanes", 1) or 1
    obs: Optional[Registry] = state.get("obs")
    if obs is not None:
        obs.counter("runner.chunks").add()
    if lanes > 1:
        cell = GridCell(
            make_instance=state["make_instance"],
            make_strategy=state["make_strategy"],
            make_adversary=state["make_adversary"],
            make_context=state["make_context"],
            fault_plan=state["fault_plan"],
        )
        out: List[Tuple[int, _TrialRecord]] = []
        for start in range(0, len(chunk), lanes):
            group = list(chunk[start : start + lanes])
            try:
                records = _execute_grid_group(
                    [(0, index, seed) for index, seed in group],
                    [cell],
                    state["config"],
                    state["keep_metrics"],
                    state["timeout"],
                    obs,
                )
            except TrialTimeoutError as exc:
                labels = ", ".join(str(index) for index, _seed in group)
                raise TrialTimeoutError(f"trials {labels}: {exc}") from None
            out.extend(zip((index for index, _seed in group), records))
        return out
    out = []
    for index, seed_sequence in chunk:
        try:
            record = _execute_trial(RngFactory(seed_sequence), **state)
        except TrialTimeoutError as exc:
            raise TrialTimeoutError(f"trial {index}: {exc}") from None
        out.append((index, record))
    return out


# ----------------------------------------------------------------------
# Grid lanes: one batch, many experiment cells
# ----------------------------------------------------------------------
@dataclass
class GridCell:
    """One experiment cell of a :func:`run_trial_grid` sweep.

    A cell is exactly the per-cell argument set of :func:`run_trials` —
    its own factories, trial count, seed, and fault plan — minus the
    execution knobs, which the grid shares. Per-trial seed streams are
    derived from ``seed`` precisely as a standalone ``run_trials`` call
    would derive them, which is what makes grid-packed results
    bit-identical to running each cell on its own.
    """

    make_instance: InstanceFactory
    make_strategy: StrategyFactory
    make_adversary: AdversaryFactory = lambda: None
    n_trials: int = 32
    seed: SeedLike = 0
    make_context: Optional[ContextFactory] = None
    fault_plan: Optional[FaultPlan] = None
    #: optional display name (sweeps label cells "loss=0.25" and such)
    label: Optional[str] = None


def _lane_adversary(
    makers: Sequence[AdversaryFactory],
) -> Optional["BatchedAdversary"]:
    """One scalar adversary per lane behind :class:`PerLaneAdversary`.

    All-``None`` lanes mean no adversary.
    """
    from repro.adversaries.batched import PerLaneAdversary

    adversaries = [make() for make in makers]
    if all(adversary is None for adversary in adversaries):
        return None
    return PerLaneAdversary(adversaries)


def _execute_grid_group(
    group: Sequence[Tuple[int, int, np.random.SeedSequence]],
    cells: Sequence[GridCell],
    config: Optional[EngineConfig],
    keep_metrics: bool,
    timeout: Optional[float],
    obs: Optional[Registry],
) -> List[_TrialRecord]:
    """Run one lane group through a single :class:`BatchedEngine`.

    ``group`` holds ``(cell index, trial index, seed sequence)`` units;
    ``run_trials`` lane groups arrive here as one-cell groups. Each lane
    spawns its four pinned streams — world, honest coins, adversary
    coins, faults, in :func:`_execute_trial`'s order — from its own
    trial's seed sequence and builds its state from its *own cell's*
    factories: one scalar strategy instance per lane, one scalar
    adversary per lane (see :func:`_lane_adversary`), and one scalar
    :class:`FaultInjector` per faulted lane. A lane is therefore
    bit-identical to the same trial run by that cell's standalone scalar
    ``run_trials``. The wall-clock deadline scales with the group:
    ``timeout`` is a per-trial budget and a group advances
    ``len(group)`` trials.
    """
    from repro.faults.batched import BatchedFaultInjector
    from repro.strategies.batched import PerLaneStrategy

    budget = timeout * len(group) if timeout is not None else None
    with _trial_deadline(budget):
        lane_cells = [cells[c_idx] for c_idx, _t_idx, _seed in group]
        instances: List[Instance] = []
        honest_rngs: List[np.random.Generator] = []
        adversary_rngs: List[np.random.Generator] = []
        injectors: List[Optional[FaultInjector]] = []
        for cell, (_c_idx, _t_idx, seed_sequence) in zip(lane_cells, group):
            trial_factory = RngFactory(seed_sequence)
            world_rng = trial_factory.spawn_generator()
            honest_rngs.append(trial_factory.spawn_generator())
            adversary_rngs.append(trial_factory.spawn_generator())
            fault_rng = trial_factory.spawn_generator()
            plan = cell.fault_plan
            injectors.append(
                FaultInjector(plan, fault_rng)
                if plan is not None and not plan.is_null()
                else None
            )
            instances.append(cell.make_instance(world_rng))
        faults = (
            BatchedFaultInjector(injectors)
            if any(injector is not None for injector in injectors)
            else None
        )

        strategy = PerLaneStrategy(
            [cell.make_strategy() for cell in lane_cells]
        )
        adversary = _lane_adversary(
            [cell.make_adversary for cell in lane_cells]
        )

        ctxs = [
            cell.make_context(instance)
            if cell.make_context is not None
            else None
            for cell, instance in zip(lane_cells, instances)
        ]
        engine = BatchedEngine(
            instances,
            strategy,
            adversary=adversary,
            rngs=honest_rngs,
            adversary_rngs=adversary_rngs,
            config=config,
            ctxs=ctxs,
            faults=faults,
            obs=obs,
        )
        metrics = engine.run()
    if obs is not None:
        obs.counter("trial.completed").add(len(group))
        obs.counter("trial.batched").add(len(group))
    return [
        (
            lane_metrics.summary(),
            lane_metrics.strategy_info,
            lane_metrics if keep_metrics else None,
        )
        for lane_metrics in metrics
    ]


def run_trial_grid(
    cells: Sequence[GridCell],
    config: Optional[EngineConfig] = None,
    batch_lanes: Optional[int] = None,
    keep_metrics: bool = False,
    timeout: Optional[float] = None,
    substrate: Optional[str] = None,
    obs: Optional[Registry] = None,
) -> List[TrialResults]:
    """Run a grid of experiment cells with cross-cell lane packing.

    Flattens every cell's trials into one work list (cell order, then
    trial order), chunks it into ``batch_lanes``-sized groups — groups
    may *mix cells*, which is the point: sweep cells whose ``n_trials``
    is small no longer waste lane capacity — and runs each group through
    one :class:`~repro.sim.batch_engine.BatchedEngine`. Lanes carry
    their cell's own alpha/beta (via the instance), strategy, adversary,
    and fault plan; all cells must share ``(n, m)`` (the engine enforces
    this) and the grid shares one ``config`` and one ``substrate`` knob
    (bit-inert, and read only by the scalar path — see
    :func:`run_trials`).

    Returns one :class:`TrialResults` per cell, in cell order, each
    bit-identical — ``per_trial`` arrays, kept metrics, ``fault_info``,
    everything — to a standalone ``run_trials`` call with that cell's
    arguments (enforced by the equivalence suite). Per-cell manifests
    are attached as usual; ``registry.manifest`` is left alone because a
    grid has no single sweep identity.

    ``batch_lanes=None``/``1`` — or a configuration the batched engine
    cannot run (structured traces) — degrades to one scalar
    ``run_trials`` call per cell, same results, with the usual fallback
    audit trail.
    """
    if not cells:
        raise ConfigurationError("run_trial_grid needs at least one cell")
    for cell in cells:
        if cell.n_trials < 1:
            raise ConfigurationError(
                f"n_trials must be a positive integer, got {cell.n_trials} "
                f"(cell {cell.label or cells.index(cell)!r})"
            )
    try:
        lanes = 1 if batch_lanes is None else int(batch_lanes)
    except (TypeError, ValueError):
        lanes = 0
    if lanes < 1:
        raise ConfigurationError(
            f"batch_lanes must be a positive integer, got {batch_lanes!r}"
        )
    # Validate once up front (and normalize for the manifests below) so a
    # bad knob fails before any trial runs, on every path.
    substrate_label = (
        None if substrate is None else normalize_substrate(substrate)
    )
    if lanes <= 1 or batch_fallback_reason(config, None) is not None:
        # Per-cell delegation: run_trials owns the fallback warning, the
        # batch.fallback counter, and the manifest reason in this path.
        return [
            run_trials(
                cell.make_instance,
                cell.make_strategy,
                cell.make_adversary,
                n_trials=cell.n_trials,
                seed=cell.seed,
                config=config,
                make_context=cell.make_context,
                keep_metrics=keep_metrics,
                batch_lanes=batch_lanes,
                fault_plan=cell.fault_plan,
                timeout=timeout,
                substrate=substrate,
                obs=obs,
            )
            for cell in cells
        ]

    registry = obs if obs is not None else active_registry()
    if registry is not None:
        registry.counter("runner.grid_runs").add()
        registry.counter("runner.grid_cells").add(len(cells))

    units: List[Tuple[int, int, np.random.SeedSequence]] = []
    for c_idx, cell in enumerate(cells):
        root = RngFactory.from_seed(cell.seed)
        for t_idx, factory in enumerate(root.trial_factories(cell.n_trials)):
            units.append((c_idx, t_idx, factory.seed_sequence))

    done: Dict[Tuple[int, int], _TrialRecord] = {}
    span = (
        registry.timer("runner.run_trial_grid").time()
        if registry is not None
        else nullcontext()
    )
    with span:
        for start in range(0, len(units), lanes):
            group = units[start : start + lanes]
            try:
                records = _execute_grid_group(
                    group, cells, config, keep_metrics, timeout, registry
                )
            except TrialTimeoutError as exc:
                labels = ", ".join(
                    f"cell {c}/trial {t}" for c, t, _seed in group
                )
                raise TrialTimeoutError(f"{labels}: {exc}") from None
            for (c_idx, t_idx, _seed), record in zip(group, records):
                done[(c_idx, t_idx)] = record
            if registry is not None:
                registry.counter("runner.grid_groups").add()

    out: List[TrialResults] = []
    for c_idx, cell in enumerate(cells):
        records = [done[(c_idx, t_idx)] for t_idx in range(cell.n_trials)]
        rows = [record[0] for record in records]
        infos = [record[1] for record in records]
        kept = [record[2] for record in records if record[2] is not None]
        per_trial = {
            key: np.array([row[key] for row in rows], dtype=np.float64)
            for key in rows[0].keys()
        }
        out.append(
            TrialResults(
                per_trial=per_trial,
                metrics=kept,
                strategy_infos=infos,
                manifest=collect_manifest(
                    seed=cell.seed,
                    n_trials=cell.n_trials,
                    config=config,
                    fault_plan=cell.fault_plan,
                    substrate=substrate_label,
                ),
            )
        )
    return out


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    """JSON encoder hook for the numpy types strategy infos carry."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


def _open_checkpoint(path: str, mode: str) -> Any:
    """Open a checkpoint file, translating environmental failures.

    A missing parent directory or a read-only filesystem is a caller
    configuration problem, not a corrupt checkpoint, so it surfaces as
    :class:`ConfigurationError` with the actionable path/reason instead
    of a raw ``OSError`` traceback mid-sweep. Note ``os.access`` is no
    pre-check here: it reports writable for root even on read-only
    mounts, so only the real ``open`` tells the truth.
    """
    try:
        return open(path, mode)
    except OSError as exc:
        action = "read" if mode == "r" else "write"
        raise ConfigurationError(
            f"cannot {action} checkpoint {path!r}: {exc}; check that the "
            "directory exists and is writable"
        ) from None


class _Checkpoint:
    """Incremental JSONL checkpoint of completed trials.

    Line 1 is a header binding the file to one sweep (seed fingerprint +
    trial count); every further line is one completed trial's summary row
    and strategy info. Rows round-trip through JSON exactly (Python's
    float repr is shortest-round-trip), so a resumed sweep's ``per_trial``
    arrays are bit-identical to an uninterrupted run.
    """

    def __init__(self, path: str, seed: SeedLike, n_trials: int) -> None:
        self.path = path
        self.header = {
            "kind": "header",
            "version": 1,
            "seed_entropy": str(make_seed_sequence(seed).entropy),
            "n_trials": n_trials,
        }

    def load(self) -> Dict[int, _TrialRecord]:
        """Validate the header and return the completed trials by index.

        A missing file starts a fresh checkpoint (the header is written
        immediately so even a sweep killed before its first completed
        chunk resumes cleanly).
        """
        if not os.path.exists(self.path):
            with _open_checkpoint(self.path, "w") as handle:
                handle.write(json.dumps(self.header, sort_keys=True) + "\n")
            return {}
        with _open_checkpoint(self.path, "r") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        if not lines:
            raise CheckpointError(f"checkpoint {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} has an unreadable header: {exc}"
            ) from None
        for key in ("seed_entropy", "n_trials"):
            if header.get(key) != self.header[key]:
                raise CheckpointError(
                    f"checkpoint {self.path} belongs to a different sweep "
                    f"({key}: checkpoint has {header.get(key)!r}, this run "
                    f"has {self.header[key]!r}); refusing to mix results"
                )
        done: Dict[int, _TrialRecord] = {}
        for line_no, line in enumerate(lines[1:], start=2):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # a partially written trailing line (the sweep was killed
                # mid-append) is the expected crash artifact: ignore it
                # and re-run that trial
                continue
            index = int(entry["index"])
            if not 0 <= index < self.header["n_trials"]:
                raise CheckpointError(
                    f"checkpoint {self.path} line {line_no} names trial "
                    f"{index}, outside 0..{self.header['n_trials'] - 1}"
                )
            done[index] = (entry["row"], entry["info"], None)
        return done

    def append(self, pairs: Sequence[Tuple[int, _TrialRecord]]) -> None:
        """Persist completed trials (one JSON line each, flushed)."""
        with _open_checkpoint(self.path, "a") as handle:
            for index, (row, info, _metrics) in pairs:
                handle.write(
                    json.dumps(
                        {"index": index, "row": row, "info": info},
                        sort_keys=True,
                        default=_jsonable,
                    )
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())


# ----------------------------------------------------------------------
def run_trials(
    make_instance: InstanceFactory,
    make_strategy: StrategyFactory,
    make_adversary: AdversaryFactory = lambda: None,
    n_trials: int = 32,
    seed: SeedLike = 0,
    config: Optional[EngineConfig] = None,
    make_context: Optional[ContextFactory] = None,
    keep_metrics: bool = False,
    n_jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    batch_lanes: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff_base: float = 0.5,
    checkpoint_path: Optional[str] = None,
    executor: Union[str, Executor, None] = None,
    substrate: Optional[str] = None,
    obs: Optional[Registry] = None,
) -> TrialResults:
    """Run ``n_trials`` independent simulations and aggregate summaries.

    Each trial draws four independent generator streams (world, honest
    coins, adversary coins, faults) from a per-trial child of ``seed``, so
    results are reproducible and trials are statistically independent.
    The fourth stream feeds the fault layer and is spawned even when no
    faults are configured (it predates the fault layer as a reserved
    spare), which is what keeps clean seeded results pinned.

    Parameters
    ----------
    n_jobs:
        Worker processes for trial execution. ``None`` or ``1`` runs
        serially in-process; ``-1`` uses every core. Parallel execution
        requires the ``fork`` start method (any Unix); where it is
        unavailable the runner falls back to the serial path. Results are
        bit-identical across all ``n_jobs`` values for the same seed.
    chunk_size:
        Trials per dispatched work unit (default: ~4 chunks per worker,
        rounded up to whole lane groups when batching). Affects
        scheduling only, never results.
    batch_lanes:
        Trials advanced in lockstep per engine invocation (the
        :class:`~repro.sim.batch_engine.BatchedEngine`). ``None`` or
        ``1`` uses the scalar engine. Batching composes with ``n_jobs``
        (each worker runs whole batches), checkpointing, and ``timeout``
        (the deadline scales with the group size), and per-trial results
        are **identical** to the scalar engine's for every supported
        configuration — enforced by the equivalence suite. Fault plans
        batch natively (one scalar injector per lane on its pinned
        fourth stream); the one remaining unsupported configuration —
        structured traces — degrades to the scalar engine with a
        one-time warning quoting the reason, a ``batch.fallback``
        counter increment, and the reason recorded on the sweep's
        :class:`~repro.obs.manifest.RunManifest`.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` injected into every
        trial's engine. ``None`` — or a plan with every rate zero — is
        bit-identical to the fault-free runner.
    timeout:
        Per-trial wall-clock cap in seconds; a trial running past it
        raises :class:`~repro.errors.TrialTimeoutError` (no retry: a hung
        trial is deterministic). Enforced by the monotonic-deadline
        watchdog (:mod:`repro.exec.deadline`) on both backends — main
        thread, other threads and forked pool workers alike.
    max_retries:
        Pool rebuilds allowed when pool workers die, before the pool
        hands the remaining trials to the in-process loop (with a
        warning, an ``exec.degraded`` count, and ``degraded_from:
        ["local"]`` in the manifest). Retries re-dispatch the same
        pre-derived seed sequences, so results stay bit-identical
        however many retries it takes. ``max_retries`` and
        ``backoff_base`` seed the shared
        :class:`~repro.exec.retry.RetryPolicy`.
    backoff_base:
        First retry delay in seconds; doubled on each further retry
        (capped — see :class:`~repro.exec.retry.RetryPolicy`).
    executor:
        Which execution backend runs the trials: ``None`` (the local
        fork pool when ``n_jobs`` asks for one, else serial), a backend
        name (``"serial"``, ``"local"``), or an
        :class:`~repro.exec.base.Executor` instance (e.g. a
        :class:`~repro.exec.local.LocalPoolExecutor` with its own
        :class:`~repro.exec.retry.RetryPolicy`). Results are
        bit-identical across backends for the same seed; the backend
        and its worker roster are recorded in the manifest's
        ``executor`` field.
    substrate:
        Post log of every scalar trial's engine: ``"dense"`` (the
        hash-chained :class:`~repro.billboard.board.Billboard`),
        ``"sparse"`` (the chainless columnar board — see
        :mod:`repro.billboard.sparse`), or ``"auto"`` (``None`` too) to
        pick sparse at or above
        :data:`~repro.billboard.sparse.SPARSE_AUTO_THRESHOLD` players.
        Lanes (``batch_lanes > 1``) always run the columnar board. The
        substrate is bit-inert: results are identical for every choice
        (enforced by the sparse equivalence suite); the requested knob
        is recorded in the manifest's ``substrate`` field.
    checkpoint_path:
        Incremental JSONL checkpoint of completed trials. If the file
        already exists (same seed and trial count — anything else raises
        :class:`~repro.errors.CheckpointError`), completed trials are
        loaded and only the remainder runs; the merged ``per_trial``
        arrays are bit-identical to an uninterrupted run. Incompatible
        with ``keep_metrics`` (full :class:`RunMetrics` records are not
        checkpointable).
    obs:
        Optional :class:`~repro.obs.registry.Registry` collecting
        counters and timers for this sweep; ``None`` falls back to the
        process-wide :func:`~repro.obs.registry.active_registry` (itself
        ``None`` unless installed — observability is off by default).
        Metrics are bit-inert: they never touch a random stream, so
        every result is identical with and without a registry, for any
        ``n_jobs``/``batch_lanes`` (enforced by the obs equivalence
        suite). The sweep's :class:`~repro.obs.manifest.RunManifest` is
        always attached to the returned :class:`TrialResults` and, when
        a registry is active, stashed on ``registry.manifest``.
    """
    if n_trials < 1:
        raise ConfigurationError(
            f"n_trials must be a positive integer, got {n_trials}"
        )
    if max_retries < 0:
        raise ConfigurationError(
            f"max_retries must be >= 0, got {max_retries}"
        )
    # Validate the substrate knob before any work is dispatched; the
    # normalized label (None stays None) is what the manifest records.
    substrate_label = (
        None if substrate is None else normalize_substrate(substrate)
    )
    jobs = resolve_n_jobs(n_jobs)

    global _BATCH_FALLBACK_WARNED
    try:
        lanes = 1 if batch_lanes is None else int(batch_lanes)
    except (TypeError, ValueError):
        lanes = 0
    if lanes < 1:
        raise ConfigurationError(
            f"batch_lanes must be a positive integer, got {batch_lanes!r}"
        )
    fallback_reason: Optional[str] = None
    if lanes > 1:
        fallback_reason = batch_fallback_reason(config, fault_plan)
        if fallback_reason is not None:
            if not _BATCH_FALLBACK_WARNED:
                warnings.warn(
                    f"batch_lanes={lanes} is not supported for this "
                    f"configuration ({fallback_reason!r}); falling back to "
                    "the scalar engine (results are identical, only slower)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                _BATCH_FALLBACK_WARNED = True
            lanes = 1

    checkpoint: Optional[_Checkpoint] = None
    done: Dict[int, _TrialRecord] = {}
    if checkpoint_path is not None:
        if keep_metrics:
            raise ConfigurationError(
                "checkpoint_path is incompatible with keep_metrics: full "
                "RunMetrics records are not checkpointable"
            )
        checkpoint = _Checkpoint(checkpoint_path, seed, n_trials)
        done = checkpoint.load()

    registry = obs if obs is not None else active_registry()
    if registry is not None:
        registry.counter("runner.runs").add()
        registry.counter("runner.trials_requested").add(n_trials)
        if fallback_reason is not None:
            registry.counter("batch.fallback").add()
        if done:
            registry.counter("runner.trials_resumed").add(len(done))

    root = RngFactory.from_seed(seed)
    trial_factories = list(root.trial_factories(n_trials))
    pending: List[_IndexedSeed] = [
        (index, factory.seed_sequence)
        for index, factory in enumerate(trial_factories)
        if index not in done
    ]
    state: Dict[str, Any] = dict(
        make_instance=make_instance,
        make_strategy=make_strategy,
        make_adversary=make_adversary,
        make_context=make_context,
        config=config,
        keep_metrics=keep_metrics,
        fault_plan=fault_plan,
        timeout=timeout,
        substrate=substrate,
        obs=registry,
    )
    if lanes > 1:
        state["batch_lanes"] = lanes
    on_chunk_done = checkpoint.append if checkpoint is not None else None

    retry = RetryPolicy(max_retries=max_retries, backoff_base=backoff_base)
    parallel_viable = (
        jobs > 1
        and len(pending) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    chosen = _choose_executor(executor, jobs, retry, parallel_viable)
    executor_report: Optional[Dict[str, Any]] = None
    # The only timing in the runner layer: the Timer owns the clock read
    # (inside repro.obs, outside the determinism-critical packages).
    span = (
        registry.timer("runner.run_trials").time()
        if registry is not None
        else nullcontext()
    )
    with span:
        if pending:
            chosen._reset_report()
            done.update(
                chosen.run(
                    pending,
                    state,
                    chunk_size=chunk_size,
                    on_chunk_done=on_chunk_done,
                )
            )
            executor_report = chosen.report.to_dict()

    manifest = collect_manifest(
        seed=seed,
        n_trials=n_trials,
        config=config,
        fault_plan=fault_plan,
        batch_fallback_reason=fallback_reason,
        executor=executor_report,
        substrate=substrate_label,
    )
    if registry is not None:
        registry.manifest = manifest

    records = [done[index] for index in range(n_trials)]
    rows = [record[0] for record in records]
    infos = [record[1] for record in records]
    kept = [record[2] for record in records if record[2] is not None]

    keys = rows[0].keys()
    per_trial = {
        key: np.array([row[key] for row in rows], dtype=np.float64)
        for key in keys
    }
    return TrialResults(
        per_trial=per_trial,
        metrics=kept,
        strategy_infos=infos,
        manifest=manifest,
    )
