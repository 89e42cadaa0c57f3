"""Runner and substrate scaling benchmark — the repo's perf trajectory.

Three measurements, recorded into ``BENCH_runner.json`` at the repo root:

1. **Runner scaling** — a representative E3 cell (DISTILL vs the adaptive
   split-vote adversary at ``beta = 1/n``) timed serially and with a
   process pool (``REPRO_BENCH_JOBS`` workers), asserting the two runs are
   bit-identical before reporting the speedup.
2. **Substrate microbench** — ``counts_in_window`` / ``current_vote_array``
   on a 10k-vote board: the vectorized ledger vs a faithful replica of the
   pre-vectorization Python walks.
3. **Hash chain** — append throughput with the digest forced after every
   post (the old eager behaviour) vs batched ``append_many`` with one
   deferred materialization.

Run directly (``python benchmarks/bench_runner_scaling.py``) or through
pytest (``pytest benchmarks/bench_runner_scaling.py``); the pytest entry is
skipped under ``--benchmark-only`` so the experiment-table bench jobs do
not double-run it. ``REPRO_BENCH_SCALE=smoke`` shrinks every measurement
for CI smoke jobs.

Interpretation notes: the runner speedup is bounded by physical cores
(``host.cpu_count`` is recorded precisely so a flat number on a 1-core
runner is not mistaken for a regression); the substrate and chain ratios
are core-count independent.
"""

from __future__ import annotations

import bisect
import os
import platform
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro.adversaries.split_vote import SplitVoteAdversary
from repro.billboard.board import Billboard
from repro.billboard.post import PostKind
from repro.core.distill import DistillStrategy
from repro.sim.engine import EngineConfig
from repro.sim.runner import run_trials
from repro.world.generators import planted_instance

try:  # pytest imports this as benchmarks.bench_runner_scaling
    from benchmarks.artifacts import REPO_ROOT, write_bench_json
except ImportError:  # `python benchmarks/bench_runner_scaling.py`
    from artifacts import REPO_ROOT, write_bench_json

OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_runner.json")

SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: substrate board size — fixed across scales so the trajectory is comparable
SUBSTRATE_VOTES = 10_000
SUBSTRATE_OBJECTS = 2_000
SUBSTRATE_ROUNDS = 256


def _time_call(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of one call, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_per_call(fn: Callable[[], object], target_seconds: float = 0.2) -> float:
    """Mean seconds per call over enough iterations to fill the target."""
    fn()  # warm-up (also populates any memo exactly once per variant)
    start = time.perf_counter()
    fn()  # one timed call sizes the loop
    single = max(time.perf_counter() - start, 1e-9)
    iterations = max(3, int(target_seconds / single))
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


# ----------------------------------------------------------------------
# 1. Runner scaling (serial vs process pool)
# ----------------------------------------------------------------------
def measure_runner_scaling() -> Dict[str, object]:
    # The hardest cell of E3's FULL sweep (n=4096 at low alpha): big
    # enough that pool startup is noise against ~10s of trial work.
    if SCALE == "smoke":
        n, trials, alpha = 64, 8, 0.5
    else:
        n, trials, alpha = 4096, 32, 0.2
    beta = 1.0 / n

    def cell(n_jobs: int):
        return run_trials(
            make_instance=lambda rng: planted_instance(
                n=n, m=n, beta=beta, alpha=alpha, rng=rng
            ),
            make_strategy=DistillStrategy,
            make_adversary=SplitVoteAdversary,
            n_trials=trials,
            seed=SEED,
            config=EngineConfig(max_rounds=500_000),
            n_jobs=n_jobs,
        )

    start = time.perf_counter()
    serial = cell(1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = cell(JOBS)
    parallel_seconds = time.perf_counter() - start

    bit_identical = all(
        np.array_equal(serial.per_trial[key], parallel.per_trial[key])
        for key in serial.per_trial
    )
    return {
        "experiment": (
            f"E3-representative cell: distill vs split-vote, "
            f"n=m={n}, beta=1/n, alpha={alpha}"
        ),
        "n_trials": trials,
        "n_jobs": JOBS,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / max(parallel_seconds, 1e-9),
        "bit_identical": bit_identical,
    }


# ----------------------------------------------------------------------
# 2. Substrate microbench (vectorized ledger vs legacy Python walks)
# ----------------------------------------------------------------------
def _py_counts_in_window(
    rounds: List[int],
    objects: List[int],
    n_objects: int,
    start_round: int,
    end_round: int,
) -> List[int]:
    """The pre-vectorization ledger walk, verbatim in shape."""
    counts = [0] * n_objects
    for idx in range(len(objects)):
        if start_round <= rounds[idx] < end_round:
            counts[objects[idx]] += 1
    return counts


def _py_current_vote_array(
    rounds: List[int],
    players: List[int],
    objects: List[int],
    n_players: int,
    before_round: int,
) -> List[int]:
    """The pre-vectorization forward walk to each player's current vote."""
    cutoff = bisect.bisect_left(rounds, before_round)
    result = [-1] * n_players
    for idx in range(cutoff):
        result[players[idx]] = objects[idx]
    return result


def measure_substrate() -> Dict[str, object]:
    n_players = SUBSTRATE_VOTES
    board = Billboard(n_players, SUBSTRATE_OBJECTS)
    rng = np.random.default_rng(SEED)
    targets = rng.integers(SUBSTRATE_OBJECTS, size=n_players)

    rounds_log: List[int] = []
    players_log: List[int] = []
    objects_log: List[int] = []
    per_round = n_players // SUBSTRATE_ROUNDS
    for round_no in range(SUBSTRATE_ROUNDS):
        lo = round_no * per_round
        hi = n_players if round_no == SUBSTRATE_ROUNDS - 1 else lo + per_round
        board.append_many(
            round_no,
            [
                (player, int(targets[player]), 1.0, PostKind.VOTE)
                for player in range(lo, hi)
            ],
        )
        for player in range(lo, hi):
            rounds_log.append(round_no)
            players_log.append(player)
            objects_log.append(int(targets[player]))

    window = (SUBSTRATE_ROUNDS // 4, 3 * SUBSTRATE_ROUNDS // 4)
    horizon = SUBSTRATE_ROUNDS // 2

    expected_counts = np.asarray(
        _py_counts_in_window(
            rounds_log, objects_log, SUBSTRATE_OBJECTS, *window
        ),
        dtype=np.int64,
    )
    assert np.array_equal(board.counts_in_window(*window), expected_counts)
    expected_votes = np.asarray(
        _py_current_vote_array(
            rounds_log, players_log, objects_log, n_players, horizon
        ),
        dtype=np.int64,
    )
    assert np.array_equal(board.current_vote_array(horizon), expected_votes)

    counts_py = _time_per_call(
        lambda: _py_counts_in_window(
            rounds_log, objects_log, SUBSTRATE_OBJECTS, *window
        )
    )
    counts_vec = _time_per_call(lambda: board.counts_in_window(*window))
    votes_py = _time_per_call(
        lambda: _py_current_vote_array(
            rounds_log, players_log, objects_log, n_players, horizon
        )
    )
    votes_vec = _time_per_call(lambda: board.current_vote_array(horizon))

    return {
        "n_votes": len(objects_log),
        "n_objects": SUBSTRATE_OBJECTS,
        "n_rounds": SUBSTRATE_ROUNDS,
        "counts_in_window": {
            "python_seconds_per_call": counts_py,
            "vectorized_seconds_per_call": counts_vec,
            "speedup": counts_py / max(counts_vec, 1e-12),
        },
        "current_vote_array": {
            "python_seconds_per_call": votes_py,
            "vectorized_seconds_per_call": votes_vec,
            "speedup": votes_py / max(votes_vec, 1e-12),
        },
    }


# ----------------------------------------------------------------------
# 3. Hash chain (eager per-post digests vs lazy batched materialization)
# ----------------------------------------------------------------------
def measure_hash_chain() -> Dict[str, object]:
    n_posts = 5_000 if SCALE == "smoke" else 50_000
    n_players = 256
    batch = 128

    def eager() -> Billboard:
        # The pre-lazy behaviour: every append paid one SHA-256 fold.
        # Polling head_digest after each post materializes exactly one
        # pending snapshot, reproducing that cost profile.
        board = Billboard(n_players, n_players)
        for seq in range(n_posts):
            board.append(
                seq // batch, seq % n_players, seq % n_players, 1.0,
                PostKind.REPORT,
            )
            board.head_digest
        return board

    def lazy() -> Billboard:
        # The engine's actual hot path: batched appends, digest never
        # read during the run — all hashing deferred (and skipped unless
        # someone eventually asks).
        board = Billboard(n_players, n_players)
        for start in range(0, n_posts, batch):
            board.append_many(
                start // batch,
                [
                    (seq % n_players, seq % n_players, 1.0, PostKind.REPORT)
                    for seq in range(start, min(start + batch, n_posts))
                ],
            )
        return board

    deferred_board = lazy()
    start = time.perf_counter()
    deferred_digest = deferred_board.head_digest
    materialize_seconds = time.perf_counter() - start
    assert eager().head_digest == deferred_digest  # identical final digests

    eager_seconds = _time_call(eager, repeats=3)
    lazy_seconds = _time_call(lazy, repeats=3)
    return {
        "n_posts": n_posts,
        "batch_size": batch,
        "eager_posts_per_second": n_posts / eager_seconds,
        "lazy_posts_per_second": n_posts / lazy_seconds,
        "deferred_materialize_seconds": materialize_seconds,
        "speedup": eager_seconds / max(lazy_seconds, 1e-12),
    }


# ----------------------------------------------------------------------
def main() -> Dict[str, object]:
    data = {
        "schema": "repro-bench-runner/1",
        "generated_unix": time.time(),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "config": {"scale": SCALE, "jobs": JOBS, "seed": SEED},
        "runner_scaling": measure_runner_scaling(),
        "substrate": measure_substrate(),
        "hash_chain": measure_hash_chain(),
    }
    write_bench_json("BENCH_runner.json", data)

    scaling = data["runner_scaling"]
    substrate = data["substrate"]
    chain = data["hash_chain"]
    print(f"wrote {OUTPUT_PATH}")
    print(
        f"runner: {scaling['serial_seconds']:.2f}s serial -> "
        f"{scaling['parallel_seconds']:.2f}s with n_jobs={scaling['n_jobs']} "
        f"({scaling['speedup']:.2f}x, bit_identical={scaling['bit_identical']}, "
        f"cpu_count={data['host']['cpu_count']})"
    )
    print(
        "substrate: counts_in_window "
        f"{substrate['counts_in_window']['speedup']:.1f}x, "
        "current_vote_array "
        f"{substrate['current_vote_array']['speedup']:.1f}x "
        "vs python walks (10k votes)"
    )
    print(
        f"hash chain: {chain['speedup']:.1f}x posts/sec "
        "(lazy batched vs eager per-post)"
    )
    return data


def bench_runner_scaling(results_dir):
    """Pytest entry: record the trajectory point and sanity-check it."""
    data = main()
    assert os.path.exists(OUTPUT_PATH)
    assert data["runner_scaling"]["bit_identical"]
    assert data["substrate"]["counts_in_window"]["speedup"] > 1.0
    assert data["hash_chain"]["speedup"] > 1.0


if __name__ == "__main__":
    main()
