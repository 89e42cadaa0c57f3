"""Million-player scale benchmark — dense vs sparse substrate memory.

Records ``BENCH_scale.json`` at the repo root: an E3-style sweep (DISTILL vs the adaptive
split-vote adversary at ``beta = 1/n``, ``m = n``) over player counts,
run once per substrate, measuring **incremental peak RSS** and rounds
per second for each cell.

Methodology
-----------
Every cell runs in its own subprocess so ``ru_maxrss`` reflects exactly
one run; a null subprocess (same imports, no cell) is measured first and
subtracted, so the reported number is the cell's *incremental* peak RSS,
not interpreter + numpy overhead. Dense cells are measured at the small
end of the sweep and fitted linearly in ``n``; the fit is extrapolated
to the large-``n`` cells where allocating dense per-player state would
be wasteful or impossible. The headline criterion — sparse at
``n = 10^5`` must sit at least ``RSS_RATIO_FLOOR``× below the dense
extrapolation — is asserted by the pytest entry and by the CI
``scale-smoke`` job.

Cells that both substrates run (the overlap of the dense and sparse
sweeps) must produce bit-identical run digests: the substrate knob is
bit-inert, and this benchmark re-proves it at scale on every run. Each
cell also snapshots its ``substrate.*`` observability counters and must
resolve to the substrate it asked for.

Run directly (``python benchmarks/bench_scale.py``) or through pytest
(``pytest benchmarks/bench_scale.py``). ``REPRO_BENCH_SCALE=smoke``
shrinks the sweep for CI smoke jobs (sparse stops at ``n = 10^5``);
the full sweep adds ``n ∈ {5·10^5, 10^6}`` sparse cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

try:  # pytest imports this as benchmarks.bench_scale
    from benchmarks.artifacts import REPO_ROOT, write_bench_json
except ImportError:  # `python benchmarks/bench_scale.py`
    from artifacts import REPO_ROOT, write_bench_json

OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_scale.json")

SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: acceptance floor: sparse incremental RSS at the headline cell must be
#: at least this many times below the dense linear-fit extrapolation
RSS_RATIO_FLOOR = 5.0
#: the cell the floor is asserted on
HEADLINE_N = 100_000

if SCALE == "smoke":
    DENSE_NS = [10_000, 30_000]
    SPARSE_NS = [10_000, 100_000]
else:
    DENSE_NS = [10_000, 30_000, 100_000]
    SPARSE_NS = [10_000, 100_000, 500_000, 1_000_000]


# ----------------------------------------------------------------------
# Child process: one cell, one JSON line
# ----------------------------------------------------------------------
def _run_cell(n: int, substrate: str, seed: int) -> Dict[str, object]:
    """Run one E3-style cell and report peak RSS + a run digest."""
    from repro.adversaries.split_vote import SplitVoteAdversary
    from repro.core.distill import DistillStrategy
    from repro.obs.registry import Registry
    from repro.sim.engine import EngineConfig, SynchronousEngine
    from repro.world.generators import planted_instance

    world, honest, adversary, _faults = np.random.SeedSequence(seed).spawn(4)
    instance = planted_instance(
        n=n, m=n, beta=1.0 / n, alpha=0.75, rng=np.random.default_rng(world)
    )
    registry = Registry()
    engine = SynchronousEngine(
        instance,
        DistillStrategy(),
        adversary=SplitVoteAdversary(),
        rng=np.random.default_rng(honest),
        adversary_rng=np.random.default_rng(adversary),
        config=EngineConfig(max_rounds=100_000, record_reports=True),
        obs=registry,
        substrate=substrate,
    )
    start = time.perf_counter()
    metrics = engine.run()
    elapsed = time.perf_counter() - start

    digest = hashlib.sha256()
    for array in (
        metrics.honest_mask,
        metrics.probes,
        metrics.paid,
        metrics.satisfied_round,
        metrics.halted_round,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(str(metrics.rounds).encode())

    counters = registry.snapshot()["counters"]
    return {
        "n": n,
        "substrate": substrate,
        "resolved_substrate": engine.substrate,
        "seed": seed,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "elapsed_seconds": elapsed,
        "rounds": metrics.rounds,
        "posts": len(engine.board),
        "all_honest_satisfied": bool(metrics.all_honest_satisfied),
        "digest": digest.hexdigest(),
        "substrate_counters": {
            key: value
            for key, value in counters.items()
            if key.startswith("substrate.")
        },
    }


def _run_null() -> Dict[str, object]:
    """Import everything a cell imports, allocate nothing, report RSS."""
    import repro.adversaries.split_vote  # noqa: F401
    import repro.core.distill  # noqa: F401
    import repro.obs.registry  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.world.generators  # noqa: F401

    return {
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    }


def _child_main(argv: List[str]) -> None:
    if argv[0] == "--null":
        payload = _run_null()
    else:  # --cell <n> <substrate> <seed>
        _, n, substrate, seed = argv
        payload = _run_cell(int(n), substrate, int(seed))
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


# ----------------------------------------------------------------------
# Parent process: sweep, fit, criterion
# ----------------------------------------------------------------------
def _spawn(args: List[str]) -> Dict[str, object]:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure_cell(
    n: int, substrate: str, baseline_kb: int
) -> Dict[str, object]:
    cell = _spawn(["--cell", str(n), substrate, str(SEED)])
    cell["incremental_rss_kb"] = max(
        0, int(cell["ru_maxrss_kb"]) - baseline_kb
    )
    cell["rounds_per_second"] = cell["rounds"] / max(
        cell["elapsed_seconds"], 1e-9
    )
    return cell


def _linear_fit(ns: List[int], rss_kb: List[int]):
    slope, intercept = np.polyfit(
        np.asarray(ns, dtype=np.float64),
        np.asarray(rss_kb, dtype=np.float64),
        1,
    )
    return float(slope), float(intercept)


def main() -> Dict[str, object]:
    baseline = _spawn(["--null"])
    baseline_kb = int(baseline["ru_maxrss_kb"])
    print(f"null baseline: {baseline_kb} KB peak RSS")

    dense_cells = []
    for n in DENSE_NS:
        cell = _measure_cell(n, "dense", baseline_kb)
        dense_cells.append(cell)
        print(
            f"dense  n={n:>9,}: {cell['incremental_rss_kb']:>9,} KB, "
            f"{cell['rounds']} rounds, "
            f"{cell['rounds_per_second']:.1f} rounds/s"
        )
    sparse_cells = []
    for n in SPARSE_NS:
        cell = _measure_cell(n, "sparse", baseline_kb)
        sparse_cells.append(cell)
        print(
            f"sparse n={n:>9,}: {cell['incremental_rss_kb']:>9,} KB, "
            f"{cell['rounds']} rounds, "
            f"{cell['rounds_per_second']:.1f} rounds/s"
        )

    for cell in dense_cells + sparse_cells:
        assert cell["resolved_substrate"] == cell["substrate"], cell

    # bit-identity on every overlapping cell: the substrate knob must
    # not change a single output bit, even at scale
    sparse_by_n = {cell["n"]: cell for cell in sparse_cells}
    overlap_checked = []
    for cell in dense_cells:
        twin = sparse_by_n.get(cell["n"])
        if twin is None:
            continue
        assert cell["digest"] == twin["digest"], (
            f"substrate changed the run at n={cell['n']}: "
            f"dense {cell['digest'][:12]} != sparse {twin['digest'][:12]}"
        )
        overlap_checked.append(cell["n"])

    slope, intercept = _linear_fit(
        [cell["n"] for cell in dense_cells],
        [cell["incremental_rss_kb"] for cell in dense_cells],
    )

    def dense_fit(n: int) -> float:
        return slope * n + intercept

    headline: Optional[Dict[str, object]] = None
    for cell in sparse_cells:
        cell["dense_fit_rss_kb"] = dense_fit(cell["n"])
        cell["rss_ratio_vs_dense_fit"] = cell["dense_fit_rss_kb"] / max(
            cell["incremental_rss_kb"], 1
        )
        if cell["n"] == HEADLINE_N:
            headline = cell

    assert headline is not None, f"sweep must include n={HEADLINE_N}"

    data = {
        "schema": "repro-bench-scale/1",
        "generated_unix": time.time(),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "config": {
            "scale": SCALE,
            "seed": SEED,
            "cell": "E3: DISTILL vs split-vote, beta=1/n, m=n, "
            "record_reports=on",
            "rss_ratio_floor": RSS_RATIO_FLOOR,
            "headline_n": HEADLINE_N,
        },
        "null_baseline_kb": baseline_kb,
        "dense": dense_cells,
        "sparse": sparse_cells,
        "dense_fit": {
            "slope_kb_per_player": slope,
            "intercept_kb": intercept,
            "fit_ns": [cell["n"] for cell in dense_cells],
        },
        "bit_identical_overlap_ns": overlap_checked,
        "headline": {
            "n": HEADLINE_N,
            "sparse_rss_kb": headline["incremental_rss_kb"],
            "dense_fit_rss_kb": headline["dense_fit_rss_kb"],
            "ratio": headline["rss_ratio_vs_dense_fit"],
            "meets_floor": headline["rss_ratio_vs_dense_fit"]
            >= RSS_RATIO_FLOOR,
        },
    }
    write_bench_json("BENCH_scale.json", data)

    print(f"wrote {OUTPUT_PATH}")
    print(
        f"dense fit: {slope:.3f} KB/player "
        f"(+{intercept:.0f} KB) over n={DENSE_NS}"
    )
    print(
        f"headline n={HEADLINE_N:,}: sparse "
        f"{data['headline']['sparse_rss_kb']:,} KB vs dense fit "
        f"{data['headline']['dense_fit_rss_kb']:,.0f} KB "
        f"({data['headline']['ratio']:.1f}x, "
        f"floor {RSS_RATIO_FLOOR}x, "
        f"meets_floor={data['headline']['meets_floor']})"
    )
    print(f"bit-identical overlap cells: n={overlap_checked}")
    return data


def bench_scale(results_dir):
    """Pytest entry: record the scale point and assert the criterion."""
    data = main()
    assert os.path.exists(OUTPUT_PATH)
    assert data["headline"]["meets_floor"]
    assert data["bit_identical_overlap_ns"]
    for cell in data["sparse"]:
        assert cell["all_honest_satisfied"]


if __name__ == "__main__":
    if len(sys.argv) > 1:
        _child_main(sys.argv[1:])
    else:
        main()
