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
not interpreter + numpy overhead. Each cell is compared with
:data:`POST_OBJECT_FIT`, the pinned memory curve of the post log that
stored a ``Post`` object per post (the dense substrate until 1.17.0).
The headline criterion — at ``n = 10^5`` each substrate must sit at
least ``RSS_RATIO_FLOOR``× below that curve — is asserted by the pytest
entry and by the CI ``scale-smoke`` job.

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
from typing import Dict, List

import numpy as np

try:  # pytest imports this as benchmarks.bench_scale
    from benchmarks.artifacts import REPO_ROOT, write_bench_json
except ImportError:  # `python benchmarks/bench_scale.py`
    from artifacts import REPO_ROOT, write_bench_json

OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_scale.json")

SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: incremental peak RSS of the ``Post``-object post log as a line in n:
#: (KB per player, KB). Pinned from the full sweep committed before
#: 1.17.0, whose dense substrate stored a ``Post`` object and a hash-chain
#: field snapshot per post: the line through its dense cells at n = 10^4
#: (46,068 KB) and 3·10^4 (176,852 KB), 634,596 KB at n = 10^5. That is
#: the stricter of the smoke and full-sweep fits; the fit through all
#: three of its dense cells reads 649,482 KB there. Both substrates store
#: columns since 1.17.0, so a live dense fit no longer measures it.
POST_OBJECT_FIT = (6.5392, -19_324.0)
#: acceptance floor: each substrate's incremental RSS at the headline
#: cell must be at least this many times below POST_OBJECT_FIT
RSS_RATIO_FLOOR = 5.0
#: the cell the floor is asserted on
HEADLINE_N = 100_000

DENSE_NS = [10_000, 30_000, 100_000]
if SCALE == "smoke":
    SPARSE_NS = [10_000, 100_000]
else:
    SPARSE_NS = [10_000, 100_000, 500_000, 1_000_000]


def post_object_fit_kb(n: int) -> float:
    """The pinned ``Post``-object curve at ``n`` players, in KB."""
    slope, intercept = POST_OBJECT_FIT
    return slope * n + intercept


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

    headline: Dict[str, Dict[str, object]] = {}
    for cell in dense_cells + sparse_cells:
        cell["post_object_fit_kb"] = post_object_fit_kb(cell["n"])
        cell["rss_ratio_vs_post_object_fit"] = cell["post_object_fit_kb"] / max(
            cell["incremental_rss_kb"], 1
        )
        if cell["n"] == HEADLINE_N:
            headline[cell["substrate"]] = cell

    assert set(headline) == {"dense", "sparse"}, (
        f"both sweeps must include n={HEADLINE_N}"
    )
    ceiling_kb = post_object_fit_kb(HEADLINE_N) / RSS_RATIO_FLOOR

    data = {
        "schema": "repro-bench-scale/2",
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
            "post_object_fit": {
                "slope_kb_per_player": POST_OBJECT_FIT[0],
                "intercept_kb": POST_OBJECT_FIT[1],
            },
        },
        "null_baseline_kb": baseline_kb,
        "dense": dense_cells,
        "sparse": sparse_cells,
        "bit_identical_overlap_ns": overlap_checked,
        "headline": {
            "n": HEADLINE_N,
            "post_object_fit_kb": post_object_fit_kb(HEADLINE_N),
            "ceiling_kb": ceiling_kb,
            "sparse_rss_kb": headline["sparse"]["incremental_rss_kb"],
            "dense_rss_kb": headline["dense"]["incremental_rss_kb"],
            "ratio": headline["sparse"]["rss_ratio_vs_post_object_fit"],
            "dense_ratio": headline["dense"]["rss_ratio_vs_post_object_fit"],
            "meets_floor": all(
                cell["rss_ratio_vs_post_object_fit"] >= RSS_RATIO_FLOOR
                for cell in headline.values()
            ),
        },
    }
    write_bench_json("BENCH_scale.json", data)

    print(f"wrote {OUTPUT_PATH}")
    line = data["headline"]
    print(
        f"headline n={HEADLINE_N:,}: sparse {line['sparse_rss_kb']:,} KB "
        f"({line['ratio']:.1f}x), dense {line['dense_rss_kb']:,} KB "
        f"({line['dense_ratio']:.1f}x) below the pinned Post-object fit "
        f"{line['post_object_fit_kb']:,.0f} KB (floor {RSS_RATIO_FLOOR}x: "
        f"ceiling {ceiling_kb:,.0f} KB, meets_floor={line['meets_floor']})"
    )
    print(f"bit-identical overlap cells: n={overlap_checked}")
    return data


def bench_scale(results_dir):
    """Pytest entry: record the scale point and assert the criterion."""
    data = main()
    assert os.path.exists(OUTPUT_PATH)
    assert data["headline"]["meets_floor"]
    assert data["bit_identical_overlap_ns"] == sorted(set(DENSE_NS) & set(SPARSE_NS))
    for cell in data["dense"] + data["sparse"]:
        assert cell["all_honest_satisfied"]


if __name__ == "__main__":
    if len(sys.argv) > 1:
        _child_main(sys.argv[1:])
    else:
        main()
