"""Serving-layer latency benchmark — the billboard under live traffic.

Records ``BENCH_serve.json`` at the repo root: a
:class:`~repro.serve.service.BillboardService` subprocess (started
exactly as an operator would, ``repro serve --port 0``) is driven by a
deterministic mixed workload — **80% reads / 20% writes** — from
concurrent client connections, and per-request wall-clock latencies
are folded into p50/p99 plus a posts-per-second write throughput
figure.

Methodology
-----------
The op *streams* are deterministic: one seeded generator draws every
client's op sequence (read kind, posting player, voted object) up
front, so two runs issue identical requests and the served board ends
in an identical state; only the wall-clock numbers are environmental.
Each client thread owns one connection and measures
``time.perf_counter`` around each round trip — latency as a caller
sees it, queueing included. A driver thread ticks the service epoch at
a fixed op cadence so reads exercise real snapshot/recommender queries,
not an empty board.

The benchmark runs with admission wide open (no rate limit, default
in-flight cap) and asserts **zero load-shed**: at bench concurrency the
service must absorb the offered load, so any shed is a regression, not
noise. The pytest entry and the CI ``serve-smoke`` job additionally
assert a generous p99 ceiling — a smoke alarm for pathological
latency, not an SLO (see ``docs/serving.md`` for the methodology).

Run directly (``python benchmarks/bench_serve.py``) or through pytest
(``pytest benchmarks/bench_serve.py``). ``--smoke`` or
``REPRO_BENCH_SCALE=smoke`` shrinks the workload for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

import numpy as np

try:  # pytest imports this as benchmarks.bench_serve
    from benchmarks.artifacts import REPO_ROOT, write_bench_json
except ImportError:  # `python benchmarks/bench_serve.py`
    from artifacts import REPO_ROOT, write_bench_json

OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_serve.json")

SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: fraction of ops that are reads; the rest are posts/votes
READ_FRACTION = 0.8

#: p99 ceiling asserted by the pytest/CI smoke entry (seconds). A smoke
#: alarm for pathological latency, far above any healthy loopback p99.
SMOKE_P99_CEILING_S = 0.5


def _workload(smoke: bool) -> Dict[str, int]:
    if smoke:
        return {"clients": 4, "ops_per_client": 500, "tick_every": 200}
    return {"clients": 8, "ops_per_client": 2_500, "tick_every": 500}


# ----------------------------------------------------------------------
# Service subprocess
# ----------------------------------------------------------------------
def _start_service(
    n_players: int, n_objects: int
) -> Tuple[subprocess.Popen, str, int]:
    """Launch ``repro serve --port 0`` and parse the bound address."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--n",
            str(n_players),
            "--m",
            str(n_objects),
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    prefix = "serving on "
    if not line.startswith(prefix):
        proc.kill()
        raise RuntimeError(f"service did not announce itself: {line!r}")
    host, port = line[len(prefix) :].rsplit(":", 1)
    return proc, host, int(port)


# ----------------------------------------------------------------------
# Deterministic op streams
# ----------------------------------------------------------------------
def _draw_ops(
    rng: np.random.Generator,
    count: int,
    n_players: int,
    n_objects: int,
) -> List[Tuple[str, int, int]]:
    """One client's op stream: ``(op, player, object)`` tuples."""
    ops: List[Tuple[str, int, int]] = []
    kinds = rng.random(count)
    read_ops = rng.integers(0, 3, size=count)
    players = rng.integers(0, n_players, size=count)
    objects = rng.integers(0, n_objects, size=count)
    for i in range(count):
        if kinds[i] < READ_FRACTION:
            op = ("counts", "recommend", "scores")[int(read_ops[i])]
        else:
            op = "vote"
        ops.append((op, int(players[i]), int(objects[i])))
    return ops


def _run_client(
    host: str,
    port: int,
    ops: List[Tuple[str, int, int]],
    out: Dict[str, Any],
) -> None:
    from repro.errors import LoadShedError
    from repro.serve import ServeClient

    read_lat: List[float] = []
    write_lat: List[float] = []
    shed = 0
    with ServeClient(host, port) as client:
        for op, player, object_id in ops:
            start = time.perf_counter()
            try:
                if op == "vote":
                    client.vote(player, object_id)
                elif op == "counts":
                    client.counts()
                elif op == "recommend":
                    client.recommend(5)
                else:
                    client.scores()
            except LoadShedError:
                shed += 1
                continue
            elapsed = time.perf_counter() - start
            (write_lat if op == "vote" else read_lat).append(elapsed)
    out["read_latencies"] = read_lat
    out["write_latencies"] = write_lat
    out["shed"] = shed


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
        "mean_ms": float(arr.mean() * 1e3),
        "count": int(arr.size),
    }


# ----------------------------------------------------------------------
def main(smoke: bool = False) -> Dict[str, Any]:
    smoke = smoke or os.environ.get("REPRO_BENCH_SCALE") == "smoke"
    shape = _workload(smoke)
    n_players, n_objects = 4096, 512

    proc, host, port = _start_service(n_players, n_objects)
    try:
        streams = [
            _draw_ops(
                np.random.default_rng([SEED, client]),
                shape["ops_per_client"],
                n_players,
                n_objects,
            )
            for client in range(shape["clients"])
        ]
        results: List[Dict[str, Any]] = [{} for _ in streams]
        threads = [
            threading.Thread(
                target=_run_client,
                args=(host, port, stream, results[i]),
                name=f"bench-serve-client-{i}",
            )
            for i, stream in enumerate(streams)
        ]

        # the ticker drives epochs at a fixed cadence so reads hit a
        # moving recommender; it stops once every client is done
        done = threading.Event()
        ticks = {"count": 0}

        def _ticker() -> None:
            from repro.serve import ServeClient

            interval = shape["tick_every"] / 10_000.0
            with ServeClient(host, port) as client:
                while not done.is_set():
                    client.tick()
                    ticks["count"] += 1
                    done.wait(interval)

        ticker = threading.Thread(target=_ticker, name="bench-serve-ticker")

        wall_start = time.perf_counter()
        ticker.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        ticker.join()
        elapsed = time.perf_counter() - wall_start

        from repro.serve import ServeClient

        with ServeClient(host, port) as client:
            final_metrics = client.metrics()
            client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    reads = [lat for res in results for lat in res["read_latencies"]]
    writes = [lat for res in results for lat in res["write_latencies"]]
    shed = sum(res["shed"] for res in results)
    total_ops = len(reads) + len(writes) + shed

    data = {
        "schema": "repro-bench-serve/1",
        "generated_unix": time.time(),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "config": {
            "smoke": smoke,
            "seed": SEED,
            "n_players": n_players,
            "n_objects": n_objects,
            "read_fraction": READ_FRACTION,
            **shape,
        },
        "elapsed_seconds": elapsed,
        "ticks": ticks["count"],
        "total_ops": total_ops,
        "shed": shed,
        "requests_per_second": total_ops / max(elapsed, 1e-9),
        "posts_per_second": len(writes) / max(elapsed, 1e-9),
        "read": _percentiles(reads),
        "write": _percentiles(writes),
        "serve_counters": {
            name: value
            for name, value in final_metrics["counters"].items()
            if name.startswith("serve.")
        },
        "inflight_peak": final_metrics["inflight_peak"],
        "final_epoch": final_metrics["epoch"],
        "board_posts": final_metrics["posts"],
    }
    write_bench_json("BENCH_serve.json", data)

    print(f"wrote {OUTPUT_PATH}")
    print(
        f"{shape['clients']} clients x {shape['ops_per_client']} ops "
        f"({READ_FRACTION:.0%} reads) in {elapsed:.2f}s, "
        f"{data['ticks']} epochs"
    )
    print(
        f"read  p50={data['read']['p50_ms']:.2f}ms "
        f"p99={data['read']['p99_ms']:.2f}ms ({data['read']['count']} ops)"
    )
    print(
        f"write p50={data['write']['p50_ms']:.2f}ms "
        f"p99={data['write']['p99_ms']:.2f}ms ({data['write']['count']} ops)"
    )
    print(
        f"{data['requests_per_second']:.0f} req/s, "
        f"{data['posts_per_second']:.0f} posts/s, shed={shed}"
    )
    return data


def bench_serve(results_dir):
    """Pytest entry: smoke workload, p99 ceiling, zero shed."""
    data = main(smoke=True)
    assert os.path.exists(OUTPUT_PATH)
    assert data["shed"] == 0, f"load shed under smoke load: {data['shed']}"
    assert data["read"]["p99_ms"] <= SMOKE_P99_CEILING_S * 1e3
    assert data["write"]["p99_ms"] <= SMOKE_P99_CEILING_S * 1e3
    assert data["posts_per_second"] > 0
    assert data["serve_counters"]["serve.shed"] == 0


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload (also: REPRO_BENCH_SCALE=smoke)",
    )
    parsed = cli.parse_args()
    result = main(smoke=parsed.smoke)
    payload = json.dumps(
        {"p99_read_ms": result["read"]["p99_ms"], "shed": result["shed"]}
    )
    print(f"summary {payload}")
