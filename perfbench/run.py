"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --steady RUNS [--seed N] [--seconds S]

Run from the root of a checkout (``src/`` beside ``perfbench/``). A run
sets the working process up three times and reports the median set-up
time, times the workload for ``--seconds`` (whole units of work; a unit
longer than that is timed once), checks every output, and prints a
human-readable table followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. It exits 1 when
a check fails or the run fails or overruns its deadline (the JSON line
still prints, with ``correct: false``), and 2 when the checkout has no
``src/repro``.

``--steady`` runs every workload repeatedly, untraced and interleaved,
one seed per round, each run in its own process, and prints every
metric's median, quartiles and IQR/median. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import SETUP_RUNS, EchoProbe, RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("scalar_e3", "lanes_grid", "sparse_1e5", "serve_mixed")
#: what one op is per workload, and the workload's own names for its
#: rate and latencies, printed beside the shared metric names
OPS = {
    "scalar_e3": ("trial", {"ops_per_s": "trials_per_s", "latency_ms": "mean trial", "epoch_ms": "mean round"}),
    "lanes_grid": ("trial", {"ops_per_s": "trials_per_s", "latency_ms": "mean trial", "epoch_ms": "mean round"}),
    "sparse_1e5": ("round", {"ops_per_s": "rounds_per_s", "latency_ms": "mean round", "epoch_ms": "mean round"}),
    "serve_mixed": ("req", {"ops_per_s": "req_per_s", "latency_ms": "p50_ms", "epoch_ms": "tick_p50_ms"}),
}
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "op/s",
    "latency_ms": "ms",
    "epoch_ms": "ms",
}
PER_LAYER = {
    "adversaries.act.self_s": "s",
    "adversaries.act.calls": "count",
    "billboard.append.self_s": "s",
    "billboard.append.posts": "count",
    "billboard.append.us_per_post": "us",
    "billboard.query.self_s": "s",
    "billboard.query.calls": "count",
    "billboard.effective_vote_frac": "1",
    "sim.batch_engine.self_s": "s",
    "sim.batch_engine.lane_occupancy": "1",
    "sim.engine.self_s": "s",
    "exec.dispatch.self_s": "s",
    "faults.self_s": "s",
    "faults.calls": "count",
    "core.strategy.self_s": "s",
    "core.strategy.calls": "count",
    "world.instance.self_s": "s",
    "world.observe.self_s": "s",
    "sim.rounds": "count",
    "sim.probes": "count",
    "serve.cpu_ms_per_req": "ms",
    "serve.codec.self_ms": "ms",
    "serve.query.self_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.fold.self_ms": "ms",
    "serve.append.self_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.p99_tail_n": "count",
    "serve.shed_frac": "1",
    "trace.overhead_frac": "1",
}
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 5
#: requests per connection in each phase of the traced serve run
TRACE_SERVE_OPS = 6000
#: a run still going after this many seconds has hung: it is stopped,
#: its processes killed, and it reports failure before the caller's
#: 180 s deadline
RUN_DEADLINE_S = 165


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def host_sample() -> Dict[str, Any]:
    """CPUs, load average and cumulative steal ticks, from ``/proc``."""
    with open("/proc/loadavg", encoding="ascii") as handle:
        load = [float(x) for x in handle.read().split()[:3]]
    with open("/proc/stat", encoding="ascii") as handle:
        cpu = handle.readline().split()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": load,
        "steal_ticks": int(cpu[8]) if len(cpu) > 8 else 0,
    }


def host_record(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "nproc": before["nproc"],
        "loadavg_start": before["loadavg"],
        "loadavg_end": after["loadavg"],
        "steal_ticks": after["steal_ticks"] - before["steal_ticks"],
    }


# ----------------------------------------------------------------------
# Simulation workloads: a working process per set-up
# ----------------------------------------------------------------------
def _spawn_sim(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[subprocess.Popen, float]:
    """Start a worker; return it, ready, and its set-up in reference seconds."""
    from serveload import child_env

    clock = RefClock(every=float("inf"), runs=SETUP_RUNS)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sims.py"), workload, str(seed),
         repr(seconds), "1" if trace else "0", RESULTS_DIR],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(ROOT),
    )
    assert proc.stdout is not None
    try:
        line = proc.stdout.readline()
        if json.loads(line or "{}").get("event") != "ready":
            raise RuntimeError(f"{workload} worker failed to set up")
    except BaseException:  # an interrupted set-up leaves no worker behind
        proc.kill()
        proc.wait()
        raise
    end = time.perf_counter()
    clock.finish()  # the worker now idles until told to go
    return proc, clock.span(start, end)


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setups: List[float] = []
    proc: Optional[subprocess.Popen] = None
    try:
        for attempt in range(1 if trace else SETUPS):
            proc, setup = _spawn_sim(workload, seed, seconds, trace)
            setups.append(setup)
            if attempt < (0 if trace else SETUPS - 1):
                proc.communicate("exit\n")
        assert proc is not None
        lines = proc.communicate("go\n")[0].splitlines()
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    result = json.loads(lines[-1]) if lines else {"problems": ["worker died"], "failed": 1, "attempted": 1}
    result["setups"] = setups
    ops = result.get("ops_per_s", 0.0)
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result.get("peak_rss_mb", 0.0),
        "ops_per_s": ops,
        "latency_ms": result.get("latency_ms", 0.0),
        "epoch_ms": result.get("epoch_ms", 0.0),
    }
    return result


# ----------------------------------------------------------------------
# serve_mixed: the server is the working process, this one the client
# ----------------------------------------------------------------------
def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _serve_phase(seed: int, seconds: float = 0.0, ops: int = 0, spans: Optional[str] = None) -> Dict[str, Any]:
    """Start a server as operators do, warm it up and, unless neither
    ``seconds`` nor ``ops`` is given, drive it for ``seconds`` (or for
    ``ops`` requests per connection) and replay-check its final state.

    The server and this process, the client, share one CPU, so the closed
    loop runs exactly when that CPU does and the reference kernel, timed
    by the client, sees the same host speed (see ``hostspeed``)."""
    import serveload as sl

    pinned = sl.serve_cpu()
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, pinned)
    echo = EchoProbe()
    clock = RefClock(every=float("inf"), runs=SETUP_RUNS)
    server = sl.Server(sl.serve_argv(ROOT, traced_spans=spans), ROOT, cpus=pinned)
    try:
        client = sl.Client(server.address, seed, echo=echo)
        warm = client.drive(ops=sl.WARMUP_OPS, timed=False)
        ready = time.perf_counter()
        clock.finish()
        out: Dict[str, Any] = {"setup_s": clock.span(server.spawned, ready), "warm": warm}
        if seconds or ops:
            cpu = server.cpu_seconds()
            out["stats"] = client.drive(seconds=seconds, ops=ops)
            out["cpu_s"] = server.cpu_seconds() - cpu
            out["rss_mb"] = server.peak_rss_mb()
            out["replay"] = sl.replay_check(client)
        server.stop(client)
    finally:
        server.kill()
        echo.close()
        os.sched_setaffinity(0, home)
    return out


def run_serve(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if trace:
        return run_serve_traced(seed)
    phases = [_serve_phase(seed) for _ in range(SETUPS - 1)]
    phases.append(_serve_phase(seed, seconds=seconds))
    last = phases[-1]
    stats = last["stats"]
    warm = [phase["warm"] for phase in phases]
    non_tick = stats.non_tick()
    setups = [phase["setup_s"] for phase in phases]
    return {
        "setups": setups,
        "attempted": sum(w.sent for w in warm) + stats.sent,
        "failed": sum(w.failed for w in warm) + stats.failed + len(last["replay"]),
        "problems": [e for w in warm for e in w.errors] + stats.errors + last["replay"],
        "replies": stats.replies(),
        "timed_wall": stats.wall,
        "by_op": {k: len(v) for k, v in stats.latency.items()},
        "server_cpu_s": last["cpu_s"],
        "host_speed": stats.speed,
        "real_ops_per_s": stats.replies() / stats.real_wall,
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": last["rss_mb"],
            "ops_per_s": stats.rate,
            "latency_ms": _median_ms(non_tick),
            "epoch_ms": _median_ms(stats.latency.get("tick", [])),
        },
        "p99_ms": _p99(non_tick) * 1e3,
    }


def _p99(values: List[float]) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else 0.0


def run_serve_traced(seed: int) -> Dict[str, Any]:
    from spans import layer_totals

    untraced = _serve_phase(seed, ops=TRACE_SERVE_OPS)
    span_path = os.path.join(RESULTS_DIR, f"serve_mixed-seed{seed}-spans.json")
    traced_phase = _serve_phase(seed, ops=TRACE_SERVE_OPS, spans=span_path)
    plain, cpu, replay = untraced["stats"], untraced["cpu_s"], untraced["replay"]
    traced, traced_replay = traced_phase["stats"], traced_phase["replay"]
    warm = [untraced["warm"], traced_phase["warm"]]
    with open(span_path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    spans = [tuple(s) for s in recorded["spans"]]
    counts = recorded["counts"]
    totals = layer_totals(spans, recorded["layer_of"])
    # server time per request: decode, handler and encode spans, whole
    server_s = sum(end - start for name, start, end, parent, _t, _i in spans if parent < 0)
    requests = max(counts.get("requests", 0), 1)
    reads = max(counts.get("kind.query", 0), 1)
    ticks = max(counts.get("kind.tick", 0), 1)
    # client latencies are reference seconds, server spans real ones
    client_s = sum(sum(v) for v in traced.latency.values()) / traced.speed
    client_n = max(sum(len(v) for v in traced.latency.values()), 1)

    def own(layer: str, key: str = "self_s") -> float:
        return float(totals.get(layer, {}).get(key, 0.0))

    non_tick = plain.non_tick()
    p99 = _p99(non_tick)
    posts = own("billboard.append", "items")
    layers = {
        "billboard.append.self_s": own("billboard.append"),
        "billboard.append.posts": posts,
        "billboard.append.us_per_post": own("billboard.append") / posts * 1e6 if posts else 0.0,
        "billboard.query.self_s": own("billboard.query"),
        "billboard.query.calls": own("billboard.query", "calls"),
        "billboard.effective_vote_frac": (
            counts.get("effective_votes", 0) / counts["votes_posted"] if counts.get("votes_posted") else 0.0
        ),
        "serve.cpu_ms_per_req": cpu * 1e3 / max(plain.replies(), 1),
        "serve.codec.self_ms": own("serve.codec") * 1e3 / requests,
        "serve.query.self_ms": own("serve.query") * 1e3 / reads,
        "serve.wait_ms": (client_s / client_n - server_s / requests) * 1e3,
        "serve.fold.self_ms": own("serve.fold") * 1e3 / ticks,
        "serve.append.self_ms": own("billboard.append") * 1e3 / ticks,
        "serve.p99_ms": p99 * 1e3,
        "serve.p99_tail_n": float(sum(1 for x in non_tick if x > p99)),
        "serve.shed_frac": plain.shed / max(plain.sent, 1),
        "trace.overhead_frac": traced.wall / plain.wall - 1.0,
    }
    return {
        "attempted": sum(w.sent for w in warm) + plain.sent + traced.sent,
        "failed": sum(w.failed for w in warm) + plain.failed + traced.failed + len(replay) + len(traced_replay),
        "problems": [e for w in warm for e in w.errors] + plain.errors + replay
        + [f"traced: {p}" for p in traced.errors + traced_replay],
        "layers": layers,
        "totals": totals,
        "traced_wall": traced.wall,
        "untraced_wall": plain.wall,
        "span_file": span_path,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_table(workload: str, seed: int, trace: bool, out: Dict[str, Any]) -> None:
    op, aliases = OPS[workload]
    host = out["host"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print(
        f"host: nproc={host['nproc']} loadavg={host['loadavg_start'][0]:.2f}"
        f"->{host['loadavg_end'][0]:.2f} steal_ticks={host['steal_ticks']}"
        + (f" speed={out['host_speed']:.3f}" if "host_speed" in out else "")
    )
    if trace:
        wall = out.get("traced_wall", 0.0)
        print(f"per-layer self time of one traced unit ({wall:.3f} s traced wall):")
        for layer, row in sorted(out.get("totals", {}).items(), key=lambda kv: -kv[1]["self_s"]):
            share = row["self_s"] / wall if wall else 0.0
            print(
                f"  {layer:<20} {row['self_s']:10.4f} s {share:7.1%}"
                f"  calls={int(row['calls'])} items={int(row['items'])}"
            )
        for name, value in out["metrics"].items():
            print(f"  {name:<34} {value:14.6g} {PER_LAYER[name]}")
        if out.get("span_file"):
            print(f"spans: {out['span_file']}")
    else:
        for name, value in out["metrics"].items():
            label = f"{name} ({aliases[name]})" if name in aliases else name
            unit = f"{op}/s" if name == "ops_per_s" else END_TO_END[name]
            print(f"  {label:<28} {value:14.6g} {unit}")
        if "real_ops_per_s" in out:
            print(f"  {'ops_per_s at host speed':<28} {out['real_ops_per_s']:14.6g} {op}/s (not gated)")
        if "p99_ms" in out:
            print(f"  {'p99_ms (not gated)':<28} {out['p99_ms']:14.6g} ms")
    fail_frac = out["failed"] / max(out["attempted"], 1)
    print(f"  {'fail_frac':<28} {fail_frac:14.6g} 1  ({out['failed']}/{out['attempted']})")
    for problem in out.get("problems", []):
        print(f"  FAILED: {problem}")


class Overrun(BaseException):
    """The run passed ``RUN_DEADLINE_S``. Not an ``Exception``, so no
    cleanup handler on the way (such as a server's shutdown) swallows it."""


def _overrun(*_: Any) -> None:
    raise Overrun(f"run still going after {RUN_DEADLINE_S} s")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the client and the replay
    os.makedirs(RESULTS_DIR, exist_ok=True)
    before = host_sample()
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_DEADLINE_S)
    try:
        if workload == "serve_mixed":
            out = run_serve(seed, seconds, trace)
        else:
            out = run_sim(workload, seed, seconds, trace)
    except (Exception, Overrun) as exc:  # hung, crashed or unready: a failed run, still reported
        traceback.print_exc()
        problem = f"{type(exc).__name__}: {exc}"
        out = {"attempted": 1, "failed": 1, "problems": [problem], "metrics": dict.fromkeys(END_TO_END, 0.0)}
    finally:
        signal.alarm(0)
    out["host"] = host_record(before, host_sample())
    if trace:
        out["metrics"] = {name: float(out.get("layers", {}).get(name, 0.0)) for name in PER_LAYER}
    units = PER_LAYER if trace else END_TO_END
    correct = not out.get("problems") and out["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(max(out["attempted"], 1)),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in out["metrics"].items()
        },
    }
    path = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "run": out, "result": result}, handle, indent=1)
    print_table(workload, seed, trace, out)
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Steadiness mode
# ----------------------------------------------------------------------
def steady(runs: int, seconds: float, first_seed: int) -> int:
    """Interleaved untraced runs of every workload; per metric median,
    quartiles, IQR/median."""
    values: Dict[Tuple[str, str], List[float]] = {}
    status = 0
    for index in range(runs):
        for workload in WORKLOADS:
            seed = first_seed + index
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            host = next((line for line in lines if line.startswith("host:")), "host: ?")
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"run {index} {workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            print(f"run {index} {workload} seed {seed}: correct={result['correct']} {host}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    print(f"{'workload':<12} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}  n")
    for (workload, name), series in values.items():
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{workload:<12} {name:<34} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}  {len(series)}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    # a terminated run still unwinds, so every child it started is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS", help="steadiness mode: untraced runs per workload")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args.steady, args.seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required (or use --steady)")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # this process is the serve client: give it the fixed hash seed
        # of every process it starts (see ``serveload.child_env``)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, HERE)
    sys.exit(main())
