"""Closed-loop load for ``repro serve`` from one thread, and its replay check.

Two connections, driven by one thread through a selector: each sends its
next request only after the reply to the previous one arrived. The op
streams are a pure function of ``(seed, connection)``:

* connection 0 carries every vote, a ``tick`` at every 400th op of its
  stream, and reads in between;
* connection 1 carries only reads.

Reads split evenly over ``counts``, ``recommend k=5`` and ``scores``.
Because every write and tick rides connection 0, the served board after
a run is a function of how many of connection 0's ops completed, so an
in-process replay of that prefix through ``batch_recommender`` must give
the same ``scores``, ``counts`` and ``board`` replies.

``src/`` must be on the import path (``run.py`` puts it there).
"""

from __future__ import annotations

import bisect
import os
import select
import selectors
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

# imported before any server starts, so set-up times the server, not this
from repro.exec.protocol import encode_frame, recv_frame, send_frame

from hostspeed import EchoProbe, RefClock

N_PLAYERS = 4096
N_OBJECTS = 512
#: connection 0's op index ``i`` is a tick when ``(i + 1) % TICK_EVERY == 0``
TICK_EVERY = 400
#: share of connection 0's other ops that are votes; with both
#: connections progressing alike, the overall mix is 80% reads, 20% votes
VOTE_SHARE_CONN0 = 0.4
#: closed-loop connections; never more than the host's CPUs
CONNECTIONS = 2
#: ops per connection before timing starts; two ticks land in it, so the
#: first fold's one-off costs do too
WARMUP_OPS = 2 * TICK_EVERY + 100
#: a reply slower than this counts as a timeout and ends the run
REPLY_TIMEOUT_S = 30.0
#: a server that has not announced its address by then has failed
START_TIMEOUT_S = 60.0

_READS = (
    ("counts", ("query", {"op": "counts"})),
    ("recommend", ("query", {"op": "recommend", "k": 5})),
    ("scores", ("query", {"op": "scores"})),
)


def op_stream(seed: int, conn: int, block: int = 2048) -> Iterator[Tuple[str, Any, bytes]]:
    """Connection ``conn``'s endless op stream: ``(label, body, frame)``."""
    rng = np.random.default_rng([seed, conn])
    index = 0
    while True:
        draws = rng.random(block)
        reads = rng.integers(0, len(_READS), block)
        players = rng.integers(0, N_PLAYERS, block)
        objects = rng.integers(0, N_OBJECTS, block)
        for j in range(block):
            if conn == 0 and (index + 1) % TICK_EVERY == 0:
                label, kind, body = "tick", "tick", None
            elif conn == 0 and draws[j] < VOTE_SHARE_CONN0:
                body = {"player": int(players[j]), "object": int(objects[j])}
                label, kind = "vote", "vote"
            else:
                label, (kind, body) = _READS[int(reads[j])]
            index += 1
            yield label, body, encode_frame(kind, body)


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def child_env(root: str) -> Dict[str, str]:
    """The environment for processes the benchmark starts: ``src/`` on the
    path, no ``REPRO_*`` knob, so every run takes the default path, and a
    fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    # one string-hash layout for every run: a random one moves dict and
    # set costs from process to process
    env["PYTHONHASHSEED"] = "0"
    return env


def serve_cpu() -> Set[int]:
    """The one CPU the server and the client share: the last this process
    may use."""
    return {max(os.sched_getaffinity(0))}


class Server:
    """One server process: spawned, announced, and always reaped."""

    def __init__(self, argv: Sequence[str], root: str, cpus: Optional[Set[int]] = None) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=root,
            env=child_env(root),
            # pinned before exec, so every thread of the server stays there
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        assert self.proc.stdout is not None
        prefix = "serving on "
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline().strip() if ready else "<nothing>"
            if not line.startswith(prefix):
                raise RuntimeError(f"server did not announce itself: {line!r}")
        except BaseException:  # an interrupted start leaves no server behind
            self.kill()
            raise
        host, port = line[len(prefix):].rsplit(":", 1)
        self.address = (host, int(port))

    def cpu_seconds(self) -> float:
        """utime + stime of the server so far, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, client: Optional["Client"] = None) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        try:
            if client is not None:
                client.request(0, "shutdown")
                client.close()  # the server waits for open connections
            self.proc.wait(timeout=15)
        except Exception:
            self.kill()
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ----------------------------------------------------------------------
# Closed-loop client
# ----------------------------------------------------------------------
class Stats:
    """Latencies (reference seconds in a timed drive) and failures of one
    driven phase."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {}
        self.sent = 0
        self.failed = 0
        self.shed = 0
        #: seconds from the first send to the last reply (reference seconds
        #: in a timed drive, real in a warm-up)
        self.wall = 0.0
        #: host speed over the phase (:meth:`RefClock.speed`)
        self.speed = 1.0
        #: real seconds of the same, pauses left out
        self.real_wall = 0.0
        #: replies per reference second: in a timed drive the median over
        #: the stretches between pauses, else replies / wall
        self.rate = 0.0
        self.n_replies = 0
        self.errors: List[str] = []

    def add(self, label: str, seconds: float) -> None:
        self.latency.setdefault(label, []).append(seconds)

    def replies(self) -> int:
        return self.n_replies

    def non_tick(self) -> List[float]:
        return [x for label, v in self.latency.items() if label != "tick" for x in v]


class Client:
    """``CONNECTIONS`` sockets, one op stream each, one thread."""

    def __init__(self, address: Tuple[str, int], seed: int, echo: Optional[EchoProbe] = None) -> None:
        #: timed after the kernel in every pause of a timed drive
        self.echo = echo
        self.socks: List[socket.socket] = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.streams = [op_stream(seed, conn) for conn in range(CONNECTIONS)]
        #: connection 0's acknowledged ops, in order: what the replay applies
        self.applied: List[Tuple[str, Any]] = []

    def request(self, conn: int, kind: str, body: Any = None) -> Any:
        """One blocking round trip outside the load (checks, shutdown)."""
        send_frame(self.socks[conn], kind, body)
        reply_kind, reply_body = recv_frame(self.socks[conn])
        if reply_kind != "ok":
            raise RuntimeError(f"{kind} refused: {reply_kind} {reply_body!r}")
        return reply_body

    def drive(self, seconds: float = 0.0, ops: int = 0, timed: bool = True) -> Stats:
        """Closed loop until ``seconds`` pass, or until each connection has
        completed ``ops`` requests when ``ops`` is given.

        When ``timed``, every ``hostspeed.EVERY_S`` seconds the loop stops
        sending, lets the replies in flight arrive and times the reference
        kernel; latencies and the wall are then reported in reference
        seconds, pauses left out. Otherwise (warm-up) they are real seconds.
        """
        stats = Stats()
        clock = RefClock(echo=self.echo) if timed else None
        selector = selectors.DefaultSelector()
        pending: Dict[int, Tuple[str, Any, float]] = {}
        #: connections whose next request waits for the pause to end
        ready: List[int] = []
        replied: List[Tuple[str, float, float]] = []
        done = [0] * CONNECTIONS
        draining = False
        start = time.perf_counter()
        deadline = start + seconds

        def send(conn: int) -> None:
            label, body, frame = next(self.streams[conn])
            pending[conn] = (label, body, time.perf_counter())
            self.socks[conn].sendall(frame)
            stats.sent += 1

        for conn, sock in enumerate(self.socks):
            selector.register(sock, selectors.EVENT_READ, conn)
            send(conn)
        try:
            while pending:
                events = selector.select(timeout=REPLY_TIMEOUT_S)
                if not events:
                    stats.failed += len(pending)
                    stats.errors.append("reply timeout")
                    break
                for key, _mask in events:
                    conn = key.data
                    try:
                        kind, reply = recv_frame(self.socks[conn])
                    except Exception as exc:  # dropped connection
                        stats.failed += 1
                        stats.errors.append(f"connection {conn}: {exc}")
                        pending.clear()
                        ready.clear()
                        break
                    now = time.perf_counter()
                    label, body, sent_at = pending.pop(conn)
                    done[conn] += 1
                    if kind == "ok":
                        replied.append((label, sent_at, now))
                        if conn == 0 and label in ("vote", "tick"):
                            self.applied.append((label, body))
                    else:
                        stats.failed += 1
                        stats.shed += kind == "shed"
                        stats.errors.append(f"{label}: {kind} {reply!r}"[:200])
                    if done[conn] < ops if ops else now < deadline:
                        ready.append(conn)
                draining = draining or (clock is not None and clock.due())
                if draining and not pending:
                    assert clock is not None
                    clock.pause()
                    draining = False
                if not draining:
                    for conn in ready:
                        send(conn)
                    ready.clear()
        finally:
            selector.close()
        end = time.perf_counter()
        stats.n_replies = len(replied)
        if clock is None:  # warm-up: real seconds, every reply
            for label, sent_at, replied_at in replied:
                stats.add(label, replied_at - sent_at)
            stats.wall = stats.real_wall = end - start
            stats.rate = stats.n_replies / stats.wall if stats.wall else 0.0
            return stats
        clock.finish()
        stats.speed = clock.speed()
        stats.real_wall = clock.real_span(start, end)
        stats.wall = clock.span(start, end)
        for label, sent_at, replied_at in replied:
            stats.add(label, clock.span(sent_at, replied_at))
        # replies per reference second in each whole stretch between pauses
        # (a pause waits for the replies in flight, so no request straddles
        # one); their median shrugs off the stretches a steal stalled
        arrivals = sorted(replied_at for _l, _s, replied_at in replied)
        rates = [
            (bisect.bisect_left(arrivals, last) - bisect.bisect_left(arrivals, first)) / ref_s
            for first, last, ref_s in clock.segments()
            if last - first >= clock.every / 2
        ]
        stats.rate = statistics.median(rates) if rates else stats.n_replies / stats.wall
        return stats

    def close(self) -> None:
        for sock in self.socks:
            sock.close()


# ----------------------------------------------------------------------
# Replay check
# ----------------------------------------------------------------------
def replay_expectation(applied: Sequence[Tuple[str, Any]]) -> Dict[str, Any]:
    """Apply connection 0's acknowledged ops to a fresh board the way the
    service does, and answer ``scores``/``counts``/``board`` from it."""
    from repro.billboard.board import Billboard
    from repro.billboard.post import PostKind
    from repro.billboard.views import SnapshotView
    from repro.serve.config import ServeConfig
    from repro.serve.recommender import batch_recommender
    from repro.strategies.base import StrategyContext

    config = ServeConfig(n_players=N_PLAYERS, n_objects=N_OBJECTS)
    board = Billboard(N_PLAYERS, N_OBJECTS)
    epoch = 0
    buffered: List[Tuple[int, int, float, PostKind]] = []
    for label, body in applied:
        if label == "vote":
            buffered.append((body["player"], body["object"], 1.0, PostKind.VOTE))
        else:
            if buffered:
                board.append_many(epoch, buffered)
                buffered = []
            epoch += 1
    ctx = StrategyContext(
        n=N_PLAYERS, m=N_OBJECTS, alpha=config.alpha, beta=config.beta
    )
    recommender = batch_recommender(board, ctx, epoch)
    view = SnapshotView(board, epoch=epoch)
    return {
        "scores": [float(s) for s in recommender.scores()],
        "counts": [int(c) for c in view.cumulative_vote_counts()],
        "board": {
            "epoch": epoch,
            "posts": len(board),
            "visible_votes": int(view.objects_with_votes().size),
            "buffered": len(buffered),
            "substrate": "dense",
        },
    }


def replay_check(client: Client) -> List[str]:
    """Served final state vs the replay; one message per mismatch."""
    expected = replay_expectation(client.applied)
    served = {
        "scores": client.request(0, "query", {"op": "scores"})["scores"],
        "counts": client.request(0, "query", {"op": "counts"})["counts"],
        "board": client.request(0, "query", {"op": "board"}),
    }
    return [
        f"served {name} differs from the replay of {len(client.applied)} writes"
        for name in ("scores", "counts", "board")
        if served[name] != expected[name]
    ]


def serve_argv(root: str, traced_spans: Optional[str] = None) -> List[str]:
    """``repro serve`` as an operator starts it, or the traced entry."""
    shape = ["--n", str(N_PLAYERS), "--m", str(N_OBJECTS), "--port", "0"]
    if traced_spans is None:
        return [sys.executable, "-m", "repro.cli", "serve", *shape]
    entry = os.path.join(os.path.dirname(os.path.abspath(__file__)), "servetraced.py")
    return [sys.executable, entry, *shape, "--spans", traced_spans]
