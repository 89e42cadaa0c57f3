"""Host speed from a fixed reference kernel, and a clock that takes it out.

The reference host is a shared 2-vCPU VM whose speed comes in spells: the
same code runs up to twice as slow for seconds or minutes at a time, longer
than one run can average out. So every timed phase is interleaved with a
fixed reference kernel, which uses nothing from ``repro``, and its timings
are converted to *reference seconds*: real seconds scaled by the kernel's
nominal time over its time measured around them. A change to the program
moves reference seconds just as it moves real ones; a change in the host's
speed moves the kernel as well and cancels out.

For a request-reply loop of two processes sharing a CPU, a pause also
times an :class:`EchoProbe`, round trips to a child process, which the
kernel alone does not resemble.

:class:`RefClock` does the interleaving: it pauses to time the kernel
when told to (:meth:`RefClock.pause`, which a caller makes once
:meth:`RefClock.due` says ``every`` seconds have passed) or, inside
:meth:`RefClock.interrupting`, every ``every`` seconds of CPU time from a
timer signal; :meth:`RefClock.span` converts two ``time.perf_counter()``
stamps to reference seconds after the phase. A segment between
two pauses is scaled by the mean of the kernel times at its two ends, and
the pauses themselves are left out.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import os
import pickle
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

#: seconds one kernel run takes on the reference host in a quiet spell;
#: reference seconds read as real seconds at that speed
NOMINAL_KERNEL_S = 0.0045
#: kernel runs per pause in a timed phase (many short pauses sample the
#: host's speed better than a few long ones)
RUNS_PER_PAUSE = 1
#: kernel runs per pause around a set-up, which has only its two ends
SETUP_RUNS = 5
#: seconds between pauses in a timed phase
EVERY_S = 0.1
#: round trips per :class:`EchoProbe` run, and their seconds on the
#: reference host in a quiet spell
ECHO_TRIPS = 200
NOMINAL_ECHO_S = 0.0037

_RNG = np.random.default_rng(20050715)
_KEYS = [int(k) for k in _RNG.integers(0, 1 << 20, 3000)]
_VALUES = _RNG.random(1 << 15)
_BINS = _RNG.integers(0, 4096, 1 << 15)


class _Record:
    __slots__ = ("index", "key", "next")

    def __init__(self, index: int, key: int) -> None:
        self.index = index
        self.key = key
        self.next = None


def kernel() -> float:
    """A fixed mix of the work the program does: small objects, tuple-keyed
    dicts, a keyed sort and attribute loops, then numpy sort and bincount."""
    records = [_Record(i, k) for i, k in enumerate(_KEYS)]
    index = {}
    for record in records:
        index[(record.key & 4095, record.index & 7)] = record
    records.sort(key=lambda r: r.key)
    total = 0
    for record in records:
        if record.key & 1:
            total += index.get((record.key & 4095, record.index & 7), record).index
    ordered = np.sort(_VALUES * 1.5)
    binned = np.bincount(_BINS, weights=ordered, minlength=4096)
    return total + float(binned[-1])


def time_kernel() -> float:
    """Seconds for one kernel run, with the collector off so that the
    program's ``gc`` settings do not reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class EchoProbe:
    """A child process on this process's CPUs that answers each small
    pickled message with another. A call times ``ECHO_TRIPS`` round trips:
    the context switches, socket calls and pickling a request-reply loop
    is made of, with no work of the program's."""

    def __init__(self) -> None:
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--echo", str(theirs.fileno())],
                pass_fds=[theirs.fileno()],
            )
        finally:
            theirs.close()

    def __call__(self) -> float:
        start = time.perf_counter()
        for trip in range(ECHO_TRIPS):
            self.sock.sendall(pickle.dumps(("probe", {"trip": trip, "values": _ECHO_VALUES})))
            pickle.loads(self.sock.recv(1 << 16))
        return time.perf_counter() - start

    def close(self) -> None:
        self.sock.close()  # the child exits on end of file
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


_ECHO_VALUES = list(range(32))


def _echo(fd: int) -> None:
    sock = socket.socket(fileno=fd)
    while True:
        data = sock.recv(1 << 16)
        if not data:
            return
        _kind, body = pickle.loads(data)
        sock.sendall(pickle.dumps(("ok", sum(body["values"]))))


class RefClock:
    """Real-time stamps, pauses to time the kernel, and their conversion
    to reference seconds. Call :meth:`finish` before :meth:`span`."""

    def __init__(self, every: float = EVERY_S, runs: int = RUNS_PER_PAUSE,
                 echo: Optional[Callable[[], float]] = None) -> None:
        self.every = every
        #: kernel runs per pause; the pause uses their median
        self.runs = runs
        #: an :class:`EchoProbe` run after the kernel in every pause, its
        #: time added to the kernel's (and its nominal to the nominal)
        self.echo = echo
        self.nominal = NOMINAL_KERNEL_S + (NOMINAL_ECHO_S if echo is not None else 0.0)
        #: (pause start, pause end, kernel seconds), in time order
        self.pauses: List[Tuple[float, float, float]] = []
        self._cum: List[float] = []
        self._ends: List[float] = []
        self._pausing = False
        self.pause()

    def pause(self) -> None:
        """Time the kernel now."""
        if self._pausing:  # a timer signal that lands inside a pause
            return
        self._pausing = True
        start = time.perf_counter()
        kernel_s = statistics.median(time_kernel() for _ in range(self.runs))
        if self.echo is not None:
            kernel_s += self.echo()
        self.pauses.append((start, time.perf_counter(), kernel_s))
        self._pausing = False

    @contextlib.contextmanager
    def interrupting(self) -> Iterator[None]:
        """Pause every ``every`` seconds of this process's CPU time, from
        a ``SIGPROF`` handler, so that even one long call of the program
        is sampled throughout. Main thread only."""
        previous = signal.signal(signal.SIGPROF, lambda *_: self.pause())
        signal.setitimer(signal.ITIMER_PROF, self.every, self.every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def due(self) -> bool:
        return time.perf_counter() - self.pauses[-1][1] >= self.every

    def finish(self) -> None:
        """Close the last segment with a pause and fix the conversion."""
        self.pause()
        self._ends = [end for _start, end, _k in self.pauses]
        self._cum = [0.0]
        for k in range(len(self.pauses) - 1):
            self._cum.append(self._cum[-1] + self._segment(k) * self._scale(k))

    def _segment(self, k: int) -> float:
        return self.pauses[k + 1][0] - self.pauses[k][1]

    def _scale(self, k: int) -> float:
        return 2.0 * self.nominal / (self.pauses[k][2] + self.pauses[k + 1][2])

    def ref(self, stamp: float) -> float:
        """Reference seconds from the first pause's end to ``stamp``."""
        k = min(max(bisect.bisect_right(self._ends, stamp) - 1, 0), len(self.pauses) - 2)
        into = min(max(stamp - self.pauses[k][1], 0.0), self._segment(k))
        return self._cum[k] + into * self._scale(k)

    def segments(self) -> List[Tuple[float, float, float]]:
        """(start, end, reference seconds) of each stretch between pauses."""
        return [
            (self.pauses[k][1], self.pauses[k + 1][0], self._segment(k) * self._scale(k))
            for k in range(len(self.pauses) - 1)
        ]

    def span(self, start: float, end: float) -> float:
        """Reference seconds between two stamps, pauses left out."""
        return self.ref(end) - self.ref(start)

    def real_span(self, start: float, end: float) -> float:
        """Real seconds between two stamps, pauses left out."""
        inside = sum(min(e, end) - max(s, start) for s, e, _k in self.pauses if s < end and e > start)
        return end - start - inside

    def speed(self) -> float:
        """Median nominal ÷ measured kernel time: above 1 on a fast spell."""
        return statistics.median(self.nominal / k for _s, _e, k in self.pauses)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--echo"]:
        _echo(int(sys.argv[2]))
