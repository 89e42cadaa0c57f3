"""Monotonic-deadline trial cancellation on the main thread.

The budget is enforced by a single daemon *watchdog thread* watching
``time.monotonic()`` deadlines: when a block runs past its deadline the
watchdog sends ``SIGALRM`` to the main thread via
:func:`signal.pthread_kill`, and the handler (installed by
:func:`trial_deadline`, from the main thread, as CPython requires)
raises :class:`~repro.errors.TrialTimeoutError` inside the block.
Signals interrupt blocking syscalls, so even a sleeping trial dies on
time. This covers the serial path, every forked pool worker (a forked
child's only thread is its main thread), and the test suite's per-test
cap.

Off the main thread no signal handler can run, so a budget there is
refused with :class:`~repro.errors.ConfigurationError` rather than left
unenforced. Network waits bound themselves instead: a
:class:`~repro.serve.client.ServeClient` puts its timeout on the socket.

This module owns the execution layer's only ambient clock reads
(``time.monotonic``) — which is why it lives in :mod:`repro.exec`,
outside the determinism-critical packages reprolint's wall-clock rule
protects. Deadlines bound *wall time*; they never feed a result.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError, TrialTimeoutError


def timeout_message(seconds: float) -> str:
    """The canonical budget-exceeded message (pinned by the test suite)."""
    return f"trial exceeded its wall-clock budget of {seconds}s"


class _Handle:
    """One protected block's deadline, shared with the watchdog."""

    __slots__ = ("deadline", "thread_ident", "fired", "cancelled", "delivered")

    def __init__(self, seconds: float, thread_ident: int) -> None:
        self.deadline = time.monotonic() + seconds
        self.thread_ident = thread_ident
        #: watchdog committed to cancelling this block
        self.fired = False
        #: the block finished before (or while) the watchdog acted
        self.cancelled = False
        #: the SIGALRM for this handle reached the Python handler
        self.delivered = False


class _Watchdog:
    """The process-wide deadline monitor (one lazy daemon thread).

    All state transitions happen under one condition lock, so for every
    handle exactly one of ``fired`` / ``cancelled`` wins; the loser is a
    no-op. The thread is restarted lazily after ``fork`` (forked
    children inherit only the forking thread, and ``Thread.is_alive``
    reports the copy dead).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._handles: List[_Handle] = []
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def register(self, handle: _Handle) -> None:
        with self._cond:
            self._handles.append(handle)
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run,
                    name="repro-deadline-watchdog",
                    daemon=True,
                )
                self._thread.start()
            self._cond.notify()

    def cancel(self, handle: _Handle) -> None:
        """Withdraw a handle; settle any in-flight cancellation.

        If the watchdog already fired, its ``SIGALRM`` is *en route*: wait
        for the (now inert — ``cancelled`` is set) signal to be consumed
        before the caller restores the previous handler, so a late
        ``SIGALRM`` can never hit a handler that doesn't expect it.
        """
        with self._cond:
            handle.cancelled = True
            if handle in self._handles:
                self._handles.remove(handle)
            fired = handle.fired
        while fired and not handle.delivered:
            time.sleep(0.0005)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._handles:
                    self._cond.wait()
                now = time.monotonic()
                due = [h for h in self._handles if h.deadline <= now]
                if not due:
                    next_deadline = min(h.deadline for h in self._handles)
                    self._cond.wait(timeout=next_deadline - now)
                    continue
                for handle in due:
                    self._handles.remove(handle)
                    if not handle.cancelled:
                        handle.fired = True
                        try:
                            signal.pthread_kill(
                                handle.thread_ident, signal.SIGALRM
                            )
                        except (ProcessLookupError, OSError):  # thread gone
                            pass


_WATCHDOG = _Watchdog()


@contextmanager
def trial_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`TrialTimeoutError` if the block runs past ``seconds``.

    ``None`` or a non-positive budget disables enforcement. A budget
    needs ``SIGALRM`` on the main thread; anywhere else it raises
    :class:`ConfigurationError` before the block runs.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    thread = threading.current_thread()
    if thread is not threading.main_thread() or not hasattr(signal, "SIGALRM"):
        raise ConfigurationError(
            f"trial_deadline({seconds}) needs SIGALRM on the main thread, "
            f"not on thread {thread.name!r}; bound waits off the main "
            "thread another way (e.g. a socket timeout)"
        )
    handle = _Handle(float(seconds), threading.get_ident())
    previous = signal.getsignal(signal.SIGALRM)

    def _expired(signum: int, frame: object) -> None:
        handle.delivered = True
        if handle.fired and not handle.cancelled:
            raise TrialTimeoutError(timeout_message(seconds))
        if callable(previous):  # not ours: pass it along
            previous(signum, frame)

    signal.signal(signal.SIGALRM, _expired)
    _WATCHDOG.register(handle)
    try:
        yield
    finally:
        try:
            _WATCHDOG.cancel(handle)
        except TrialTimeoutError:
            # the deadline and the block's completion raced; the block
            # finished, so the cancellation is moot
            pass
        signal.signal(signal.SIGALRM, previous)
