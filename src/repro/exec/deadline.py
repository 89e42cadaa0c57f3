"""Monotonic-deadline trial cancellation, off the main thread too.

The first-generation per-trial timeout was a ``SIGALRM`` interval timer,
which only works on a Unix main thread. Deadlines are also wanted off
the main thread — a :class:`~repro.serve.client.ServeClient` bounds its
reply wait on whatever thread calls it — so the budget is enforced by a
single daemon *watchdog thread* watching ``time.monotonic()`` deadlines
and cancelling overdue blocks in whatever thread runs them:

* **main thread** — the watchdog sends ``SIGALRM`` via
  :func:`signal.pthread_kill`; the handler (installed by
  :func:`trial_deadline`, from the main thread, as CPython requires)
  raises :class:`~repro.errors.TrialTimeoutError`. Signals interrupt
  blocking syscalls, so even a sleeping trial dies on time. This covers
  the serial path, every forked pool worker, and the test suite's
  per-test cap.
* **any other thread** — the watchdog plants the exception with
  ``PyThreadState_SetAsyncExc``, which fires at the next bytecode
  boundary. A tight numpy loop is interrupted promptly; a thread parked
  in a long blocking syscall is cancelled only when it returns (the
  documented limitation of off-main-thread cancellation in CPython).

Semantics are unchanged from the SIGALRM era: the same
:class:`~repro.errors.TrialTimeoutError` with the same message, raised
inside the protected block. On runtimes with neither mechanism the
budget is silently unenforced, exactly like the old implementation.

This module owns the execution layer's only ambient clock reads
(``time.monotonic``) — which is why it lives in :mod:`repro.exec`,
outside the determinism-critical packages reprolint's wall-clock rule
protects. Deadlines bound *wall time*; they never feed a result.
"""

from __future__ import annotations

import ctypes
import signal
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import TrialTimeoutError


def timeout_message(seconds: float) -> str:
    """The canonical budget-exceeded message (pinned by the test suite)."""
    return f"trial exceeded its wall-clock budget of {seconds}s"


class _Handle:
    """One protected block's deadline, shared with the watchdog."""

    __slots__ = (
        "deadline",
        "seconds",
        "thread_ident",
        "use_signal",
        "fired",
        "cancelled",
        "delivered",
    )

    def __init__(
        self, seconds: float, thread_ident: int, use_signal: bool
    ) -> None:
        self.deadline = time.monotonic() + seconds
        self.seconds = seconds
        self.thread_ident = thread_ident
        self.use_signal = use_signal
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

        If the watchdog already fired, the cancellation is *en route* to
        this thread. For the signal path we wait for the (now inert —
        ``cancelled`` is set) signal to be consumed before the caller
        restores the previous handler, so a late ``SIGALRM`` can never
        hit a handler that doesn't expect it. For the async-exc path we
        clear the pending exception if it has not raised yet.
        """
        with self._cond:
            handle.cancelled = True
            if handle in self._handles:
                self._handles.remove(handle)
            fired = handle.fired
        if not fired:
            return
        if handle.use_signal:
            while not handle.delivered:
                time.sleep(0.0005)
        else:
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(handle.thread_ident), None
            )

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
                        self._fire(handle)

    def _fire(self, handle: _Handle) -> None:
        if handle.use_signal:
            try:
                signal.pthread_kill(handle.thread_ident, signal.SIGALRM)
            except (ProcessLookupError, OSError):  # thread already gone
                pass
            return
        planted = ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(handle.thread_ident),
            ctypes.py_object(TrialTimeoutError),
        )
        if planted > 1:  # pragma: no cover - CPython contract says 0 or 1
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(handle.thread_ident), None
            )


_WATCHDOG = _Watchdog()


@contextmanager
def trial_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`TrialTimeoutError` if the block runs past ``seconds``.

    ``None`` or a non-positive budget disables enforcement. Safe on any
    thread; see the module docstring for the per-thread mechanism and
    its limits.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    thread = threading.current_thread()
    ident = thread.ident
    use_signal = (
        thread is threading.main_thread()
        and hasattr(signal, "SIGALRM")
        and hasattr(signal, "pthread_kill")
    )
    if ident is None or (
        not use_signal and not hasattr(ctypes, "pythonapi")
    ):  # pragma: no cover - non-CPython: budget unenforced, as before
        yield
        return

    handle = _Handle(float(seconds), ident, use_signal)
    previous = None
    if use_signal:
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
    except TrialTimeoutError as exc:
        if str(exc):
            raise
        # an async-exc cancellation arrives as a bare exception (only
        # types cross PyThreadState_SetAsyncExc); attach the message
        raise TrialTimeoutError(timeout_message(seconds)) from None
    finally:
        try:
            _WATCHDOG.cancel(handle)
        except TrialTimeoutError:
            # the deadline and the block's completion raced; the block
            # finished, so the cancellation is moot
            pass
        if use_signal:
            signal.signal(signal.SIGALRM, previous)
