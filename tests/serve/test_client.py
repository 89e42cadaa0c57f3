"""`ServeClient`'s timeout: a silent peer fails the call on any thread."""

import socket
import threading
import time

import pytest

from repro.errors import TrialTimeoutError
from repro.serve import ServeClient

TIMEOUT_S = 1.0


@pytest.fixture
def silent_listener():
    """A listener that accepts no connection and so never replies."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    try:
        yield listener.getsockname()
    finally:
        listener.close()  # resets any connection still waiting


def timed_counts(address, outcome):
    start = time.monotonic()
    try:
        with ServeClient(*address, timeout=TIMEOUT_S) as client:
            client.counts()
    except TrialTimeoutError as exc:
        outcome["elapsed"] = time.monotonic() - start
        outcome["message"] = str(exc)
    except Exception as exc:  # surfaced by the assertions below
        outcome["other"] = repr(exc)


class TestSilentPeer:
    def test_main_thread_times_out(self, silent_listener):
        outcome = {}
        timed_counts(silent_listener, outcome)
        assert outcome["elapsed"] < 2 * TIMEOUT_S
        assert "no reply" in outcome["message"]

    def test_worker_thread_times_out(self, silent_listener):
        """The socket bounds the wait; no signal or watchdog is needed,
        so a client off the main thread returns on time too."""
        outcome = {}
        thread = threading.Thread(
            target=timed_counts, args=(silent_listener, outcome), daemon=True
        )
        thread.start()
        thread.join(timeout=4 * TIMEOUT_S)
        assert not thread.is_alive(), "client still blocked on a silent peer"
        assert outcome.get("elapsed", float("inf")) < 2 * TIMEOUT_S, outcome

    def test_timed_out_client_closes_its_socket(self, silent_listener):
        client = ServeClient(*silent_listener, timeout=0.2)
        with pytest.raises(TrialTimeoutError):
            client.counts()
        assert client._sock.fileno() == -1
        client.close()  # still safe after the timeout closed the socket
