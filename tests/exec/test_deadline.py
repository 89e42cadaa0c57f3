"""Monotonic-deadline cancellation: the main thread, and refusal elsewhere."""

import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError, TrialTimeoutError
from repro.exec import trial_deadline
from repro.exec.deadline import timeout_message


class TestDisabled:
    @pytest.mark.parametrize("budget", [None, 0, -1.0])
    def test_no_budget_is_passthrough(self, budget):
        with trial_deadline(budget):
            pass  # no watchdog, no handler, no error

    def test_fast_block_unaffected(self):
        with trial_deadline(30.0):
            total = sum(range(1000))
        assert total == 499500


class TestMainThread:
    def test_sleeping_block_is_interrupted(self):
        start = time.monotonic()
        with pytest.raises(TrialTimeoutError, match="wall-clock budget"):
            with trial_deadline(0.2):
                time.sleep(30.0)
        assert time.monotonic() - start < 5.0

    def test_message_is_the_pinned_contract(self):
        with pytest.raises(TrialTimeoutError) as info:
            with trial_deadline(0.1):
                time.sleep(10.0)
        assert str(info.value) == timeout_message(0.1)

    def test_previous_sigalrm_handler_restored(self):
        sentinel = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            with trial_deadline(30.0):
                pass
            assert signal.getsignal(signal.SIGALRM) is sentinel
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_reusable_after_timeout(self):
        with pytest.raises(TrialTimeoutError):
            with trial_deadline(0.1):
                time.sleep(10.0)
        with trial_deadline(30.0):
            pass  # the watchdog must be clean for the next block


class TestOffMainThread:
    """No signal handler runs off the main thread, so a budget there is
    refused up front instead of being left unenforced."""

    def _attempt(self, budget):
        outcome = {}

        def body():
            try:
                with trial_deadline(budget):
                    outcome["ran"] = True
            except ConfigurationError as exc:
                outcome["error"] = str(exc)

        thread = threading.Thread(target=body, name="budgeted", daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        return outcome

    def test_budget_is_refused(self):
        outcome = self._attempt(5.0)
        assert "ran" not in outcome
        assert "main thread" in outcome["error"]
        assert "'budgeted'" in outcome["error"]

    def test_no_budget_is_passthrough(self):
        assert self._attempt(None) == {"ran": True}
