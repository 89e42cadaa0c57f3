"""`ServeClient` — a blocking client for the billboard service.

Speaks the service's frame protocol of builtins-only pickles
(:func:`~repro.exec.protocol.send_frame` /
:func:`~repro.exec.protocol.recv_frame`, whose decoder refuses every
global in either direction) over one persistent TCP connection, and
guards every request with the monotonic deadline watchdog
(:func:`~repro.exec.deadline.trial_deadline`) so a wedged service
surfaces as :class:`~repro.errors.TrialTimeoutError` instead of a hung
caller.

Replies map onto exceptions: a ``shed`` frame (admission control
refused the request) raises :class:`~repro.errors.LoadShedError` with
the shed reason attached; an ``error`` frame (the request was malformed
and not applied) raises :class:`~repro.errors.ConfigurationError`.
Load generators catch the former to count sheds without dying.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, LoadShedError
from repro.exec.deadline import trial_deadline
from repro.exec.protocol import recv_frame, send_frame


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.service.BillboardService`.

    Parameters
    ----------
    host, port:
        The service's bound address (printed by ``repro serve`` on
        startup).
    timeout:
        Per-request wall-clock budget in seconds, enforced by the
        deadline watchdog (``None`` disables it).
    """

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 30.0
    ) -> None:
        self.timeout = timeout
        self._sock = socket.create_connection((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # ------------------------------------------------------------------
    def request(self, kind: str, body: Any = None) -> Any:
        """One round trip; returns the ``ok`` body or raises."""
        with trial_deadline(self.timeout):
            send_frame(self._sock, kind, body)
            reply_kind, reply_body = recv_frame(self._sock)
        if reply_kind == "ok":
            return reply_body
        if reply_kind == "shed":
            raise LoadShedError(
                str(reply_body.get("message", "request shed")),
                reason=str(reply_body.get("reason", "")),
            )
        if reply_kind == "error":
            raise ConfigurationError(str(reply_body.get("message", "")))
        raise ConfigurationError(f"unexpected reply kind {reply_kind!r}")

    # ------------------------------------------------------------------
    def post(
        self,
        player: int,
        object_id: int,
        value: float = 1.0,
        kind: str = "report",
    ) -> Dict[str, Any]:
        """Buffer a post stamped with the service's current epoch."""
        return dict(
            self.request(
                "post",
                {
                    "player": player,
                    "object": object_id,
                    "value": value,
                    "kind": kind,
                },
            )
        )

    def vote(self, player: int, object_id: int) -> Dict[str, Any]:
        """Buffer a vote (an effective-vote post) for ``object_id``."""
        return dict(
            self.request("vote", {"player": player, "object": object_id})
        )

    def tick(self) -> Dict[str, Any]:
        """Complete the current epoch and fold the recommender forward."""
        return dict(self.request("tick"))

    def scores(self) -> Dict[str, Any]:
        """Per-object DISTILL scores at the folded epoch horizon."""
        return dict(self.request("query", {"op": "scores"}))

    def recommend(self, k: int = 10) -> List[int]:
        """Top-``k`` recommended object ids at the folded horizon."""
        body = self.request("query", {"op": "recommend", "k": k})
        return [int(obj) for obj in body["objects"]]

    def counts(self) -> Dict[str, Any]:
        """Cumulative effective vote counts at the current epoch."""
        return dict(self.request("query", {"op": "counts"}))

    def board(self) -> Dict[str, Any]:
        """Board shape facts: post count, visible votes, substrate."""
        return dict(self.request("query", {"op": "board"}))

    def metrics(self) -> Dict[str, Any]:
        """The ``/metrics`` surface: counters, timers, manifest, phase."""
        return dict(self.request("metrics"))

    def shutdown(self) -> Dict[str, Any]:
        """Ask the service to stop after replying."""
        return dict(self.request("shutdown"))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Send ``bye`` (best-effort) and close the socket."""
        try:
            send_frame(self._sock, "bye")
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
