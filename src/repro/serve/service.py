"""`BillboardService` — the asyncio billboard-as-a-service front-end.

The simulator turned inside-out: instead of an engine driving rounds
over a private board, a long-lived service accepts concurrent
post/vote/query traffic over TCP against one live billboard
(:class:`~repro.billboard.board.Billboard` or
:class:`~repro.billboard.columnar.ColumnarBoard`, per the substrate knob)
and serves reads from epoch-pinned
:class:`~repro.billboard.views.SnapshotView`\\ s.

Wire format
-----------
Length-prefixed pickle frames of builtins only (:mod:`repro.exec.protocol`
— :func:`~repro.exec.protocol.encode_frame` on the way out,
:func:`~repro.exec.protocol.decode_frame` behind an ``asyncio``
``readexactly`` loop on the way in). The decoder refuses every global,
so a frame that would call something on unpickle gets an ``error``
reply and its connection is closed; nothing from the peer runs. Bodies
are type-checked before use, so a malformed body gets an ``error``
reply too. Request frames over :data:`MAX_REQUEST_BYTES` are refused
undecoded. The service has no authentication, so it binds loopback
unless told otherwise. Request frames:

``post``      ``{"player", "object", "value", "kind"}`` — buffer a post
              stamped with the current epoch
``vote``      ``{"player", "object"}`` — sugar for a vote post
``tick``      advance the epoch: flush the write buffer, fold the
              online recommender forward one boundary
``query``     ``{"op": "scores"|"recommend"|"counts"|"board", ...}`` —
              reads against a snapshot at the current epoch
``metrics``   the ``/metrics`` surface: counters, timers, manifest,
              recommender diagnostics
``shutdown``  stop the server after replying (benches, CI)
``bye``       close this connection

Replies are ``ok`` frames, ``shed`` frames (admission refused — the
client raises :class:`~repro.errors.LoadShedError`), or ``error``
frames (bad request — the request was not applied).

Concurrency model
-----------------
One event loop, no locks: every mutation of the board, the epoch, the
write buffer, and the admission gauge happens synchronously between
``await`` points, so handlers are atomic by construction. Snapshot
isolation then comes free from the board's append-only + monotone-round
invariant — a reader pinned at epoch ``E`` can never observe later
traffic (see :class:`~repro.billboard.views.SnapshotView`).

Epochs are the serving analogue of rounds: posts accepted while the
epoch is ``E`` are stamped ``E`` and become visible to readers only
after the ``tick`` that completes the epoch — which is also the moment
the online DISTILL recommender folds them in. Epoch advancement is an
explicit op (driven by the load generator or an operator), keeping the
whole state machine a deterministic function of the op sequence.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.billboard.board import Billboard
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.post import Entry, PostKind
from repro.billboard.sparse import choose_substrate
from repro.billboard.views import SnapshotView
from repro.errors import ConfigurationError
from repro.exec.protocol import (
    HEADER_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    frame_length,
)
from repro.obs.manifest import RunManifest, collect_manifest
from repro.obs.registry import Registry
from repro.serve.admission import Admission, InflightGauge
from repro.serve.config import ServeConfig
from repro.serve.recommender import OnlineDistillRecommender
from repro.strategies.base import StrategyContext

_KINDS = {"report": PostKind.REPORT, "vote": PostKind.VOTE}

#: request frames longer than this are refused before they are decoded.
#: Requests are a few hundred bytes; the cap also bounds how deeply a
#: frame can nest, and CPython hashes nested tuples recursively with no
#: depth guard, so a ~200 KB frame keying a dict by a tuple nested
#: 200,000 deep crashes the decoding process
MAX_REQUEST_BYTES = 64 * 1024


def _fields(kind: str, body: Any) -> Dict[str, Any]:
    """A request body as a dict (``None`` reads as empty), or an error."""
    if body is None:
        return {}
    if not isinstance(body, dict):
        raise ConfigurationError(
            f"{kind} body must be a dict, got {type(body).__name__}"
        )
    return body


class BillboardService:
    """A live billboard behind an asyncio TCP front-end.

    Construct with a :class:`~repro.serve.config.ServeConfig`, then
    either ``await start()`` inside an existing event loop (tests) or
    call :meth:`run` to own the loop (the ``repro serve`` CLI). The
    bound address is available as :attr:`address` once started.
    """

    def __init__(
        self, config: ServeConfig, obs: Optional[Registry] = None
    ) -> None:
        self.config = config
        self.substrate = choose_substrate(config.substrate, config.n_players)
        self.board: ColumnarBoard = (
            ColumnarBoard(config.n_players, config.n_objects)
            if self.substrate == "sparse"
            else Billboard(config.n_players, config.n_objects)
        )
        #: the current epoch; posts are stamped with it, readers see < it
        self.epoch = 0
        self._pending: List[Entry] = []
        self._gauge = InflightGauge(config.max_inflight)
        self.recommender = OnlineDistillRecommender(
            self.board,
            StrategyContext(
                n=config.n_players,
                m=config.n_objects,
                alpha=config.alpha,
                beta=config.beta,
            ),
        )
        self.manifest: RunManifest = collect_manifest(
            config_payload=config.manifest_payload(),
            serving=config.manifest_payload(),
        )
        self.obs = obs if obs is not None else Registry()
        self.obs.manifest = self.manifest
        self._c_connections = self.obs.counter("serve.connections")
        self._c_requests = self.obs.counter("serve.requests")
        self._c_posts = self.obs.counter("serve.posts")
        self._c_votes = self.obs.counter("serve.votes")
        self._c_queries = self.obs.counter("serve.queries")
        self._c_snapshots = self.obs.counter("serve.snapshots")
        self._c_ticks = self.obs.counter("serve.ticks")
        self._c_flushes = self.obs.counter("serve.flushes")
        self._c_shed = self.obs.counter("serve.shed")
        self._t_request = self.obs.timer("serve.request")
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self.address: Optional[Tuple[str, int]] = None
        #: set once the server is listening (cross-thread handshake for
        #: in-process harnesses; the CLI prints the address instead)
        self.ready = threading.Event()

    # ------------------------------------------------------------------
    # Board state machine (synchronous = atomic on the event loop)
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        if not self._pending:
            return
        self.board.append_many(self.epoch, self._pending)
        self._pending = []
        self._c_flushes.add()

    def _apply_post(self, body: Dict[str, Any]) -> Dict[str, Any]:
        try:
            player = int(body["player"])
            object_id = int(body["object"])
            value = float(body.get("value", 1.0))
            kind = body.get("kind", "report")
            if not isinstance(kind, str) or kind not in _KINDS:
                raise ConfigurationError(
                    f"post kind must be one of {sorted(_KINDS)}"
                )
            # validate eagerly: the buffered batch must never poison an
            # all-or-nothing append_many at flush time
            if not 0 <= player < self.config.n_players:
                raise ConfigurationError(
                    f"player {player} outside [0, {self.config.n_players})"
                )
            if not 0 <= object_id < self.config.n_objects:
                raise ConfigurationError(
                    f"object {object_id} outside [0, {self.config.n_objects})"
                )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: int(inf), float(10**400); ValueError also
            # covers an out-of-range int too long to print
            raise ConfigurationError(f"malformed post body: {exc}") from None
        if not math.isfinite(value):
            raise ConfigurationError(f"non-finite reported value {value!r}")
        self._pending.append((player, object_id, value, _KINDS[kind]))
        self._c_posts.add()
        if kind == "vote":
            self._c_votes.add()
        if len(self._pending) >= self.config.queue_depth:
            self._flush()  # backpressure: the overflowing writer pays
        return {"epoch": self.epoch, "buffered": len(self._pending)}

    def _tick(self) -> Dict[str, Any]:
        self._flush()
        self.epoch += 1
        self.recommender.fold_epoch(self.epoch)
        self._c_ticks.add()
        return {
            "epoch": self.epoch,
            "phase": self.recommender.phase,
            "pool_size": int(self.recommender.pool.size),
        }

    def snapshot(self) -> SnapshotView:
        """An epoch-pinned read view at the current epoch."""
        self._c_snapshots.add()
        return SnapshotView(self.board, epoch=self.epoch)

    def _query(self, body: Dict[str, Any]) -> Dict[str, Any]:
        op = body.get("op", "board")
        self._c_queries.add()
        if op == "scores":
            return {
                "epoch": self.recommender.epoch,
                "phase": self.recommender.phase,
                "scores": [float(s) for s in self.recommender.scores()],
            }
        if op == "recommend":
            try:
                k = int(body.get("k", 10))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"malformed recommend k: {exc}") from None
            if k < 0:
                raise ConfigurationError("recommend k must be >= 0")
            return {
                "epoch": self.recommender.epoch,
                "objects": self.recommender.recommend(k),
            }
        if op == "counts":
            view = self.snapshot()
            return {
                "epoch": self.epoch,
                "counts": [int(c) for c in view.cumulative_vote_counts()],
            }
        if op == "board":
            view = self.snapshot()
            return {
                "epoch": self.epoch,
                "posts": len(self.board),
                "visible_votes": int(view.objects_with_votes().size),
                "buffered": len(self._pending),
                "substrate": self.substrate,
            }
        if not isinstance(op, str):
            raise ConfigurationError(
                f"query op must be a string, got {type(op).__name__}"
            )
        raise ConfigurationError(f"unknown query op {op!r}")

    def _metrics(self) -> Dict[str, Any]:
        return {
            "counters": self.obs.counters(),
            "timers": self.obs.timers(),
            "manifest": self.manifest.to_dict(),
            "recommender": self.recommender.diagnostics(),
            "epoch": self.epoch,
            "substrate": self.substrate,
            "inflight_peak": self._gauge.peak,
            "posts": len(self.board),
        }

    def _handle(self, kind: str, body: Any) -> Tuple[str, Any]:
        try:
            if kind == "post":
                return "ok", self._apply_post(_fields(kind, body))
            if kind == "vote":
                payload = dict(_fields(kind, body))
                payload.setdefault("kind", "vote")
                payload.setdefault("value", 1.0)
                return "ok", self._apply_post(payload)
            if kind == "tick":
                return "ok", self._tick()
            if kind == "query":
                return "ok", self._query(_fields(kind, body))
            if kind == "metrics":
                return "ok", self._metrics()
            if kind == "shutdown":
                return "ok", {"stopping": True}
            raise ConfigurationError(f"unknown request kind {kind!r}")
        except ConfigurationError as exc:
            return "error", {"message": str(exc)}

    # ------------------------------------------------------------------
    # Network front-end
    # ------------------------------------------------------------------
    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, Any]:
        header = await reader.readexactly(HEADER_BYTES)
        payload = await reader.readexactly(frame_length(header))
        if len(payload) > MAX_REQUEST_BYTES:
            raise ProtocolError(
                f"refusing a {len(payload)}-byte request frame "
                f"(cap {MAX_REQUEST_BYTES})"
            )
        return decode_frame(payload)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._c_connections.add()
        admission = Admission(
            self.config.rate,
            self.config.burst,
            self._gauge,
            now=time.monotonic(),
        )
        try:
            while True:
                try:
                    kind, body = await self._read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return  # client hung up between or mid-frame
                except ProtocolError as exc:
                    writer.write(encode_frame("error", {"message": str(exc)}))
                    await writer.drain()
                    return
                if kind == "bye":
                    return
                self._c_requests.add()
                reason = admission.admit(time.monotonic())
                if reason is not None:
                    self._c_shed.add()
                    writer.write(
                        encode_frame(
                            "shed",
                            {
                                "reason": reason,
                                "message": (
                                    f"request shed ({reason}); back off "
                                    "and retry"
                                ),
                            },
                        )
                    )
                    await writer.drain()
                    continue
                try:
                    with self._t_request.time():
                        reply_kind, reply_body = self._handle(kind, body)
                    writer.write(encode_frame(reply_kind, reply_body))
                    await writer.drain()
                finally:
                    admission.finish()
                if kind == "shutdown" and reply_kind == "ok":
                    assert self._stop is not None
                    self._stop.set()
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (str(sockname[0]), int(sockname[1]))
        self.ready.set()
        return self.address

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` frame arrives, then close."""
        assert self._stop is not None and self._server is not None
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()

    async def _main(self, announce: bool) -> None:
        host, port = await self.start()
        if announce:
            print(f"serving on {host}:{port}", flush=True)
        await self.wait_shutdown()

    def run(self, announce: bool = True) -> None:
        """Own an event loop until shutdown (the ``repro serve`` path)."""
        asyncio.run(self._main(announce))


class ServiceThread:
    """An in-process service on a daemon thread (tests, benches).

    Starts the event loop in the background, waits for the listening
    socket, and exposes the bound address. ``stop()`` shuts the service
    down through a client connection, like any other caller would.
    """

    def __init__(self, config: ServeConfig, obs: Optional[Registry] = None):
        self.service = BillboardService(config, obs=obs)
        self._thread = threading.Thread(
            target=self.service.run,
            kwargs={"announce": False},
            name="repro-serve",
            daemon=True,
        )

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        if not self.service.ready.wait(timeout=30.0):  # pragma: no cover
            raise ConfigurationError("service failed to start within 30s")
        return self

    @property
    def address(self) -> Tuple[str, int]:
        assert self.service.address is not None
        return self.service.address

    def stop(self, timeout: float = 10.0) -> None:
        from repro.serve.client import ServeClient

        if self._thread.is_alive():
            with ServeClient(*self.address) as client:
                client.shutdown()
        self._thread.join(timeout=timeout)

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
