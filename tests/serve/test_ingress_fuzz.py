"""Fuzzed ingress over real sockets: garbage frames change nothing.

Several threads at once open raw connections to a live service and send
truncated frames, random bytes, a length prefix over
``MAX_REQUEST_BYTES`` and a pickle naming a global, while a
``ServeClient`` posts, votes and ticks. Afterwards the service still
answers on a fresh connection, and what it serves equals a replay of
the client's accepted writes on a fresh ``Billboard``. Seeds are fixed;
every socket carries a timeout, so a wedged service fails the test
instead of hanging it.
"""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.billboard import Billboard, PostKind
from repro.billboard.views import SnapshotView
from repro.errors import ConfigurationError
from repro.exec.protocol import HEADER_BYTES, decode_frame, encode_frame
from repro.serve import ServeClient, ServeConfig, batch_recommender
from repro.serve.service import MAX_REQUEST_BYTES, ServiceThread

N_PLAYERS, N_OBJECTS = 32, 16
EPOCHS, WRITES_PER_EPOCH = 8, 12
FUZZ_THREADS, CONNECTIONS_PER_THREAD = 4, 25
SOCKET_TIMEOUT_S = 10.0
_LENGTH = struct.Struct(">I")

#: calls made by :func:`_record_call`; a decoder that resolved globals
#: would append here while unpickling a fuzz frame
CALLS = []


def _record_call(*args):
    CALLS.append(args)


class _CallsOnUnpickle:
    """Pickles as "call ``_record_call`` while decoding me"."""

    def __reduce__(self):
        return (_record_call, ("unpickled",))


def garbage(shape, rng):
    """One connection's worth of bytes, and the reply it may earn."""
    if shape == "truncated":
        frame = encode_frame("vote", {"player": 1, "object": 2})
        return frame[: int(rng.integers(1, len(frame)))], None
    if shape == "noise":  # a well-framed undecodable payload
        body = rng.bytes(int(rng.integers(0, 64)))
        return _LENGTH.pack(len(body)) + body, "undecodable"
    if shape == "raw":  # anything at all, length prefix included
        return rng.bytes(int(rng.integers(1, 64))), ""
    if shape == "oversized":
        size = MAX_REQUEST_BYTES + 1 + int(rng.integers(0, 1024))
        return _LENGTH.pack(size) + rng.bytes(size), "cap"
    assert shape == "global"
    frame = encode_frame("query", {"op": "board", "x": _CallsOnUnpickle()})
    return frame, "global"


def read_to_eof(sock):
    chunks = []
    while True:
        block = sock.recv(1 << 16)
        if not block:
            return b"".join(chunks)
        chunks.append(block)


def fuzz(address, rng, failures):
    try:
        _fuzz(address, rng, failures)
    except Exception as exc:  # a dead fuzz thread must fail the test
        failures.append(f"fuzz thread died: {exc!r}")


def _fuzz(address, rng, failures):
    shapes = ("truncated", "noise", "raw", "oversized", "global")
    for _ in range(CONNECTIONS_PER_THREAD):
        shape = shapes[int(rng.integers(len(shapes)))]
        payload, expect = garbage(shape, rng)
        try:
            with socket.create_connection(
                address, timeout=SOCKET_TIMEOUT_S
            ) as sock:
                sock.sendall(payload)
                sock.shutdown(socket.SHUT_WR)
                reply = read_to_eof(sock)
        except (ConnectionResetError, BrokenPipeError):
            continue  # the service hung up with our garbage unread
        except OSError as exc:  # socket.timeout included: a wedged service
            failures.append(f"{shape}: {exc!r}")
            return
        if not reply:
            if expect not in (None, ""):
                failures.append(f"{shape}: no error reply")
            continue
        kind, body = decode_frame(reply[HEADER_BYTES:])
        if kind != "error" or expect is None or expect not in body["message"]:
            failures.append(f"{shape}: unexpected reply {kind} {body!r}")


def client_writes(client, rng):
    """Posts and votes, some with bad ids; the accepted writes by epoch."""
    accepted = []
    for epoch in range(EPOCHS):
        for _ in range(WRITES_PER_EPOCH):
            player = int(rng.integers(-1, N_PLAYERS + 1))
            object_id = int(rng.integers(-1, N_OBJECTS + 1))
            valid = 0 <= player < N_PLAYERS and 0 <= object_id < N_OBJECTS
            try:
                if rng.random() < 0.5:
                    client.vote(player, object_id)
                    entry = (player, object_id, 1.0, PostKind.VOTE)
                else:
                    value = float(rng.random())
                    client.post(player, object_id, value)
                    entry = (player, object_id, value, PostKind.REPORT)
            except ConfigurationError:
                assert not valid
                continue
            assert valid
            accepted.append((epoch, entry))
        assert client.tick()["epoch"] == epoch + 1
    return accepted


@pytest.mark.parametrize("seed", [0, 1])
def test_garbage_ingress_leaves_the_served_board_intact(seed):
    config = ServeConfig(n_players=N_PLAYERS, n_objects=N_OBJECTS)
    client_rng, *fuzz_rngs = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(1 + FUZZ_THREADS)
    )
    failures = []
    with ServiceThread(config) as runner:
        fuzzers = [
            threading.Thread(
                target=fuzz, args=(runner.address, rng, failures), daemon=True
            )
            for rng in fuzz_rngs
        ]
        for thread in fuzzers:
            thread.start()
        with ServeClient(*runner.address, timeout=SOCKET_TIMEOUT_S) as client:
            accepted = client_writes(client, client_rng)
        for thread in fuzzers:
            thread.join(timeout=4 * SOCKET_TIMEOUT_S)
            assert not thread.is_alive(), "a fuzz connection hung"
        with ServeClient(*runner.address, timeout=SOCKET_TIMEOUT_S) as fresh:
            counts = fresh.counts()
            board = fresh.board()
            scores = fresh.scores()["scores"]
        online = runner.service.recommender
    assert failures == []
    assert CALLS == []

    replay = Billboard(N_PLAYERS, N_OBJECTS)
    for epoch in range(EPOCHS):
        entries = [entry for at, entry in accepted if at == epoch]
        if entries:
            replay.append_many(epoch, entries)
    view = SnapshotView(replay, epoch=EPOCHS)
    assert counts == {
        "epoch": EPOCHS,
        "counts": [int(c) for c in view.cumulative_vote_counts()],
    }
    assert board == {
        "epoch": EPOCHS,
        "posts": len(replay),
        "visible_votes": int(view.objects_with_votes().size),
        "buffered": 0,
        "substrate": "dense",
    }
    reference = batch_recommender(replay, online.ctx, online.epoch)
    assert online.state_digest() == reference.state_digest()
    assert scores == [float(s) for s in reference.scores()]
