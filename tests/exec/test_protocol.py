"""The length-prefixed frame protocol: round-trips and refusals."""

import pickle
import socket
import struct
import threading

import numpy as np
import pytest

from repro.exec.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    ProtocolError,
    recv_frame,
    send_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestRoundTrip:
    def test_kind_and_body_survive(self, pair):
        a, b = pair
        send_frame(a, "post", {"player": 3, "object": 1, "value": 0.5})
        kind, body = recv_frame(b)
        assert kind == "post"
        assert body == {"player": 3, "object": 1, "value": 0.5}

    def test_none_body(self, pair):
        a, b = pair
        send_frame(a, "tick")
        assert recv_frame(b) == ("tick", None)

    def test_several_frames_in_order(self, pair):
        a, b = pair
        for i in range(5):
            send_frame(a, "ok", i)
        assert [recv_frame(b)[1] for _ in range(5)] == list(range(5))


class TestRefusals:
    def test_eof_between_frames(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(b)

    def test_eof_mid_frame(self, pair):
        a, b = pair
        # announce 100 bytes, deliver 3, hang up
        a.sendall(struct.Struct(">I").pack(100) + b"abc")
        a.close()
        with pytest.raises(ConnectionClosed, match="97 of 100"):
            recv_frame(b)

    def test_oversized_announcement(self, pair):
        a, b = pair
        a.sendall(struct.Struct(">I").pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="cap"):
            recv_frame(b)

    def test_undecodable_payload(self, pair):
        a, b = pair
        garbage = b"\x00not pickle"
        a.sendall(struct.Struct(">I").pack(len(garbage)) + garbage)
        with pytest.raises(ProtocolError, match="undecodable"):
            recv_frame(b)

    def test_non_string_kind(self, pair):
        import pickle

        a, b = pair
        payload = pickle.dumps((7, None))
        a.sendall(struct.Struct(">I").pack(len(payload)) + payload)
        with pytest.raises(ProtocolError, match="kind must be a string"):
            recv_frame(b)

    def test_no_global_is_resolved(self, pair):
        """A frame that names a global is refused before anything runs:
        neither a library object nor a ``__reduce__`` callable decodes."""
        calls = []

        class Callback:
            def __reduce__(self):
                return (calls.append, ("ran",))

        a, b = pair
        for body in (np.random.SeedSequence(42), Callback()):
            send_frame(a, "query", {"op": "board", "extra": body})
            with pytest.raises(ProtocolError, match="global"):
                recv_frame(b)
        assert calls == []


class TestConcurrency:
    def test_interleaved_send_receive(self, pair):
        """A reader thread sees frames whole even when sent rapidly."""
        a, b = pair
        got = []

        def reader():
            for _ in range(20):
                got.append(recv_frame(b))

        thread = threading.Thread(target=reader)
        thread.start()
        for i in range(20):
            send_frame(a, "ok", {"i": i, "pad": "x" * 1000})
        thread.join(timeout=5)
        assert [body["i"] for _kind, body in got] == list(range(20))
