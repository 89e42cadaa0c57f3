"""The service's network edge: how frames arrive and how replies leave.

Frames may arrive split at any byte or several to one segment, and each
complete request gets exactly one reply, in the order the requests were
sent. A client that sends without reading its replies is paused by the
service: its last admitted request keeps its in-flight slot until the
replies drain, so it still counts against ``max_inflight``.
"""

import socket
import time

import pytest

from repro.errors import LoadShedError
from repro.exec.protocol import encode_frame, recv_frame
from repro.serve import ServeClient, ServeConfig
from repro.serve.service import MAX_REQUEST_BYTES, RECV_BYTES, ServiceThread

SOCKET_TIMEOUT_S = 10.0


@pytest.fixture()
def served():
    config = ServeConfig(n_players=32, n_objects=16)
    with ServiceThread(config) as runner:
        yield runner


def connect(address, rcvbuf=None):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:  # before connect, so the window starts small
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(SOCKET_TIMEOUT_S)
    sock.connect(address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def unread_replies(sock):
    """Half-close and read to EOF: the bytes the service sent past the
    replies already read."""
    sock.shutdown(socket.SHUT_WR)
    chunks = []
    while True:
        block = sock.recv(1 << 16)
        if not block:
            return b"".join(chunks)
        chunks.append(block)


def test_a_request_sent_one_byte_at_a_time_gets_one_reply(served):
    frame = encode_frame("query", {"op": "recommend", "k": 3})
    with connect(served.address) as sock:
        for i in range(len(frame)):
            sock.sendall(frame[i : i + 1])
            time.sleep(0.002)  # one segment per byte
        kind, body = recv_frame(sock)
        assert kind == "ok" and body == {"epoch": 0, "objects": [0, 1, 2]}
        assert unread_replies(sock) == b""


def vote_at_the_cap(player):
    """A ``vote`` frame whose payload is exactly ``MAX_REQUEST_BYTES``:
    the service ignores the padding key."""
    body = {"player": player, "object": 2, "pad": ""}
    short = len(encode_frame("vote", dict(body, pad="x" * 1000)))
    body["pad"] = "x" * (1000 + MAX_REQUEST_BYTES + 4 - short)
    frame = encode_frame("vote", body)
    assert len(frame) == MAX_REQUEST_BYTES + 4
    return frame


def test_requests_longer_than_one_read_get_one_reply_each(served):
    frames = [vote_at_the_cap(1), vote_at_the_cap(2)]
    frames.append(encode_frame("query", {"op": "board"}))
    assert len(frames[0]) > RECV_BYTES  # so each spans two reads or more
    with connect(served.address) as sock:
        sock.sendall(b"".join(frames))
        replies = [recv_frame(sock) for _ in frames]
        assert unread_replies(sock) == b""
    assert replies[:2] == [
        ("ok", {"epoch": 0, "buffered": 1}),
        ("ok", {"epoch": 0, "buffered": 2}),
    ]
    assert replies[2][0] == "ok" and replies[2][1]["buffered"] == 2


def test_requests_in_one_segment_get_their_replies_in_order(served):
    requests = [
        ("vote", {"player": 3, "object": 5}),
        ("tick", None),
        ("query", {"op": "counts"}),
        ("query", {"op": "recommend", "k": 1}),
        ("query", {"op": "board"}),
    ]
    with connect(served.address) as sock:
        sock.sendall(b"".join(encode_frame(*request) for request in requests))
        replies = [recv_frame(sock) for _ in requests]
        assert unread_replies(sock) == b""
    assert [kind for kind, _ in replies] == ["ok"] * 5
    vote, tick, counts, recommend, board = (body for _, body in replies)
    assert vote == {"epoch": 0, "buffered": 1}
    assert tick["epoch"] == 1
    assert counts == {"epoch": 1, "counts": [0] * 5 + [1] + [0] * 10}
    assert recommend == {"epoch": 1, "objects": [5]}
    assert board["posts"] == 1 and board["visible_votes"] == 1


def pipeline_until_paused(stalled, probe, m):
    """Send ``recommend`` requests on ``stalled`` without reading a reply
    until ``probe``, on its own connection, is shed for ``inflight``: the
    service has paused ``stalled`` with a request holding its slot.
    Request i asks for the top m - i objects, so each reply is several
    KB and tells which request it answers. Returns how many were sent."""
    sent = 0
    while True:
        assert sent < m, "the service never paused the connection"
        stalled.sendall(
            encode_frame("query", {"op": "recommend", "k": m - sent})
        )
        sent += 1
        try:
            probe.counts()
        except LoadShedError as exc:
            assert exc.reason == "inflight"
            return sent


def test_a_client_that_stops_reading_is_paused_and_holds_its_slot():
    """With ``max_inflight=1``: connection A pipelines reads and reads no
    reply until the service stops answering it, which a second
    connection sees as an ``inflight`` shed; once A reads, every reply
    arrives in order and the gauge returns to 0."""
    m = 4096
    config = ServeConfig(n_players=32, n_objects=m, max_inflight=1)
    with ServiceThread(config) as runner:
        gauge = runner.service._gauge
        with connect(runner.address, rcvbuf=4096) as stalled, ServeClient(
            *runner.address, timeout=SOCKET_TIMEOUT_S
        ) as probe:
            sent = pipeline_until_paused(stalled, probe, m)
            assert gauge.inflight == 1
            for i in range(sent):
                kind, body = recv_frame(stalled)
                assert kind == "ok" and len(body["objects"]) == m - i
            deadline = time.monotonic() + SOCKET_TIMEOUT_S
            while gauge.inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gauge.inflight == 0
            assert probe.counts()["epoch"] == 0
        assert runner.service.obs.counter("serve.shed").value == 1


def test_shutdown_closes_a_connection_that_stopped_reading():
    """A paused connection cannot hold the service open: ``shutdown``
    closes it along with the listener, and the service thread ends."""
    m = 4096
    runner = ServiceThread(ServeConfig(n_players=32, n_objects=m))
    with runner, connect(runner.address, rcvbuf=4096) as stalled:
        # far more reply bytes (a few KB each) than the socket buffers
        # and the transport's write buffer hold, so the service must
        # pause the connection part-way through
        stalled.sendall(
            b"".join(
                encode_frame("query", {"op": "recommend", "k": m - i})
                for i in range(512)
            )
        )
        service = runner.service
        deadline = time.monotonic() + SOCKET_TIMEOUT_S
        # paused, with the last admitted request holding its slot
        while not (
            service._gauge.inflight == 1
            and any(c.paused for c in list(service._connections))
        ):
            assert time.monotonic() < deadline, (
                "the service never paused the connection"
            )
            time.sleep(0.01)
        runner.stop(timeout=SOCKET_TIMEOUT_S)
        assert not runner._thread.is_alive()
        try:
            while stalled.recv(1 << 16):
                pass
        except ConnectionResetError:
            pass  # closed with our requests unread
