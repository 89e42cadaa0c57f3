"""BillboardService integration: the full socket round trip."""

import dataclasses
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard import SPARSE_AUTO_THRESHOLD, Billboard, PostKind
from repro.billboard.views import SnapshotView
from repro.errors import ConfigurationError, LoadShedError
from repro.exec.protocol import HEADER_BYTES, decode_frame, frame_length
from repro.obs.manifest import SCHEMA_VERSION
from repro.serve import ServeClient, ServeConfig, batch_recommender
from repro.serve.service import (
    MAX_REQUEST_BYTES,
    BillboardService,
    ServiceThread,
)

#: calls made by :func:`_record_call`; a decoder that resolved globals
#: would append here while unpickling a request
CALLS = []


def _record_call(*args):
    CALLS.append(args)


class _CallsOnUnpickle:
    """Pickles as "call ``_record_call`` while decoding me"."""

    def __reduce__(self):
        return (_record_call, ("unpickled",))


@pytest.fixture()
def served():
    """One live service on a daemon thread, torn down via shutdown."""
    config = ServeConfig(n_players=32, n_objects=16)
    with ServiceThread(config) as runner:
        yield runner


class TestServiceRoundTrip:
    def test_post_tick_query_cycle(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            for player in range(6):
                reply = client.vote(player, player % 3)
                assert reply["epoch"] == 0
            # buffered writes are invisible until the epoch completes
            assert client.counts()["counts"] == [0] * 16
            tick = client.tick()
            assert tick["epoch"] == 1
            counts = client.counts()["counts"]
            assert counts[0] == 2 and counts[1] == 2 and counts[2] == 2
            assert client.recommend(3) == [0, 1, 2]
            scores = client.scores()
            assert scores["epoch"] == 1
            assert scores["scores"][0] == 2.0

    def test_report_posts_are_not_votes(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            client.post(0, 5, value=0.75, kind="report")
            client.tick()
            assert client.counts()["counts"][5] == 0
            board = client.board()
            assert board["posts"] == 1 and board["visible_votes"] == 0

    def test_served_board_matches_batch_distill(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            for epoch in range(12):
                for player in range(5):
                    client.vote(
                        (epoch * 5 + player) % 32, (epoch + player) % 16
                    )
                client.tick()
        online = served.service.recommender
        reference = batch_recommender(
            served.service.board, online.ctx, online.epoch
        )
        assert online.state_digest() == reference.state_digest()

    def test_metrics_surface(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            client.vote(0, 0)
            client.tick()
            metrics = client.metrics()
        manifest = metrics["manifest"]
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["serving"]["n_players"] == 32
        assert manifest["serving"]["max_inflight"] == 256
        counters = metrics["counters"]
        assert counters["serve.posts"] == 1
        assert counters["serve.ticks"] == 1
        assert counters["serve.shed"] == 0
        assert metrics["recommender"]["phase"] == "step1.1"
        assert metrics["substrate"] == "dense"

    def test_bad_requests_get_typed_errors(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            with pytest.raises(ConfigurationError, match="player"):
                client.vote(99, 0)
            with pytest.raises(ConfigurationError, match="object"):
                client.vote(0, 99)
            with pytest.raises(ConfigurationError, match="non-finite"):
                client.post(0, 0, value=float("nan"))
            with pytest.raises(ConfigurationError, match="unknown query"):
                client.request("query", {"op": "bogus"})
            with pytest.raises(ConfigurationError, match="unknown request"):
                client.request("frobnicate")
            for kind, body in [
                ("query", ["op", "board"]),
                ("query", "board"),
                ("vote", [0, 0]),
            ]:
                with pytest.raises(ConfigurationError, match="must be a dict"):
                    client.request(kind, body)
            with pytest.raises(ConfigurationError, match="recommend k"):
                client.request("query", {"op": "recommend", "k": "a"})
            with pytest.raises(ConfigurationError, match=">= 0"):
                client.request("query", {"op": "recommend", "k": -3})
            with pytest.raises(ConfigurationError, match="malformed post"):
                client.request("vote", {"player": float("inf"), "object": 0})
            with pytest.raises(ConfigurationError, match="malformed post"):
                client.request(
                    "post", {"player": 0, "object": 0, "value": 10**400}
                )
            # the connection survives errors and rejected posts leave
            # no trace on the board
            client.tick()
            assert client.board()["posts"] == 0

    def test_frame_naming_a_global_is_refused(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            client.vote(0, 0)
            client.tick()
            with pytest.raises(ConfigurationError, match="global"):
                client.request(
                    "query", {"op": "board", "extra": _CallsOnUnpickle()}
                )
        assert CALLS == []
        # the service keeps serving, and its board is unchanged
        with ServeClient(host, port) as fresh:
            board = fresh.board()
            assert board["posts"] == 1 and board["epoch"] == 1
            assert fresh.counts()["counts"][0] == 1

    def test_oversized_request_is_refused_undecoded(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            with pytest.raises(ConfigurationError, match="cap"):
                client.request(
                    "query", {"op": "board", "pad": "x" * MAX_REQUEST_BYTES}
                )
        with ServeClient(host, port) as fresh:
            assert fresh.board()["posts"] == 0

    def test_oversized_announcement_is_refused_before_its_payload(
        self, served
    ):
        """A 32 MiB length prefix earns the cap error while its sender is
        still sending: the service reads no payload before refusing."""
        host, port = served.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", 32 << 20) + bytes(256 << 10))
            header = _recv_exactly(sock, HEADER_BYTES)
            kind, body = decode_frame(_recv_exactly(sock, frame_length(header)))
        assert kind == "error" and "cap" in body["message"]
        with ServeClient(host, port) as fresh:
            assert fresh.board()["posts"] == 0


def _recv_exactly(sock, count):
    chunks = []
    while count:
        block = sock.recv(count)
        assert block, "the service closed the connection without a reply"
        chunks.append(block)
        count -= len(block)
    return b"".join(chunks)


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.binary(max_size=8)
)
_KEYS = st.sampled_from(["player", "object", "value", "kind", "op", "k"])
_BODIES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_KEYS | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["post", "vote", "query"]), body=_BODIES)
def test_handle_answers_any_builtin_body(kind, body):
    """Whatever builtins a body decodes to, the handler answers ``ok``
    or ``error`` with a dict and never raises."""
    service = BillboardService(ServeConfig(n_players=8, n_objects=4))
    reply_kind, reply_body = service._handle(kind, body)
    assert reply_kind in ("ok", "error")
    assert isinstance(reply_body, dict)


class TestBackpressure:
    def test_rate_limit_sheds_with_reason(self):
        config = ServeConfig(n_players=8, n_objects=4, rate=0.001, burst=2)
        with ServiceThread(config) as runner:
            with ServeClient(*runner.address) as client:
                client.vote(0, 0)
                client.vote(1, 1)
                with pytest.raises(LoadShedError) as excinfo:
                    client.vote(2, 2)
                assert excinfo.value.reason == "rate"
                metrics_config = runner.service.config
                assert metrics_config.rate == 0.001
            with ServeClient(*runner.address) as fresh:
                # shed replies kept the server alive; a new connection
                # has its own bucket
                assert fresh.board()["posts"] == 0
                shed = fresh.metrics()["counters"]["serve.shed"]
                assert shed >= 1

    def test_full_write_buffer_flushes_synchronously(self):
        config = ServeConfig(n_players=8, n_objects=4, queue_depth=3)
        with ServiceThread(config) as runner:
            with ServeClient(*runner.address) as client:
                assert client.vote(0, 0)["buffered"] == 1
                assert client.vote(1, 1)["buffered"] == 2
                # the third post fills the buffer and flushes it
                assert client.vote(2, 2)["buffered"] == 0
                assert client.board()["posts"] == 3
                flushes = client.metrics()["counters"]["serve.flushes"]
                assert flushes == 1


class TestSubstrateKnob:
    def test_sparse_substrate_serves_identically(self):
        """At SPARSE_AUTO_THRESHOLD players serve keeps the chainless
        columnar board, and serves what a replay of the same writes on
        the hash-chained board computes."""
        n = SPARSE_AUTO_THRESHOLD
        below = BillboardService(ServeConfig(n_players=n - 1, n_objects=4))
        assert below.substrate == "dense"
        assert isinstance(below.board, Billboard)
        config = ServeConfig(n_players=n, n_objects=4)
        dense = Billboard(n, 4)
        with ServiceThread(config) as runner:
            assert runner.service.substrate == "sparse"
            assert not isinstance(runner.service.board, Billboard)
            with ServeClient(*runner.address) as client:
                for epoch in range(6):
                    entries = [
                        (n - 1 - 7 * (epoch * 5 + k), (epoch + k) % 4)
                        for k in range(5)
                    ]
                    for player, object_id in entries:
                        client.vote(player, object_id)
                    client.tick()
                    dense.append_many(
                        epoch,
                        [(p, o, 1.0, PostKind.VOTE) for p, o in entries],
                    )
                assert client.board()["substrate"] == "sparse"
                assert client.metrics()["substrate"] == "sparse"
                served_counts = client.counts()["counts"]
                served_scores = client.scores()["scores"]
        online = runner.service.recommender
        reference = batch_recommender(dense, online.ctx, online.epoch)
        assert online.state_digest() == reference.state_digest()
        assert served_scores == [float(s) for s in reference.scores()]
        assert served_counts == [
            int(c)
            for c in SnapshotView(dense, epoch=6).cumulative_vote_counts()
        ]


class TestServeKnobs:
    def test_config_validation(self, capsys):
        from repro.cli import main

        with pytest.raises(ConfigurationError):
            ServeConfig(n_players=0, n_objects=4)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_players=4, n_objects=4, max_inflight=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_players=4, n_objects=4, rate=-0.5)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_players=4, n_objects=4, queue_depth=0)
        for port in (-5, 65536, 70000):
            with pytest.raises(ConfigurationError, match="port"):
                ServeConfig(n_players=4, n_objects=4, port=port)
            # the CLI reports it as a usage error, before binding
            assert main(["serve", "--port", str(port)]) == 2
            assert "error: port must be in" in capsys.readouterr().err
        assert ServeConfig(n_players=4, n_objects=4, port=65535).port == 65535


class TestServeCli:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--n",
                "64",
                "--m",
                "32",
                "--port",
                "0",
                "--max-inflight",
                "128",
                "--rate",
                "100",
            ]
        )
        assert args.command == "serve"
        assert args.n == 64 and args.m == 32
        assert args.max_inflight == 128
        assert args.rate == 100.0
        # every flag that sets a ServeConfig field defaults to that
        # field's default
        args = vars(build_parser().parse_args(["serve"]))
        defaults = {
            field.name: field.default
            for field in dataclasses.fields(ServeConfig)
            if field.name in args
        }
        assert sorted(defaults) == ["host", "max_inflight", "port", "rate"]
        for name, default in defaults.items():
            assert args[name] == default, name
