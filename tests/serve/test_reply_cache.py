"""The reply cache: each epoch's reads are answered once, exactly.

A ``scores``, ``counts`` or ``recommend k`` reply reads only the
snapshot at the current epoch and the recommender folded to it, so the
service keeps its encoded frame until the next ``tick``. The property
below drives two in-process services with the same ops: one answers
through the cached path, its twin through the uncached handler, and
every frame must be byte-equal.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.protocol import encode_frame
from repro.serve import ServeClient, ServeConfig
from repro.serve.service import (
    REPLY_CACHE_ENTRIES,
    BillboardService,
    ServiceThread,
)

N_PLAYERS, N_OBJECTS = 16, 12

_WRITES = st.tuples(
    st.sampled_from(["vote", "report"]),
    st.integers(-1, N_PLAYERS),
    st.integers(0, N_OBJECTS - 1),
    st.floats(0.0, 1.0),
).map(
    lambda w: ("vote", {"player": w[1], "object": w[2]})
    if w[0] == "vote"
    else ("post", {"player": w[1], "object": w[2], "value": w[3]})
)
#: ``k`` out of range, negative, bool, str and huge
_ODD_KS = (
    st.sampled_from([-2, -1, N_OBJECTS + 1, True, False, "3", "x", ""])
    | st.integers(2**62, 2**80)
)
_READS = st.sampled_from(
    [
        ("query", {"op": "scores"}),
        ("query", {"op": "counts"}),
        ("query", {"op": "board"}),
        ("query", {"op": "recommend"}),
    ]
) | (st.integers(0, N_OBJECTS) | _ODD_KS).map(
    lambda k: ("query", {"op": "recommend", "k": k})
)
#: ``recommend`` at every valid ``k`` in some order: more keys than fit
_SWEEP = st.permutations(range(N_OBJECTS + 1)).map(
    lambda ks: [("query", {"op": "recommend", "k": k}) for k in ks]
)
#: epochs of writes, reads and sweeps, each closed by a tick
_OPS = st.lists(
    st.lists((_WRITES | _READS).map(lambda op: [op]) | _SWEEP, max_size=12),
    min_size=1,
    max_size=12,
).map(
    lambda epochs: [
        op for blocks in epochs for ops in blocks + [[("tick", None)]]
        for op in ops
    ]
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_cached_replies_equal_the_uncached_handler(ops):
    # a small write buffer, so overflow flushes land mid-epoch
    config = ServeConfig(
        n_players=N_PLAYERS, n_objects=N_OBJECTS, queue_depth=3
    )
    cached, twin = BillboardService(config), BillboardService(config)
    for kind, body in ops:
        assert cached._reply(kind, body) == encode_frame(
            *twin._handle(kind, body)
        ), (kind, body)
        assert len(cached._replies) <= REPLY_CACHE_ENTRIES
        if kind == "tick":
            assert cached._replies == {}
    assert cached.board.head_digest == twin.board.head_digest


def test_counters_on_a_scripted_session():
    """``serve.reply_cache_hits`` is every read but the first of its
    ``(op, k, epoch)``; ``serve.queries`` counts every read; a snapshot
    is opened only for an uncached ``counts``."""
    config = ServeConfig(n_players=N_PLAYERS, n_objects=N_OBJECTS)
    script = [
        ("scores", None), ("counts", None), ("scores", None),
        ("recommend", 3), ("recommend", 3), ("recommend", 4),
        ("counts", None), ("recommend", 3),
    ]
    reads, seen = 0, set()
    with ServiceThread(config) as runner:
        with ServeClient(*runner.address) as client:
            for epoch in range(3):
                for player in range(4):
                    client.vote(player + epoch, (player * 5) % N_OBJECTS)
                for op, k in script[epoch:]:
                    body = {"op": op} if k is None else {"op": op, "k": k}
                    client.request("query", body)
                    reads += 1
                    seen.add((op, k, epoch))
                client.tick()
            counters = client.metrics()["counters"]
    assert counters["serve.queries"] == reads
    assert counters["serve.reply_cache_hits"] == reads - len(seen)
    assert counters["serve.snapshots"] == sum(
        op == "counts" for op, _k, _e in seen
    )
