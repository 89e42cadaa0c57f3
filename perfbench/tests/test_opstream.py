"""The serve load's op streams are a pure function of (seed, connection)."""

from collections import Counter

import serveload as sl


def take(seed, conn, count):
    stream = sl.op_stream(seed, conn)
    return [next(stream) for _ in range(count)]


def op_labels(seed, conn, count):
    return [label for label, _body, _frame in take(seed, conn, count)]


def test_same_seed_same_stream():
    assert take(7, 0, 1500) == take(7, 0, 1500)
    assert take(7, 0, 1500) != take(8, 0, 1500)


def test_votes_and_ticks_ride_connection_zero_only():
    zero = op_labels(3, 0, 4000)
    one = op_labels(3, 1, 4000)
    assert set(one) == {"counts", "recommend", "scores"}
    assert {"vote", "tick"} <= set(zero)
    ticks = [i for i, label in enumerate(zero) if label == "tick"]
    assert ticks == list(range(sl.TICK_EVERY - 1, 4000, sl.TICK_EVERY))


def test_mix_is_eighty_twenty_with_even_reads():
    labels = op_labels(5, 0, 20000) + op_labels(5, 1, 20000)
    counts = Counter(labels)
    total = len(labels) - counts["tick"]
    assert abs(counts["vote"] / total - 0.2) < 0.01
    reads = [counts[k] for k in ("counts", "recommend", "scores")]
    assert max(reads) / min(reads) < 1.05

