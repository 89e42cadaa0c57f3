"""The growable column under the post log and the vote ledger.

Past :data:`~repro.billboard.votes.KEEP_BUFFER_BYTES` a column keeps its
full buffers in place instead of copying them; these tests hold every
read to the rows written, in order, whichever buffers hold them.
"""

import sys
import threading

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.billboard.votes import KEEP_BUFFER_BYTES, _IntColumn

#: the dtypes the columnar board stores (ids, values, kinds)
BOARD_DTYPES = (np.int32, np.float64, np.int8)


def _positions(start, count, dtype):
    """Rows whose values encode their positions (mod 100, for int8)."""
    return (np.arange(start, start + count) % 100).astype(dtype)


# one operation on a column: ("append", value), ("extend", length),
# ("fill", value, count) or ("view",); a fill may be large enough to
# cross the size rule in one write
operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 99)),
        st.tuples(st.just("extend"), st.integers(0, 5000)),
        st.tuples(
            st.just("fill"),
            st.integers(0, 99),
            st.integers(0, 3 * KEEP_BUFFER_BYTES // 2),
        ),
        st.tuples(st.just("view")),
    ),
    max_size=25,
)


@given(st.sampled_from(BOARD_DTYPES), st.integers(1, 100), operations)
@settings(max_examples=80, deadline=None)
@example(np.int8, 64, [("fill", 3, KEEP_BUFFER_BYTES), ("view",),
                       ("extend", 10), ("view",), ("append", 7), ("view",)])
@example(np.float64, 64, [("extend", 5000)] * 30 + [("view",), ("fill", 1, 9)])
@example(np.int32, 1, [("fill", 5, KEEP_BUFFER_BYTES // 4), ("extend", 1),
                       ("view",), ("fill", 2, KEEP_BUFFER_BYTES), ("view",)])
def test_column_matches_a_list_of_its_blocks(dtype, capacity, ops):
    """``len`` and every window agree with the blocks written so far;
    windows are read-only and keep their rows after later writes."""
    column = _IntColumn(capacity, dtype=dtype)
    blocks = [np.zeros(0, dtype)]  # the reference: every write's rows
    windows = []
    for op in ops:
        size = sum(block.size for block in blocks)
        if op[0] == "append":
            column.append(op[1])
            blocks.append(np.array([op[1]], dtype=dtype))
        elif op[0] == "extend":
            rows = _positions(size, op[1], dtype)
            column.extend(rows)
            blocks.append(rows)
        elif op[0] == "fill":
            column.fill(op[1], op[2])
            blocks.append(np.full(op[2], op[1], dtype=dtype))
        else:
            window = column.view()
            assert not window.flags.writeable
            assert window.dtype == dtype
            windows.append((window, np.concatenate(blocks)))
        assert len(column) == sum(block.size for block in blocks)
    assert np.array_equal(column.view(), np.concatenate(blocks))
    for window, expected in windows:
        assert np.array_equal(window, expected)


def _hammer(seed):
    """One writer extends a float64 column with ``arange`` blocks of
    random length to 2^19 rows while three threads call ``view``;
    returns the column and the sizes of windows that were not a prefix
    of the rows written."""
    column = _IntColumn(dtype=np.float64)
    target = 1 << 19
    lengths = np.random.default_rng(seed).integers(1, 4096, size=target)
    done = threading.Event()
    bad_windows = []
    writer_errors = []

    def writer():
        try:
            start = 0
            for length in lengths.tolist():
                column.extend(np.arange(start, start + length, dtype=np.float64))
                start += length
                if start >= target:
                    break
        except Exception as exc:  # reported by the test, not the thread
            writer_errors.append(exc)
        finally:
            done.set()

    def reader():
        while not done.is_set():
            window = column.view()
            if not np.array_equal(window, np.arange(window.size)):
                bad_windows.append(window.size)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert writer_errors == []
    return column, bad_windows


def test_views_stay_whole_while_one_writer_grows_the_column():
    """Reads are safe against one writer, past the size rule too: every
    window a reader takes is a prefix of the rows written, and the
    final column has every row. A short switch interval makes the
    threads interleave often."""
    assert (1 << 19) * 8 > 2 * KEEP_BUFFER_BYTES  # growth keeps buffers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(8):
            column, bad_windows = _hammer(seed)
            assert bad_windows == []
            assert len(column) >= 1 << 19
            assert np.array_equal(column.view(), np.arange(len(column)))
    finally:
        sys.setswitchinterval(interval)
