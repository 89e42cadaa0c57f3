"""The pool's dispatch chunks (``repro.exec.local._build_chunks``)."""

from repro.exec.local import _build_chunks


def units(count):
    """Dispatch units with None seeds (chunking never reads them)."""
    return [(index, None) for index in range(count)]


class TestBuildChunks:
    def test_everything_covered_once_in_order(self):
        chunks = _build_chunks(units(17), workers=2, lanes=1)
        flat = [index for chunk in chunks for index, _seed in chunk]
        assert flat == list(range(17))

    def test_default_targets_four_chunks_per_worker(self):
        chunks = _build_chunks(units(32), workers=2, lanes=1)
        assert len(chunks) == 8
        assert all(len(chunk) == 4 for chunk in chunks)

    def test_rounded_up_to_whole_lane_groups(self):
        # 32 units over 3 workers → raw size ceil(32/12)=3, rounded up
        # to the lane multiple 4 so workers always run full batches
        chunks = _build_chunks(units(32), workers=3, lanes=4)
        assert all(len(chunk) % 4 == 0 for chunk in chunks[:-1])

    def test_single_unit(self):
        assert _build_chunks(units(1), 8, 1) == [[(0, None)]]
