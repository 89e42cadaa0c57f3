"""Executor protocol machinery: chunking and reports."""

from repro.exec import ExecutorReport, build_chunks


def units(count):
    """Dispatch units with None seeds (base machinery never reads them)."""
    return [(index, None) for index in range(count)]


class TestBuildChunks:
    def test_everything_covered_once_in_order(self):
        chunks = build_chunks(units(17), workers=2, chunk_size=None, lanes=1)
        flat = [index for chunk in chunks for index, _seed in chunk]
        assert flat == list(range(17))

    def test_default_targets_four_chunks_per_worker(self):
        chunks = build_chunks(units(32), workers=2, chunk_size=None, lanes=1)
        assert len(chunks) == 8
        assert all(len(chunk) == 4 for chunk in chunks)

    def test_explicit_chunk_size_wins(self):
        chunks = build_chunks(units(10), workers=4, chunk_size=3, lanes=1)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_rounded_up_to_whole_lane_groups(self):
        # 32 units over 3 workers → raw size ceil(32/12)=3, rounded up
        # to the lane multiple 4 so workers always run full batches
        chunks = build_chunks(units(32), workers=3, chunk_size=None, lanes=4)
        assert all(len(chunk) % 4 == 0 for chunk in chunks[:-1])

    def test_single_unit(self):
        assert build_chunks(units(1), 8, None, 1) == [[(0, None)]]


class TestExecutorReport:
    def test_to_dict_is_stable_and_copied(self):
        report = ExecutorReport(backend="local")
        report.workers.append("w0")
        payload = report.to_dict()
        assert payload == {
            "backend": "local",
            "workers": ["w0"],
            "retries": 0,
            "worker_losses": 0,
            "degraded_from": [],
        }
        payload["workers"].append("w9")
        assert report.workers == ["w0"]  # to_dict copies, never aliases
