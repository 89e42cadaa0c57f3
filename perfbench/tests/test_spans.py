"""Self-time arithmetic and the attribute wrappers of the traced run."""

import pytest

from spans import SpanRecorder, layer_totals, self_times


def span(name, start, end, parent=-1, items=1):
    return (name, start, end, parent, None, items)


def test_leaf_self_time_is_its_duration():
    assert self_times([span("a", 1.0, 3.5)]) == [2.5]


def test_nested_children_are_subtracted_once():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
        span("child", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_overlapping_and_straddling_children_count_their_union():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 4.0, 7.0, parent=0),  # overlaps a: union is [1, 7]
        span("c", 9.0, 12.0, parent=0),  # clipped to [9, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_sum_self_time_calls_and_items():
    spans = [
        span("Engine.run", 0.0, 10.0),
        span("Board.append", 1.0, 2.0, parent=0, items=5),
        span("Board.append", 3.0, 5.0, parent=0, items=7),
    ]
    totals = layer_totals(spans, {"Engine.run": "engine", "Board.append": "append"})
    assert totals["engine"]["self_s"] == pytest.approx(7.0)
    assert totals["append"] == {"self_s": pytest.approx(3.0), "calls": 2, "items": 12}


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return sum(range(n))


class ToyChild(Toy):
    pass


def test_wrappers_record_nesting_and_restore_the_class():
    original = Toy.inner
    recorder = SpanRecorder()
    recorder.wrap(ToyChild, "outer", "outer")  # patched where it is defined
    recorder.wrap(Toy, "inner", "inner", items=lambda _self, n: n)
    recorder.tag = "trial0"
    assert ToyChild().outer(10) == 46
    recorder.close()
    assert Toy.inner is original and "outer" not in vars(ToyChild)
    outer, inner = sorted(recorder.finished(), key=lambda s: s[1])
    assert outer[0] == "Toy.outer" and inner[3] == 0 and inner[5] == 10
    assert inner[4] == "trial0"
    own = dict(zip(("outer", "inner"), self_times([outer, inner])))
    assert 0 <= own["outer"] <= outer[2] - outer[1]


def test_a_raising_call_still_closes_its_span():
    recorder = SpanRecorder()
    recorder.wrap(Toy, "inner", "inner")
    with pytest.raises(TypeError):
        Toy().inner(None)
    recorder.close()
    assert len(recorder.finished()) == 1


def test_round_costs_and_trial_latencies_from_the_counter_log():
    import sims

    log = [
        ("engine.rounds", 0.0, 1), ("engine.rounds", 1.0, 1), ("engine.rounds", 3.0, 1),
        ("trial.completed", 6.0, 1),
        ("engine.rounds", 7.0, 1), ("trial.completed", 8.0, 1),
        ("batch.rounds", 10.0, 1), ("batch.lane_rounds", 10.0, 4),
        ("batch.rounds", 11.0, 1), ("batch.lane_rounds", 11.0, 2),
        ("trial.completed", 13.0, 4),
    ]
    assert sims.round_costs(log) == [2.0, 1.0] + [0.5] * 4
    assert sims.trial_latencies(log, call_start=-1.0) == [7.0, 2.0] + [5.0] * 4
