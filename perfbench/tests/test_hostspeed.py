"""Reference-second arithmetic of the host-speed clock, on a fake clock."""

import types

import pytest

import hostspeed
from hostspeed import NOMINAL_KERNEL_S as N


@pytest.fixture
def fake(monkeypatch):
    """A settable ``perf_counter``; each kernel run takes the next listed
    time and advances the clock by it."""
    state = types.SimpleNamespace(now=100.0, kernels=[])

    def run_kernel():
        seconds = state.kernels.pop(0)
        state.now += seconds
        return seconds

    monkeypatch.setattr(hostspeed, "time", types.SimpleNamespace(perf_counter=lambda: state.now))
    monkeypatch.setattr(hostspeed, "time_kernel", run_kernel)
    return state


def test_nominal_speed_reads_real_seconds_without_the_pauses(fake):
    fake.kernels = [N, N, N]
    clock = hostspeed.RefClock(every=1.0)
    start = fake.now
    fake.now += 2.0
    assert clock.due()
    clock.pause()
    fake.now += 3.0
    end = fake.now
    clock.finish()
    assert clock.span(start, end) == pytest.approx(5.0)
    assert clock.real_span(start, end) == pytest.approx(5.0)
    assert clock.speed() == pytest.approx(1.0)


def test_a_segment_is_scaled_by_the_kernel_at_both_its_ends(fake):
    # the host is nominal, then twice as slow from the second pause on
    fake.kernels = [N, 2 * N, 2 * N]
    clock = hostspeed.RefClock(every=1.0)
    first = fake.now
    fake.now += 3.0
    clock.pause()
    second = fake.now
    fake.now += 4.0
    last = fake.now
    clock.finish()
    assert clock.span(first, second) == pytest.approx(3.0 * 2 / 3)
    assert clock.span(second, last) == pytest.approx(4.0 / 2)
    assert clock.span(first, last) == pytest.approx(2.0 + 2.0)


def test_stamps_inside_a_segment_interpolate_and_clamp(fake):
    fake.kernels = [N, N]
    clock = hostspeed.RefClock(every=10.0)
    start = fake.now
    fake.now += 4.0
    clock.finish()
    assert clock.span(start, start + 1.5) == pytest.approx(1.5)
    # before the first pause ended, or after the last began: clamped
    assert clock.ref(start - 50.0) == 0.0
    assert clock.ref(fake.now + 50.0) == pytest.approx(4.0)


def test_the_real_kernel_runs_and_restores_gc():
    import gc

    assert gc.isenabled()
    assert hostspeed.time_kernel() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.time_kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_echo_probe_times_round_trips_and_its_child_exits():
    echo = hostspeed.EchoProbe()
    try:
        assert echo() > 0
    finally:
        echo.close()
    assert echo.proc.returncode == 0
