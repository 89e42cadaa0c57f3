"""Tests for the fault decision oracle."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan


def make(plan, seed=7):
    injector = FaultInjector(plan, np.random.default_rng(seed))
    injector.reset()
    return injector


class TestFilterPosts:
    def test_zero_rates_pass_through_without_consuming_rng(self):
        injector = make(FaultPlan(crash_rate=0.5))
        before = injector.rng.bit_generator.state
        assert injector.keep_mask(5) is None
        assert injector.rng.bit_generator.state == before
        assert injector.counts["dropped_posts"] == 0

    def test_full_loss_drops_everything(self):
        injector = make(FaultPlan(post_loss_rate=1.0))
        keep = injector.keep_mask(4)
        assert keep.tolist() == [False] * 4
        assert injector.counts["dropped_posts"] == 4

    def test_decisions_reproducible_for_same_seed(self):
        plan = FaultPlan(post_loss_rate=0.3)
        a, b = make(plan, seed=11), make(plan, seed=11)
        for _round in range(5):
            assert a.keep_mask(6).tolist() == b.keep_mask(6).tolist()
        assert a.counts == b.counts

    @pytest.mark.parametrize("loss", [0.1, 0.3, 0.9])
    def test_keep_iff_draw_at_least_the_rate(self, loss):
        """Each block takes one ``random(size)`` batch, whatever its
        outcomes, so a post's fate depends only on its stream position."""
        injector = make(FaultPlan(post_loss_rate=loss), seed=5)
        reference = np.random.default_rng(5)
        dropped = 0
        for size in (3, 0, 8, 1, 5):
            keep = injector.keep_mask(size)
            if size == 0:
                assert keep is None
                continue
            expected = reference.random(size) >= loss
            assert keep.tolist() == expected.tolist()
            dropped += size - int(expected.sum())
        assert injector.counts["dropped_posts"] == dropped
        assert (
            injector.rng.bit_generator.state
            == reference.bit_generator.state
        )


class TestCrashCoins:
    def test_zero_rate_is_free(self):
        injector = make(FaultPlan())
        before = injector.rng.bit_generator.state
        crashed = injector.crash_coins(0, np.arange(8))
        assert crashed.size == 0
        assert injector.rng.bit_generator.state == before

    def test_rate_one_crashes_everyone(self):
        injector = make(FaultPlan(crash_rate=1.0, restart_after=2))
        crashed = injector.crash_coins(0, np.arange(5))
        assert crashed.tolist() == [0, 1, 2, 3, 4]
        assert injector.counts["crashes"] == 5

    def test_stream_advance_depends_on_count_not_outcomes(self):
        """Two plans with different crash rates consume the stream
        identically, so fault realizations upstream never shift the
        decisions downstream."""
        lo, hi = make(FaultPlan(crash_rate=0.1)), make(
            FaultPlan(crash_rate=0.9)
        )
        lo.crash_coins(0, np.arange(16))
        hi.crash_coins(0, np.arange(16))
        assert (
            lo.rng.bit_generator.state == hi.rng.bit_generator.state
        )

    def test_note_restarts_counts(self):
        injector = make(FaultPlan(crash_rate=0.5, restart_after=1))
        injector.note_restarts(np.array([3, 4]))
        assert injector.counts["restarts"] == 2


class TestInfo:
    def test_info_reports_the_realized_counts(self):
        injector = make(FaultPlan(post_loss_rate=0.5, crash_rate=1.0))
        keep = injector.keep_mask(20)
        injector.crash_coins(0, np.arange(6))
        injector.note_restarts(np.array([1, 4]))
        assert injector.info() == {
            "dropped_posts": 20 - int(keep.sum()),
            "crashes": 6,
            "restarts": 2,
        }
        assert 0 < injector.info()["dropped_posts"] < 20

    def test_reset_clears_everything(self):
        injector = make(FaultPlan(post_loss_rate=1.0, crash_rate=1.0))
        injector.keep_mask(3)
        injector.crash_coins(0, np.arange(4))
        injector.reset()
        assert injector.info() == {
            "dropped_posts": 0,
            "crashes": 0,
            "restarts": 0,
        }
