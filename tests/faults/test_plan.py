"""Tests for the declarative fault plan."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan


class TestValidation:
    def test_defaults_are_null(self):
        assert FaultPlan().is_null()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"post_loss_rate": -0.1},
            {"post_loss_rate": 1.5},
            {"post_loss_rate": float("nan")},
            {"crash_rate": 2.0},
            {"crash_rate": -0.01},
            {"crash_rate": float("nan")},
            {"post_loss_rate": 0.5, "crash_rate": 1.5},
            {"restart_after": 0},
            {"restart_after": -3},
            {"crash_rate": 0.1, "restart_after": 0},
        ],
    )
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kwargs)

    def test_rates_at_the_bounds_are_legal(self):
        FaultPlan(post_loss_rate=1.0, crash_rate=1.0, restart_after=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"post_loss_rate": 0.1},
            {"post_loss_rate": 1.0},
            {"crash_rate": 0.1},
            {"crash_rate": 1.0, "restart_after": 2},
        ],
    )
    def test_any_nonzero_rate_is_not_null(self, kwargs):
        assert not FaultPlan(**kwargs).is_null()

    def test_parameters_without_rates_stay_null(self):
        # a knob that only matters once a rate is on doesn't break identity
        assert FaultPlan(restart_after=5).is_null()

    def test_plan_is_frozen_and_hashable(self):
        plan = FaultPlan(post_loss_rate=0.2)
        with pytest.raises(Exception):
            plan.post_loss_rate = 0.3
        assert plan == FaultPlan(post_loss_rate=0.2)
        assert hash(plan) == hash(FaultPlan(post_loss_rate=0.2))
