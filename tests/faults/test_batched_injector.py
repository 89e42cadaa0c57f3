"""Unit tests for the lane-vectorized fault injector.

The engine-level faulted equivalence grid lives in
``tests/sim/test_batch_equivalence.py``; this module pins the building
blocks underneath it: a lane's post filter delivers exactly the posts
its scalar injector keeps, from the same stream, and the lane
bookkeeping (restarts, crashes, per-lane summaries) matches its scalar
counterpart.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults.batched import BatchedFaultInjector
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan


def _rng(seed=0):
    return np.random.default_rng(seed)


def _block(rng, size):
    players = rng.integers(0, 16, size=size)
    objects = rng.integers(0, 16, size=size)
    values = rng.random(size)
    return players, objects, values


class TestFilterPostArrays:
    """The lane filter is the scalar loss decision applied to columns:
    same draws, same delivered sub-blocks, same counters."""

    @pytest.mark.parametrize("loss", [0.3, 0.75])
    def test_matches_the_scalar_decision(self, loss):
        plan = FaultPlan(post_loss_rate=loss)
        world = _rng(7)
        faults = BatchedFaultInjector([FaultInjector(plan, _rng(42))])
        faults.reset()
        scalar = FaultInjector(plan, _rng(42))
        scalar.reset()
        for _round in range(12):
            players, objects, values = _block(world, int(world.integers(0, 9)))
            keep = scalar.keep_mask(players.size)
            if keep is None:
                keep = np.ones(players.size, dtype=bool)
            dp, do, dv = faults.filter_block(0, players, objects, values)
            assert np.array_equal(dp, players[keep])
            assert np.array_equal(do, objects[keep])
            assert np.array_equal(dv, values[keep])
        assert faults.info(0) == scalar.info()

    def test_empty_block_draws_nothing(self):
        injector = FaultInjector(FaultPlan(post_loss_rate=0.5), _rng(3))
        faults = BatchedFaultInjector([injector])
        faults.reset()
        before = injector.rng.bit_generator.state
        out = faults.filter_block(
            0,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        assert all(arr.size == 0 for arr in out)
        assert injector.rng.bit_generator.state == before

    def test_lossless_plan_draws_nothing(self):
        plan = FaultPlan(crash_rate=0.5)  # no post faults
        injector = FaultInjector(plan, _rng(3))
        faults = BatchedFaultInjector([injector, None])
        faults.reset()
        before = injector.rng.bit_generator.state
        players, objects, values = _block(_rng(1), 5)
        for lane in (0, 1):
            dp, do, dv = faults.filter_block(lane, players, objects, values)
            assert dp is players and do is objects and dv is values
        assert injector.rng.bit_generator.state == before


class TestLaneBookkeeping:
    def test_apply_crashes_matches_scalar_coins(self):
        plan = FaultPlan(crash_rate=0.4, restart_after=2)
        faults = BatchedFaultInjector(
            [FaultInjector(plan, _rng(s)) for s in (10, 11)]
        )
        faults.reset()
        scalar = [FaultInjector(plan, _rng(s)) for s in (10, 11)]
        for injector in scalar:
            injector.reset()
        active = np.ones((2, 8), dtype=bool)
        halted = np.full((2, 8), -1, dtype=np.int64)
        down = np.full((2, 8), -1, dtype=np.int64)
        faults.apply_crashes(3, [0, 1], active, halted, down)
        for k, injector in enumerate(scalar):
            crashed = injector.crash_coins(3, np.arange(8))
            assert np.array_equal(np.flatnonzero(~active[k]), crashed)
            assert (down[k][crashed] == 5).all()
            assert (halted[k][crashed] == -1).all()

    def test_permanent_crashes_halt(self):
        plan = FaultPlan(crash_rate=1.0)  # no restart_after
        faults = BatchedFaultInjector([FaultInjector(plan, _rng(0))])
        faults.reset()
        active = np.ones((1, 4), dtype=bool)
        halted = np.full((1, 4), -1, dtype=np.int64)
        down = np.full((1, 4), -1, dtype=np.int64)
        faults.apply_crashes(2, [0], active, halted, down)
        assert not active.any()
        assert (halted == 2).all()
        assert (down == -1).all()

    def test_info_total_sums_lanes(self):
        plan = FaultPlan(crash_rate=1.0)
        faults = BatchedFaultInjector(
            [FaultInjector(plan, _rng(0)), None, FaultInjector(plan, _rng(1))]
        )
        faults.reset()
        active = np.ones((3, 4), dtype=bool)
        halted = np.full((3, 4), -1, dtype=np.int64)
        down = np.full((3, 4), -1, dtype=np.int64)
        faults.apply_crashes(0, [0, 1, 2], active, halted, down)
        total = faults.info_total()
        assert total["crashes"] == 8
        assert faults.info(0)["crashes"] == 4
        assert faults.info(1) == {}

    def test_empty_lanes_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one lane"):
            BatchedFaultInjector([])

    def test_lane_count_validation_in_engine(self):
        from repro.sim.batch_engine import BatchedEngine
        from repro.world.generators import planted_instance

        rng = _rng(5)
        instances = [
            planted_instance(n=8, m=8, beta=0.25, alpha=0.75, rng=rng)
            for _ in range(2)
        ]
        faults = BatchedFaultInjector([None])
        with pytest.raises(ConfigurationError, match="lanes"):
            BatchedEngine(instances, strategy=None, faults=faults)
