"""Tests for randomness plumbing."""

import numpy as np
import pytest

from repro.rng import (
    RngFactory,
    choice_or_none,
    make_generator,
    make_seed_sequence,
)


class TestSeeding:
    def test_same_seed_same_stream(self):
        a = make_generator(42).random(5)
        b = make_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_sequence_seed_accepted(self):
        gen = make_generator([1, 2, 3])
        assert 0 <= gen.random() < 1

    def test_seed_sequence_passthrough(self):
        seq = np.random.SeedSequence(5)
        assert make_seed_sequence(seq) is seq


class TestFactory:
    def test_spawn_order_determines_streams(self):
        f1 = RngFactory.from_seed(7)
        f2 = RngFactory.from_seed(7)
        assert np.array_equal(
            f1.spawn_generator().random(4), f2.spawn_generator().random(4)
        )

    def test_spawned_streams_differ(self):
        factory = RngFactory.from_seed(7)
        a = factory.spawn_generator().random(4)
        b = factory.spawn_generator().random(4)
        assert not np.array_equal(a, b)

    def test_child_factories_independent(self):
        factory = RngFactory.from_seed(3)
        kids = list(factory.trial_factories(3))
        streams = [k.spawn_generator().random(4) for k in kids]
        assert not np.array_equal(streams[0], streams[1])
        assert not np.array_equal(streams[1], streams[2])

    def test_trial_factories_reproducible(self):
        def streams(seed):
            factory = RngFactory.from_seed(seed)
            return [
                k.spawn_generator().random(3)
                for k in factory.trial_factories(2)
            ]

        a, b = streams(11), streams(11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _spawned_one_by_one(seq, count):
    """``RngFactory``'s children by their spawn-based definition: the
    k-th is ``seq.spawn(k + 1)[k]``."""
    return [seq.spawn(k + 1)[k] for k in range(count)]


class CountingSeedSequence(np.random.SeedSequence):
    """A SeedSequence that counts the sequences built through it."""

    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


class TestDirectChildren:
    @pytest.mark.parametrize("already_spawned", [0, 3])
    def test_children_equal_the_spawn_formula(self, already_spawned):
        seq, ref = np.random.SeedSequence(2024), np.random.SeedSequence(2024)
        for s in (seq, ref):
            s.spawn(already_spawned)
        factory = RngFactory(seq)
        got = [factory.spawn_sequence() for _ in range(64)]
        want = _spawned_one_by_one(ref, 64)
        for child, expected in zip(got, want):
            assert child.spawn_key == expected.spawn_key
            assert np.array_equal(
                child.generate_state(8), expected.generate_state(8)
            )
        # the factory spawns nothing from the sequence it wraps
        assert seq.n_children_spawned == already_spawned

    def test_one_sequence_built_per_child(self):
        CountingSeedSequence.built = 0
        factory = RngFactory(CountingSeedSequence(5))
        children = list(factory.trial_factories(64))
        assert all(
            isinstance(c.seed_sequence, CountingSeedSequence) for c in children
        )
        # the root plus one per child; taking the k-th child through
        # ``spawn(k + 1)`` would build 1 + 64 * 65 / 2
        assert CountingSeedSequence.built == 1 + 64

    def test_two_factories_over_one_sequence_agree(self):
        seq = np.random.SeedSequence(9)
        a = RngFactory(seq).spawn_generator().random(4)
        b = RngFactory(seq).spawn_generator().random(4)
        assert np.array_equal(a, b)


class TestChoiceOrNone:
    def test_empty_pool(self, rng):
        assert choice_or_none(rng, np.array([], dtype=np.int64)) is None

    def test_single_element(self, rng):
        assert choice_or_none(rng, np.array([7])) == 7

    def test_uniformity_rough(self, rng):
        pool = np.array([0, 1])
        picks = [choice_or_none(rng, pool) for _ in range(400)]
        ones = sum(picks)
        assert 120 < ones < 280
