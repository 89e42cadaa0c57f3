"""Tests for the adversary registry."""

import numpy as np
import pytest

from repro.adversaries.base import Adversary
from repro.adversaries.registry import (
    ADVERSARY_REGISTRY,
    available_adversaries,
    make_adversary,
)
from repro.errors import ConfigurationError
from repro.world.generators import planted_instance


class TestRegistry:
    def test_expected_names_present(self):
        names = available_adversaries()
        for expected in (
            "silent",
            "flood",
            "concentrate",
            "random-votes",
            "split-vote",
            "mimic",
        ):
            assert expected in names

    def test_make_returns_fresh_instances(self):
        a = make_adversary("silent")
        b = make_adversary("silent")
        assert a is not b
        assert isinstance(a, Adversary)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_adversary("nope")

    def test_kwargs_forwarded(self):
        adv = make_adversary("concentrate", n_targets=5)
        assert adv.n_targets == 5

    def test_every_registered_adversary_runs(self, rng):
        """Each registry entry completes a round of act() without error."""
        from repro.billboard.board import Billboard
        from repro.billboard.views import BillboardView

        inst = planted_instance(
            n=32, m=32, beta=0.25, alpha=0.5,
            rng=np.random.default_rng(3),
        )
        for name in available_adversaries():
            adv = make_adversary(name)
            adv.reset(inst, np.random.default_rng(4))
            view = BillboardView(Billboard(inst.n, inst.m))
            block = adv.act(0, view)
            if block is not None:
                assert not inst.honest_mask[block.players].any(), name

    def test_names_match_class_attribute(self):
        for name, factory in ADVERSARY_REGISTRY.items():
            assert factory().name == name
