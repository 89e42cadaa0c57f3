"""The silent adversary: dishonest players never post.

The weakest Byzantine behaviour — useful as a control in the E11 gauntlet
(DISTILL's cost with silent dishonest players isolates the pure search
cost from the poisoning cost) and for the lower-bound experiments where
only honest work matters.
"""

from __future__ import annotations

from typing import List

from repro.adversaries.base import Adversary
from repro.billboard.views import BillboardView
from repro.sim.actions import VoteAction


class SilentAdversary(Adversary):
    """Does nothing, ever."""

    name = "silent"

    def act(self, round_no: int, view: BillboardView) -> List[VoteAction]:
        return []
