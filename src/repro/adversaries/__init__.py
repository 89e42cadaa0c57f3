"""Byzantine adversary strategies.

Section 2.3: dishonest players may behave arbitrarily; an *adaptive*
adversary chooses their actions after observing all realized coin flips so
far. Our engine shows the adversary the complete billboard — including the
honest posts of the current round — before it casts dishonest votes, which
is the strongest scheduling consistent with the model.

The registry (:mod:`repro.adversaries.registry`) names all built-in
adversaries for the E11 gauntlet.
"""

from repro.adversaries.base import Adversary
from repro.adversaries.batched import BatchedAdversary, PerLaneAdversary
from repro.adversaries.silent import SilentAdversary
from repro.adversaries.concentrate import ConcentrateAdversary
from repro.adversaries.flood import FloodAdversary
from repro.adversaries.random_votes import RandomVotesAdversary
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.adversaries.mimic import MimicAdversary
from repro.adversaries.oblivious import ObliviousSplitVoteAdversary
from repro.adversaries.spoofed import SpoofedProtocolAdversary
from repro.adversaries.registry import (
    ADVERSARY_REGISTRY,
    available_adversaries,
    make_adversary,
)

__all__ = [
    "ADVERSARY_REGISTRY",
    "Adversary",
    "BatchedAdversary",
    "ConcentrateAdversary",
    "PerLaneAdversary",
    "FloodAdversary",
    "MimicAdversary",
    "ObliviousSplitVoteAdversary",
    "RandomVotesAdversary",
    "SilentAdversary",
    "SplitVoteAdversary",
    "SpoofedProtocolAdversary",
    "available_adversaries",
    "make_adversary",
]
