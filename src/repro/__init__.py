"""repro — a reproduction of *Adaptive Collaboration in Peer-to-Peer
Systems* (Awerbuch, Patt-Shamir, Peleg, Tuttle; ICDCS 2005).

The library implements the paper's billboard model, Algorithm DISTILL and
all its variants, the baselines it is compared against, a zoo of Byzantine
adversaries, the two lower-bound constructions, and an experiment harness
that regenerates every theorem's claim as a measured table.

Quickstart
----------
>>> import numpy as np
>>> from repro import (DistillStrategy, SynchronousEngine,
...                    planted_instance, SplitVoteAdversary)
>>> rng = np.random.default_rng(0)
>>> instance = planted_instance(n=256, m=256, beta=1/16, alpha=0.75, rng=rng)
>>> engine = SynchronousEngine(instance, DistillStrategy(),
...                            adversary=SplitVoteAdversary(),
...                            rng=np.random.default_rng(1),
...                            adversary_rng=np.random.default_rng(2))
>>> metrics = engine.run()
>>> metrics.all_honest_satisfied
True
"""

from repro.adversaries import (
    Adversary,
    FloodAdversary,
    MimicAdversary,
    RandomVotesAdversary,
    SilentAdversary,
    SplitVoteAdversary,
    SpoofedProtocolAdversary,
    available_adversaries,
    make_adversary,
)
from repro.baselines import (
    AsyncEC04Strategy,
    FullCooperationStrategy,
    TrivialStrategy,
)
from repro.billboard import (
    Billboard,
    BillboardView,
    Post,
    PostBlock,
    PostKind,
    VoteMode,
)
from repro.core import (
    AlphaDoublingStrategy,
    DistillHPStrategy,
    DistillParameters,
    DistillStrategy,
    MultiVoteDistill,
    MulticostOutcome,
    NoLocalTestingDistill,
    ThreePhaseStrategy,
    hp_parameters,
    run_multicost,
)
from repro.errors import (
    AdversaryViolationError,
    BillboardError,
    BudgetExceededError,
    ConfigurationError,
    InvalidPostError,
    ReproError,
    SimulationError,
    TamperError,
)
from repro.extensions import (
    NoAdviceDistill,
    PricedEngine,
    SelfPromotionAdversary,
    SlanderAdversary,
    SlanderingDistill,
    ownership_instance,
)
from repro.sim import (
    AsyncRunMetrics,
    AsynchronousEngine,
    BatchedEngine,
    EngineConfig,
    PerStepAdapter,
    RandomSchedule,
    RoundRobinSchedule,
    RunMetrics,
    SoloFirstSchedule,
    StarvationSchedule,
    SynchronizedDistillAdapter,
    SynchronousEngine,
    Trace,
    TrialResults,
    run_trials,
)
from repro.strategies import Strategy, StrategyContext
from repro.world import (
    Instance,
    ObjectSpace,
    cost_class_instance,
    planted_instance,
    valued_instance,
)

__version__ = "1.17.0"

__all__ = [
    "Adversary",
    "AdversaryViolationError",
    "AlphaDoublingStrategy",
    "AsyncEC04Strategy",
    "AsyncRunMetrics",
    "AsynchronousEngine",
    "BatchedEngine",
    "Billboard",
    "BillboardError",
    "BillboardView",
    "BudgetExceededError",
    "ConfigurationError",
    "DistillHPStrategy",
    "DistillParameters",
    "DistillStrategy",
    "EngineConfig",
    "FloodAdversary",
    "FullCooperationStrategy",
    "Instance",
    "InvalidPostError",
    "MimicAdversary",
    "MultiVoteDistill",
    "MulticostOutcome",
    "NoAdviceDistill",
    "NoLocalTestingDistill",
    "ObjectSpace",
    "PerStepAdapter",
    "Post",
    "PostBlock",
    "PostKind",
    "PricedEngine",
    "RandomSchedule",
    "RandomVotesAdversary",
    "ReproError",
    "RoundRobinSchedule",
    "RunMetrics",
    "SelfPromotionAdversary",
    "SilentAdversary",
    "SimulationError",
    "SlanderAdversary",
    "SlanderingDistill",
    "SoloFirstSchedule",
    "SplitVoteAdversary",
    "SpoofedProtocolAdversary",
    "StarvationSchedule",
    "Strategy",
    "StrategyContext",
    "SynchronizedDistillAdapter",
    "SynchronousEngine",
    "TamperError",
    "ThreePhaseStrategy",
    "Trace",
    "TrialResults",
    "TrivialStrategy",
    "VoteMode",
    "available_adversaries",
    "cost_class_instance",
    "hp_parameters",
    "make_adversary",
    "ownership_instance",
    "planted_instance",
    "run_multicost",
    "run_trials",
    "valued_instance",
]
