"""Golden equivalence suite: batched engine ≡ scalar engine, bit for bit.

The batched trial-lane engine (:class:`repro.sim.batch_engine.BatchedEngine`)
promises that for every supported configuration the per-trial
:class:`~repro.sim.metrics.RunMetrics` are *identical* to the scalar
:class:`~repro.sim.engine.SynchronousEngine` — same probes, same rounds,
same satisfied/halted arrays, same diagnostics. This module is that
promise's enforcement: a pinned grid over vote modes × adversaries ×
strategies, a faulted grid over fault plans (faults batch natively —
loss, churn, permanent churn, loss + churn), grid-lane packing vs
per-cell runs, a seed-randomized property test, and the
unsupported-config fallback contract. CI fails if this module is skipped or collects zero
tests, so the contract cannot silently rot.
"""

import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.adversaries.concentrate import ConcentrateAdversary
from repro.adversaries.random_votes import RandomVotesAdversary
from repro.adversaries.silent import SilentAdversary
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.baselines.async_ec04 import AsyncEC04Strategy
from repro.baselines.full_cooperation import FullCooperationStrategy
from repro.baselines.trivial import TrivialStrategy
from repro.billboard.votes import VoteMode
from repro.core.distill import DistillStrategy
from repro.core.distill_hp import DistillHPStrategy
from repro.core.multivote import MultiVoteDistill
from repro.errors import ConfigurationError
from repro.extensions.no_advice import NoAdviceDistill
from repro.extensions.slander import SlanderAdversary, SlanderingDistill
from repro.faults.plan import FaultPlan
from repro.sim.engine import EngineConfig
from repro.sim.runner import GridCell, run_trial_grid, run_trials
from repro.world.generators import planted_instance


def factory(n=16, m=16, beta=0.25, alpha=0.75):
    return lambda rng: planted_instance(
        n=n, m=m, beta=beta, alpha=alpha, rng=rng
    )


STRATEGIES = {
    "distill": DistillStrategy,
    "trivial": TrivialStrategy,
}

ADVERSARIES = {
    "silent": SilentAdversary,
    "random-votes": RandomVotesAdversary,
    "split-vote": SplitVoteAdversary,
}

VOTE_MODES = {
    "single": (VoteMode.SINGLE, 1),
    "multi": (VoteMode.MULTI, 2),
    "mutable": (VoteMode.MUTABLE, 1),
}

GRID = [
    (sname, aname, vname)
    for sname in STRATEGIES
    for aname in ADVERSARIES
    for vname in VOTE_MODES
]

#: one plan per fault mechanism, plus the all-at-once composition
FAULT_PLANS = {
    "loss": FaultPlan(post_loss_rate=0.3),
    "churn": FaultPlan(crash_rate=0.05, restart_after=2),
    "churn-permanent": FaultPlan(crash_rate=0.02),
    "combined": FaultPlan(
        post_loss_rate=0.15, crash_rate=0.03, restart_after=3
    ),
}

FAULT_GRID = [
    (pname, sname, aname)
    for pname in FAULT_PLANS
    for sname in STRATEGIES
    for aname in ("silent", "split-vote")
]


def _config(vname):
    mode, max_votes = VOTE_MODES[vname]
    return EngineConfig(
        max_rounds=50_000, vote_mode=mode, max_votes_per_player=max_votes
    )


def _run(make_strategy, make_adversary, config, *, batch_lanes=None,
         n_trials=6, seed=42, **kwargs):
    return run_trials(
        factory(),
        make_strategy,
        make_adversary,
        n_trials=n_trials,
        seed=seed,
        config=config,
        keep_metrics=True,
        batch_lanes=batch_lanes,
        **kwargs,
    )


def assert_results_identical(scalar, batched):
    """Full-strength equality: every per-trial array and metrics field."""
    assert set(scalar.per_trial) == set(batched.per_trial)
    for key in scalar.per_trial:
        assert np.array_equal(scalar.per_trial[key], batched.per_trial[key]), (
            f"per-trial summary {key!r} diverged"
        )
    assert len(scalar.metrics) == len(batched.metrics)
    for i, (a, b) in enumerate(zip(scalar.metrics, batched.metrics)):
        assert np.array_equal(a.honest_mask, b.honest_mask), i
        assert np.array_equal(a.probes, b.probes), i
        assert np.array_equal(a.paid, b.paid), i
        assert np.array_equal(a.satisfied_round, b.satisfied_round), i
        assert np.array_equal(a.halted_round, b.halted_round), i
        assert a.rounds == b.rounds, i
        assert a.all_honest_satisfied == b.all_honest_satisfied, i
        assert a.strategy_info == b.strategy_info, i
        assert a.fault_info == b.fault_info, i
    assert scalar.strategy_infos == batched.strategy_infos


class TestGoldenGrid:
    """Every supported (strategy, adversary, vote-mode) cell, scalar vs
    batched, down to the last array element."""

    @pytest.mark.parametrize("sname,aname,vname", GRID)
    def test_batched_matches_scalar(self, sname, aname, vname):
        config = _config(vname)
        scalar = _run(STRATEGIES[sname], ADVERSARIES[aname], config)
        batched = _run(
            STRATEGIES[sname], ADVERSARIES[aname], config, batch_lanes=4
        )
        assert_results_identical(scalar, batched)

    def test_lane_count_does_not_matter(self):
        config = _config("single")
        runs = [
            _run(DistillStrategy, SplitVoteAdversary, config, batch_lanes=k)
            for k in (None, 2, 3, 6, 8)
        ]
        for other in runs[1:]:
            assert_results_identical(runs[0], other)


class TestGoldenPins:
    """Absolute pinned values so batched *and* scalar streams stay frozen
    together — a refactor that shifts both in lockstep still fails here."""

    def test_distill_split_vote_single(self):
        res = _run(
            DistillStrategy, SplitVoteAdversary, _config("single"),
            batch_lanes=3,
        )
        assert res.per_trial["rounds"].tolist() == [
            7.0, 6.0, 5.0, 4.0, 5.0, 8.0,
        ]

    def test_trivial_random_votes_mutable(self):
        res = _run(
            TrivialStrategy, RandomVotesAdversary, _config("mutable"),
            batch_lanes=3,
        )
        assert res.per_trial["rounds"].tolist() == [
            5.0, 16.0, 23.0, 10.0, 5.0, 5.0,
        ]
        assert res.per_trial["mean_individual_probes"] == pytest.approx(
            [2.4166666666666665, 3.75, 5.333333333333333,
             4.416666666666667, 2.4166666666666665, 2.9166666666666665]
        )


class TestFaultedGoldenGrid:
    """Fault plans batch natively: every fault mechanism × strategy ×
    adversary cell, faulted-batched vs faulted-scalar, including the
    per-trial ``fault_info`` realization — and with no fallback warning,
    which is the tentpole's whole point."""

    @pytest.mark.parametrize("pname,sname,aname", FAULT_GRID)
    def test_faulted_batched_matches_scalar(self, pname, sname, aname):
        plan = FAULT_PLANS[pname]
        config = _config("single")
        scalar = _run(
            STRATEGIES[sname], ADVERSARIES[aname], config, fault_plan=plan
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = _run(
                STRATEGIES[sname], ADVERSARIES[aname], config,
                fault_plan=plan, batch_lanes=4,
            )
        assert_results_identical(scalar, batched)
        assert any(m.fault_info for m in batched.metrics), (
            "faulted run produced no fault_info — the injector never ran"
        )

    def test_faulted_lane_count_does_not_matter(self):
        config = _config("single")
        plan = FAULT_PLANS["combined"]
        runs = [
            _run(DistillStrategy, SplitVoteAdversary, config,
                 fault_plan=plan, batch_lanes=k)
            for k in (None, 2, 3, 6, 8)
        ]
        for other in runs[1:]:
            assert_results_identical(runs[0], other)

    def test_faulted_vote_modes(self):
        plan = FAULT_PLANS["combined"]
        for vname in VOTE_MODES:
            config = _config(vname)
            scalar = _run(
                DistillStrategy, SplitVoteAdversary, config, fault_plan=plan
            )
            batched = _run(
                DistillStrategy, SplitVoteAdversary, config, fault_plan=plan,
                batch_lanes=4,
            )
            assert_results_identical(scalar, batched)


class TestFaultedGoldenPins:
    """Absolute pinned values for faulted batched runs, so the batched and
    scalar fault streams stay frozen together."""

    def test_combined_distill_split_vote(self):
        res = _run(
            DistillStrategy, SplitVoteAdversary, _config("single"),
            fault_plan=FAULT_PLANS["combined"], batch_lanes=3,
        )
        assert res.per_trial["rounds"].tolist() == [
            6.0, 9.0, 11.0, 6.0, 6.0, 8.0,
        ]
        assert res.metrics[0].fault_info == {
            "dropped_posts": 3,
            "crashes": 0,
            "restarts": 0,
        }
        assert res.metrics[3].fault_info == {
            "dropped_posts": 0,
            "crashes": 3,
            "restarts": 3,
        }

    def test_churn_trivial_silent(self):
        res = _run(
            TrivialStrategy, SilentAdversary, _config("single"),
            fault_plan=FAULT_PLANS["churn"], batch_lanes=3,
        )
        assert res.per_trial["rounds"].tolist() == [
            5.0, 19.0, 26.0, 13.0, 6.0, 5.0,
        ]
        assert res.metrics[0].fault_info == {
            "dropped_posts": 0,
            "crashes": 1,
            "restarts": 1,
        }


class TestFaultPlansBatchNatively:
    """The tentpole contract: ``fault_plan`` is no longer a fallback
    reason, and a no-op plan is just as batchable as no plan."""

    def test_fault_plan_no_longer_falls_back(self):
        plan = FaultPlan(post_loss_rate=0.2, crash_rate=0.05,
                         restart_after=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run(DistillStrategy, SilentAdversary, _config("single"),
                 fault_plan=plan, batch_lanes=4)

    def test_null_plan_is_batchable_and_inert(self):
        config = _config("single")
        clean = _run(DistillStrategy, SplitVoteAdversary, config,
                     batch_lanes=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            null = _run(DistillStrategy, SplitVoteAdversary, config,
                        fault_plan=FaultPlan(), batch_lanes=4)
        assert_results_identical(clean, null)
        assert all(m.fault_info == {} for m in null.metrics)

    def test_fallback_reason_ignores_fault_plans(self):
        from repro.sim.batch_engine import batch_fallback_reason

        plan = FAULT_PLANS["combined"]
        assert batch_fallback_reason(None, plan) is None
        assert batch_fallback_reason(_config("single"), plan) is None
        assert batch_fallback_reason(
            EngineConfig(trace=True), plan
        ) == "structured traces are per-trial"


class TestFallbackAudit:
    """A degraded batch request leaves a three-part audit trail: the
    warning quotes the reason, the ``batch.fallback`` counter increments,
    and the manifest records the reason string."""

    def test_trace_fallback_is_audited(self):
        from repro.obs.registry import Registry, observe

        config = EngineConfig(max_rounds=50_000, trace=True)
        with observe(Registry()) as registry:
            with pytest.warns(
                RuntimeWarning, match="'structured traces are per-trial'"
            ):
                res = _run(DistillStrategy, SilentAdversary, config,
                           batch_lanes=4, n_trials=2)
        assert registry.counters().get("batch.fallback") == 1
        assert res.manifest is not None
        assert res.manifest.batch_fallback_reason == (
            "structured traces are per-trial"
        )

    def test_clean_batched_run_records_no_fallback(self):
        from repro.obs.registry import Registry, observe

        with observe(Registry()) as registry:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = _run(DistillStrategy, SilentAdversary,
                           _config("single"), batch_lanes=4, n_trials=2)
        assert "batch.fallback" not in registry.counters()
        assert res.manifest is not None
        assert res.manifest.batch_fallback_reason is None

    def test_scalar_run_records_no_fallback(self):
        res = _run(DistillStrategy, SilentAdversary, _config("single"),
                   n_trials=2)
        assert res.manifest is not None
        assert res.manifest.batch_fallback_reason is None


class TestGridLanes:
    """Grid packing: lanes from *different* experiment cells — different
    alpha/beta/strategy/adversary/fault plan — share one engine batch,
    and every cell's results stay bit-identical to a standalone
    ``run_trials`` of that cell."""

    @staticmethod
    def _cell_factory(alpha, beta):
        return lambda rng: planted_instance(
            n=16, m=16, beta=beta, alpha=alpha, rng=rng
        )

    def _mixed_cells(self):
        return [
            GridCell(
                make_instance=self._cell_factory(0.75, 0.25),
                make_strategy=DistillStrategy,
                n_trials=5,
                seed=7,
                label="clean-distill",
            ),
            GridCell(
                make_instance=self._cell_factory(0.5, 1 / 8),
                make_strategy=TrivialStrategy,
                make_adversary=SplitVoteAdversary,
                n_trials=3,
                seed=13,
                fault_plan=FaultPlan(
                    post_loss_rate=0.2, crash_rate=0.04, restart_after=2
                ),
                label="faulted-trivial",
            ),
        ]

    def _reference(self, cell, config):
        return run_trials(
            cell.make_instance,
            cell.make_strategy,
            cell.make_adversary,
            n_trials=cell.n_trials,
            seed=cell.seed,
            config=config,
            keep_metrics=True,
            fault_plan=cell.fault_plan,
        )

    def test_mixed_cells_match_per_cell_runs(self):
        config = _config("single")
        cells = self._mixed_cells()
        # 8 trials into 4-lane groups: the second group mixes both cells.
        grid = run_trial_grid(
            cells, config=config, batch_lanes=4, keep_metrics=True
        )
        assert len(grid) == len(cells)
        for cell, got in zip(cells, grid):
            ref = self._reference(cell, config)
            assert_results_identical(ref, got)
            assert got.manifest is not None
            assert got.manifest.seed_entropy == ref.manifest.seed_entropy
            assert got.manifest.fault_plan_digest == (
                ref.manifest.fault_plan_digest
            )

    def test_lane_width_does_not_matter(self):
        config = _config("single")
        cells = self._mixed_cells()
        baseline = run_trial_grid(
            cells, config=config, batch_lanes=2, keep_metrics=True
        )
        for lanes in (3, 5, 12):
            other = run_trial_grid(
                cells, config=config, batch_lanes=lanes, keep_metrics=True
            )
            for a, b in zip(baseline, other):
                assert_results_identical(a, b)

    def test_scalar_grid_delegates_per_cell(self):
        config = _config("single")
        cells = self._mixed_cells()
        grid = run_trial_grid(
            cells, config=config, batch_lanes=1, keep_metrics=True
        )
        for cell, got in zip(cells, grid):
            assert_results_identical(self._reference(cell, config), got)

    def test_seeded_property_grid(self):
        """Randomized cells from a pinned metaseed: packing random mixes
        of strategies, adversaries, and plans stays per-cell identical."""
        meta = np.random.default_rng(1507)
        strategies = list(STRATEGIES.values())
        adversaries = [None, SplitVoteAdversary, RandomVotesAdversary]
        plans = [None] + list(FAULT_PLANS.values())
        config = _config("single")
        cells = []
        for i in range(4):
            adv = adversaries[int(meta.integers(len(adversaries)))]
            cells.append(
                GridCell(
                    make_instance=self._cell_factory(
                        float(meta.uniform(0.4, 0.8)),
                        float(meta.choice([1 / 8, 0.25])),
                    ),
                    make_strategy=strategies[
                        int(meta.integers(len(strategies)))
                    ],
                    make_adversary=(lambda: None) if adv is None else adv,
                    n_trials=int(meta.integers(2, 6)),
                    seed=int(meta.integers(0, 2**31)),
                    fault_plan=plans[int(meta.integers(len(plans)))],
                    label=f"cell-{i}",
                )
            )
        grid = run_trial_grid(
            cells, config=config, batch_lanes=5, keep_metrics=True
        )
        for cell, got in zip(cells, grid):
            assert_results_identical(self._reference(cell, config), got)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one cell"):
            run_trial_grid([], batch_lanes=4)

    def test_bad_cell_trials_rejected(self):
        cell = GridCell(
            make_instance=self._cell_factory(0.75, 0.25),
            make_strategy=DistillStrategy,
            n_trials=0,
        )
        with pytest.raises(ConfigurationError, match="n_trials"):
            run_trial_grid([cell], batch_lanes=4)


class TestSeedProperty:
    """Randomized probing of the grid: fresh seeds every run of the suite
    would break reproducibility, so seeds are drawn from a pinned
    metaseed — different cells, same guarantee."""

    CASES = [
        (int(s), GRID[i % len(GRID)], int(k))
        for i, (s, k) in enumerate(
            zip(
                np.random.default_rng(2026).integers(0, 2**31, size=6),
                np.random.default_rng(805).integers(2, 7, size=6),
            )
        )
    ]

    @pytest.mark.parametrize("seed,cell,lanes", CASES)
    def test_random_cell_identical(self, seed, cell, lanes):
        sname, aname, vname = cell
        config = _config(vname)
        scalar = _run(
            STRATEGIES[sname], ADVERSARIES[aname], config, seed=seed,
            n_trials=5,
        )
        batched = _run(
            STRATEGIES[sname], ADVERSARIES[aname], config, seed=seed,
            n_trials=5, batch_lanes=lanes,
        )
        assert_results_identical(scalar, batched)


class QuietStep11SplitVote(SplitVoteAdversary):
    """Split-vote that skips the Step 1.1 dilution: a subclass that
    changes one attack step must run that step on lanes too, not its
    parent's vectorized twin."""

    def _attack_step11(self):
        return None


#: subclasses of classes with (or that once had) a lane twin; each must
#: run its own overrides on lanes: (strategy, adversary, config)
SUBCLASS_CASES = {
    "no-advice": (NoAdviceDistill, SplitVoteAdversary, _config("single")),
    "slander": (
        SlanderingDistill,
        SlanderAdversary,
        # the smear suppresses the good objects for good (experiment
        # A1), so the run ends at a round cap, as A1's does
        replace(
            _config("single"), record_reports=True, max_rounds=256,
            strict=False,
        ),
    ),
    "multi-vote": (
        partial(MultiVoteDistill, f=2, error_rate=0.2),
        SplitVoteAdversary,
        _config("multi"),
    ),
    "distill-hp": (DistillHPStrategy, SplitVoteAdversary, _config("single")),
    "split-vote-subclass": (
        DistillStrategy, QuietStep11SplitVote, _config("single")
    ),
}


class TestAdapterLanes:
    """Every strategy and adversary runs in lanes as one scalar instance
    per lane — bit-identical, subclass overrides included."""

    @pytest.mark.parametrize("case", sorted(SUBCLASS_CASES))
    def test_subclass_runs_its_own_code_on_lanes(self, case):
        make_strategy, make_adversary, config = SUBCLASS_CASES[case]
        scalar = _run(make_strategy, make_adversary, config)
        batched = _run(make_strategy, make_adversary, config, batch_lanes=4)
        assert_results_identical(scalar, batched)
        assert {info["algorithm"] for info in batched.strategy_infos} == {
            make_strategy().name
        }

    def test_full_cooperation_native_batched(self):
        config = _config("single")
        scalar = _run(FullCooperationStrategy, SilentAdversary, config)
        batched = _run(
            FullCooperationStrategy, SilentAdversary, config, batch_lanes=4
        )
        assert_results_identical(scalar, batched)

    def test_per_lane_strategy_adapter(self):
        config = _config("single")
        scalar = _run(AsyncEC04Strategy, SilentAdversary, config)
        batched = _run(
            AsyncEC04Strategy, SilentAdversary, config, batch_lanes=4
        )
        assert_results_identical(scalar, batched)

    def test_per_lane_adversary_adapter(self):
        config = _config("single")
        scalar = _run(DistillStrategy, ConcentrateAdversary, config)
        batched = _run(
            DistillStrategy, ConcentrateAdversary, config, batch_lanes=4
        )
        assert_results_identical(scalar, batched)


class TestUnsupportedFallback:
    """The one remaining unsupported configuration — structured traces —
    degrades to the scalar engine with one warning per process, and the
    results must be identical anyway."""

    def test_trace_falls_back_with_identical_results(self):
        config = EngineConfig(max_rounds=50_000, trace=True)
        scalar = _run(DistillStrategy, SilentAdversary, config)
        with pytest.warns(RuntimeWarning, match="falling back to the scalar"):
            batched = _run(
                DistillStrategy, SilentAdversary, config, batch_lanes=4
            )
        for a, b in zip(scalar.metrics, batched.metrics):
            assert a.trace is not None and b.trace is not None
            assert a.trace.to_jsonl() == b.trace.to_jsonl()
        assert_results_identical(scalar, batched)

    def test_fallback_warns_once_per_process(self):
        config = EngineConfig(max_rounds=50_000, trace=True)
        with pytest.warns(RuntimeWarning, match="falling back"):
            _run(DistillStrategy, SilentAdversary, config, batch_lanes=2,
                 n_trials=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run(DistillStrategy, SilentAdversary, config, batch_lanes=2,
                 n_trials=2)

    def test_batch_engine_rejects_trace_directly(self):
        from repro.sim.batch_engine import BatchedEngine

        rng = np.random.default_rng(0)
        instances = [factory()(rng) for _ in range(2)]
        with pytest.raises(ConfigurationError, match="trace"):
            BatchedEngine(
                instances,
                strategy=None,
                config=EngineConfig(trace=True),
            )

    @pytest.mark.parametrize("bad", [0, -3, "four"])
    def test_bad_batch_lanes_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="batch_lanes"):
            run_trials(
                factory(), TrivialStrategy, n_trials=2, seed=0,
                batch_lanes=bad,
            )


class TestComposition:
    """batch_lanes composes with the pool, checkpointing, and partial
    groups (n_trials not a multiple of the lane count)."""

    def test_partial_final_group(self):
        config = _config("single")
        scalar = _run(DistillStrategy, SplitVoteAdversary, config,
                      n_trials=7)
        batched = _run(DistillStrategy, SplitVoteAdversary, config,
                       n_trials=7, batch_lanes=4)
        assert_results_identical(scalar, batched)

    def test_batch_lanes_with_pool(self):
        config = _config("single")
        scalar = _run(DistillStrategy, SplitVoteAdversary, config,
                      n_trials=8)
        batched = _run(DistillStrategy, SplitVoteAdversary, config,
                       n_trials=8, batch_lanes=2, n_jobs=2)
        assert_results_identical(scalar, batched)

    def test_batch_lanes_with_checkpoint(self, tmp_path):
        # Checkpointing is incompatible with keep_metrics, so this cell
        # compares the per-trial summaries only.
        config = _config("single")
        path = str(tmp_path / "ckpt.jsonl")
        scalar = run_trials(
            factory(), DistillStrategy, SplitVoteAdversary, n_trials=6,
            seed=42, config=config,
        )
        batched = run_trials(
            factory(), DistillStrategy, SplitVoteAdversary, n_trials=6,
            seed=42, config=config, batch_lanes=3, checkpoint_path=path,
        )
        for key in scalar.per_trial:
            assert np.array_equal(
                scalar.per_trial[key], batched.per_trial[key]
            ), key
        resumed = run_trials(
            factory(), DistillStrategy, SplitVoteAdversary, n_trials=6,
            seed=42, config=config, batch_lanes=3, checkpoint_path=path,
        )
        for key in scalar.per_trial:
            assert np.array_equal(
                scalar.per_trial[key], resumed.per_trial[key]
            ), key
