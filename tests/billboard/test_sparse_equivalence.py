"""Golden equivalence suite: sparse substrate ≡ dense, bit for bit.

The sparse substrate (:mod:`repro.billboard.sparse`: the scalar engine
on the columnar post log) promises that ``substrate=`` never changes a
result: for every vote mode, clean and faulted cells alike, a sparse
run's :class:`~repro.sim.metrics.RunMetrics` — probes, paid,
satisfied/halted arrays, rounds, ``fault_info``, everything — are
*identical* to the dense (``Billboard``) run of the same seed. This
module is that promise's enforcement: a pinned grid over vote modes ×
{clean, faulted E15-style churn cell}, the auto-threshold contract,
traced runs keeping their board, and the ``substrate.*`` observability
counters.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.adversaries.silent import SilentAdversary
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.billboard.columnar import ColumnarBoard
from repro.billboard.sparse import SPARSE_AUTO_THRESHOLD
from repro.billboard.votes import VoteLedger, VoteMode
from repro.core.distill import DistillStrategy
from repro.faults.plan import FaultPlan
from repro.obs.registry import Registry
from repro.sim.engine import EngineConfig, SynchronousEngine
from repro.sim.metrics import RunMetrics
from repro.sim.runner import run_trials
from repro.world.generators import planted_instance


def factory(n=16, m=16, beta=0.25, alpha=0.75):
    return lambda rng: planted_instance(
        n=n, m=m, beta=beta, alpha=alpha, rng=rng
    )


VOTE_MODES = {
    "single": (VoteMode.SINGLE, 1),
    "multi": (VoteMode.MULTI, 2),
    "mutable": (VoteMode.MUTABLE, 1),
}

#: the E15-style robustness cell: post loss + churn at once, the
#: hardest configuration the fault layer supports
FAULTED_PLAN = FaultPlan(
    post_loss_rate=0.15, crash_rate=0.03, restart_after=3
)

#: scalar rows only (``batch_lanes=None``): lanes run the columnar board
#: whatever the knob says, so a lanes row would compare a run with itself
GRID = [
    (vname, None, plan_name)
    for vname in VOTE_MODES
    for plan_name in ("clean", "faulted")
]


def _config(vname):
    mode, max_votes = VOTE_MODES[vname]
    return EngineConfig(
        max_rounds=50_000, vote_mode=mode, max_votes_per_player=max_votes
    )


def _run(substrate, vname, lanes, plan_name, seed=42, obs=None):
    return run_trials(
        factory(),
        DistillStrategy,
        SplitVoteAdversary,
        n_trials=8,
        seed=seed,
        config=_config(vname),
        keep_metrics=True,
        batch_lanes=lanes,
        fault_plan=FAULTED_PLAN if plan_name == "faulted" else None,
        substrate=substrate,
        obs=obs,
    )


def assert_results_identical(dense, sparse):
    """Full-strength equality: every per-trial array and metrics field."""
    assert set(dense.per_trial) == set(sparse.per_trial)
    for key in dense.per_trial:
        assert np.array_equal(dense.per_trial[key], sparse.per_trial[key]), (
            f"per-trial summary {key!r} diverged"
        )
    assert len(dense.metrics) == len(sparse.metrics)
    for i, (a, b) in enumerate(zip(dense.metrics, sparse.metrics)):
        assert np.array_equal(a.honest_mask, b.honest_mask), i
        assert np.array_equal(a.probes, b.probes), i
        assert np.array_equal(a.paid, b.paid), i
        assert np.array_equal(a.satisfied_round, b.satisfied_round), i
        assert np.array_equal(a.halted_round, b.halted_round), i
        assert a.rounds == b.rounds, i
        assert a.all_honest_satisfied == b.all_honest_satisfied, i
        assert a.strategy_info == b.strategy_info, i
        assert a.fault_info == b.fault_info, i
    assert dense.strategy_infos == sparse.strategy_infos


class TestGoldenGrid:
    """Every (vote mode, fault) cell, dense vs sparse, down to the last
    array element."""

    @pytest.mark.parametrize("vname,lanes,plan_name", GRID)
    def test_sparse_matches_dense(self, vname, lanes, plan_name):
        dense = _run("dense", vname, lanes, plan_name)
        sparse = _run("sparse", vname, lanes, plan_name)
        assert_results_identical(dense, sparse)
        if plan_name == "faulted":
            assert any(m.fault_info for m in sparse.metrics), (
                "faulted cell produced no fault_info — the injector "
                "never ran"
            )

    def test_auto_matches_both_below_threshold(self):
        # n=16 is far below SPARSE_AUTO_THRESHOLD, so auto resolves to
        # dense — and either way the results must be the pinned ones
        auto = _run("auto", "single", None, "clean")
        dense = _run("dense", "single", None, "clean")
        assert_results_identical(dense, auto)
        default = _run(None, "single", None, "clean")
        assert_results_identical(dense, default)


class TestSubstrateResolution:
    """Engine-level knob resolution, fallbacks, and observability."""

    def _engine(
        self, n=12, substrate=None, config=None, obs=None, adversary=None
    ):
        rng = np.random.default_rng(np.random.SeedSequence(5))
        instance = planted_instance(
            n=n, m=8, beta=0.25, alpha=0.75,
            rng=np.random.default_rng(np.random.SeedSequence(6)),
        )
        return SynchronousEngine(
            instance,
            DistillStrategy(),
            adversary=adversary if adversary is not None else SilentAdversary(),
            rng=rng,
            adversary_rng=np.random.default_rng(np.random.SeedSequence(7)),
            config=config,
            obs=obs,
            substrate=substrate,
        )

    def test_engine_resolves_auto_by_player_count(self):
        assert self._engine(substrate=None).substrate == "dense"
        assert self._engine(substrate="sparse").substrate == "sparse"
        assert SPARSE_AUTO_THRESHOLD > 12  # the fixture stays dense

    def test_traced_sparse_run_keeps_its_board(self):
        """Structured tracing runs on the substrate it asked for: the
        traced sparse run keeps its columnar board, and its metrics and
        trace events equal the traced dense run's."""
        runs = {}
        for substrate in ("dense", "sparse"):
            obs = Registry()
            engine = self._engine(
                n=32,
                substrate=substrate,
                config=EngineConfig(trace=True, record_reports=True),
                obs=obs,
                adversary=SplitVoteAdversary(),
            )
            runs[substrate] = engine.run()
            assert engine.substrate == substrate
            counters = obs.snapshot()["counters"]
            assert counters.get(f"substrate.{substrate}") == 1, counters
        assert type(engine.board) is ColumnarBoard
        assert type(engine.board.ledger) is VoteLedger
        dense, sparse = runs["dense"], runs["sparse"]
        kinds = dense.trace.counts()
        assert kinds.get("vote", 0) > 0 and kinds.get("adversary", 0) > 0
        assert [e.to_json() for e in sparse.trace] == [
            e.to_json() for e in dense.trace
        ]
        for field in dataclasses.fields(RunMetrics):
            if field.name != "trace":
                assert np.array_equal(
                    getattr(dense, field.name), getattr(sparse, field.name)
                ), field.name

    def test_substrate_counters_are_recorded(self):
        obs = Registry()
        self._engine(substrate="sparse", obs=obs).run()
        counters = obs.snapshot()["counters"]
        assert counters.get("substrate.sparse") == 1
        assert "substrate.dense" not in counters
        # lanes have no substrate to resolve, so they count none
        obs = Registry()
        _run("sparse", "single", 8, "clean", obs=obs)
        counters = obs.snapshot()["counters"]
        assert counters.get("trial.batched") == 8, counters
        assert not [k for k in counters if k.startswith("substrate.")]

    def test_manifest_records_the_requested_substrate(self):
        res = _run("sparse", "single", None, "clean")
        assert res.manifest.substrate == "sparse"
        assert res.manifest.schema_version >= 4
        default = _run(None, "single", None, "clean")
        assert default.manifest.substrate is None

    def test_obs_diff_treats_substrate_as_reporting_only(self):
        from repro.obs.export import (
            REPORTING_COUNTER_PREFIXES,
            REPORTING_MANIFEST_FIELDS,
        )

        assert "substrate" in REPORTING_MANIFEST_FIELDS
        assert "substrate." in REPORTING_COUNTER_PREFIXES

    def test_no_fallback_warning_on_clean_sparse_runs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run("sparse", "single", 8, "clean")
