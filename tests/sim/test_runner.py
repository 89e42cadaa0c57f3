"""Tests for the Monte-Carlo trial runner."""

import numpy as np
import pytest

from repro.adversaries.silent import SilentAdversary
from repro.baselines.trivial import TrivialStrategy
from repro.errors import ConfigurationError
from repro.rng import RngFactory
from repro.sim.engine import EngineConfig
from repro.sim.runner import TrialResults, resolve_n_jobs, run_trials
from repro.world.generators import planted_instance


def factory(n=16, m=16, beta=0.25, alpha=0.75):
    return lambda rng: planted_instance(
        n=n, m=m, beta=beta, alpha=alpha, rng=rng
    )


class TestRunTrials:
    def test_runs_requested_trials(self):
        res = run_trials(factory(), TrivialStrategy, n_trials=5, seed=1)
        assert res.n_trials == 5

    def test_reproducible_by_seed(self):
        a = run_trials(factory(), TrivialStrategy, n_trials=4, seed=9)
        b = run_trials(factory(), TrivialStrategy, n_trials=4, seed=9)
        assert np.array_equal(a.per_trial["rounds"], b.per_trial["rounds"])

    def test_different_seeds_differ(self):
        a = run_trials(factory(), TrivialStrategy, n_trials=6, seed=1)
        b = run_trials(factory(), TrivialStrategy, n_trials=6, seed=2)
        assert not np.array_equal(
            a.per_trial["mean_individual_probes"],
            b.per_trial["mean_individual_probes"],
        )

    def test_keep_metrics(self):
        res = run_trials(
            factory(), TrivialStrategy, n_trials=3, seed=0, keep_metrics=True
        )
        assert len(res.metrics) == 3

    def test_strategy_infos_collected(self):
        from repro.core.distill import DistillStrategy

        res = run_trials(factory(), DistillStrategy, n_trials=3, seed=0)
        assert len(res.strategy_infos) == 3
        assert all("attempt_count" in i for i in res.strategy_infos)

    def test_config_passed_through(self):
        with pytest.raises(Exception):
            run_trials(
                factory(beta=1 / 16, m=64),
                TrivialStrategy,
                n_trials=2,
                seed=0,
                config=EngineConfig(max_rounds=1, strict=True),
            )


class TestAggregation:
    @pytest.fixture
    def res(self):
        return run_trials(factory(), TrivialStrategy, n_trials=16, seed=3)

    def test_mean_matches_numpy(self, res):
        key = "mean_individual_probes"
        assert res.mean(key) == pytest.approx(
            float(res.per_trial[key].mean())
        )

    def test_ci_positive_for_noisy_stat(self, res):
        assert res.ci95("mean_individual_probes") > 0

    def test_quantile_bounds(self, res):
        key = "rounds"
        assert res.quantile(key, 0.0) <= res.quantile(key, 1.0)

    def test_success_rate_is_fraction(self, res):
        assert 0.0 <= res.success_rate() <= 1.0

    def test_describe_mentions_ci(self, res):
        assert "95% CI" in res.describe("rounds")

    def test_sem_scales_with_std(self, res):
        key = "rounds"
        assert res.sem(key) == pytest.approx(res.std(key) / 4.0)


class TestContextFactory:
    def test_make_context_overrides_protocol_knowledge(self):
        """The Section 5.1 use case: feed the strategy a wrong alpha."""
        from repro.core.distill import DistillStrategy
        from repro.strategies.base import StrategyContext

        seen = {}

        class Probe(DistillStrategy):
            def reset(self, ctx, rng):
                seen["alpha"] = ctx.alpha
                super().reset(ctx, rng)

        res = run_trials(
            factory(alpha=0.75),
            Probe,
            n_trials=1,
            seed=0,
            make_context=lambda inst: StrategyContext(
                n=inst.n,
                m=inst.m,
                alpha=0.25,  # deliberately wrong
                beta=inst.beta,
                good_threshold=0.5,
            ),
        )
        assert seen["alpha"] == 0.25
        assert res.n_trials == 1


class TestGuards:
    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError, match="n_trials"):
            run_trials(factory(), TrivialStrategy, n_trials=0, seed=0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigurationError, match="n_trials"):
            run_trials(factory(), TrivialStrategy, n_trials=-3, seed=0)

    def test_empty_results_have_no_trial_count(self):
        with pytest.raises(ConfigurationError, match="zero trials"):
            TrialResults(per_trial={}).n_trials

    @pytest.mark.parametrize("bad", [0, -2])
    def test_bad_n_jobs_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            run_trials(
                factory(), TrivialStrategy, n_trials=2, seed=0, n_jobs=bad
            )

    def test_resolve_n_jobs_normalizes(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(-1) >= 1


class TestPoolDegrade:
    """Oversized pools degrade to the core count with a single warning."""

    def test_single_core_host_degrades_to_serial(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            assert resolve_n_jobs(4) == 1

    def test_oversized_pool_clamped_to_cores(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="degrading to 2 worker"):
            assert resolve_n_jobs(16) == 2

    def test_warning_fires_once_per_process(self, monkeypatch):
        import os
        import warnings as _warnings

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning):
            resolve_n_jobs(3)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert resolve_n_jobs(3) == 1

    def test_degraded_run_still_correct(self, monkeypatch):
        import os

        serial = run_trials(factory(), TrivialStrategy, n_trials=4, seed=11)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning, match="degrading"):
            degraded = run_trials(
                factory(), TrivialStrategy, n_trials=4, seed=11, n_jobs=4
            )
        assert np.array_equal(
            serial.per_trial["rounds"], degraded.per_trial["rounds"]
        )


class TestSeedStability:
    """Pin seeded results so refactors cannot silently shift streams.

    The expected arrays were recorded before the spare stream and the
    process-pool backend landed; they must never change.
    """

    def test_golden_values_for_seed_42(self):
        res = run_trials(factory(), TrivialStrategy, n_trials=6, seed=42)
        assert res.per_trial["rounds"].tolist() == [
            5.0, 16.0, 23.0, 10.0, 5.0, 5.0,
        ]
        assert res.per_trial["mean_individual_probes"].tolist() == [
            2.4166666666666665,
            3.75,
            5.333333333333333,
            4.416666666666667,
            2.4166666666666665,
            2.9166666666666665,
        ]


class TestStreamOrder:
    """The per-trial spawn order (world, honest, adversary, spare) is a
    pinned contract: reordering or dropping a stream shifts every seeded
    result in the suite."""

    def test_streams_handed_out_in_documented_order(self):
        seed = 1234
        # Derive the expected streams exactly as run_trials does: one
        # child factory per trial, then generators in spawn order. PCG64's
        # ``inc`` identifies the stream regardless of how many values have
        # been drawn from it, so capture points need not be pristine.
        root = RngFactory.from_seed(seed)
        trial = next(root.trial_factories(1))
        expected_incs = [
            trial.spawn_generator().bit_generator.state["state"]["inc"]
            for _ in range(3)
        ]

        captured = {}

        def capturing_instance(rng):
            captured["world"] = rng.bit_generator.state["state"]["inc"]
            return planted_instance(
                n=16, m=16, beta=0.25, alpha=0.75, rng=rng
            )

        class CapturingStrategy(TrivialStrategy):
            def reset(self, ctx, rng):
                captured["honest"] = rng.bit_generator.state["state"]["inc"]
                super().reset(ctx, rng)

        class CapturingAdversary(SilentAdversary):
            def reset(self, instance, rng):
                captured["adversary"] = (
                    rng.bit_generator.state["state"]["inc"]
                )
                super().reset(instance, rng)

        run_trials(
            capturing_instance,
            CapturingStrategy,
            make_adversary=CapturingAdversary,
            n_trials=1,
            seed=seed,
        )
        actual = [
            captured["world"], captured["honest"], captured["adversary"]
        ]
        assert actual == expected_incs

    def test_exactly_four_streams_spawned_per_trial(self):
        """The fourth (spare) stream must be spawned even though unused."""
        from repro.sim.runner import _execute_trial

        trial = RngFactory.from_seed(0)
        _execute_trial(
            trial,
            make_instance=factory(),
            make_strategy=TrivialStrategy,
            make_adversary=lambda: None,
            make_context=None,
            config=None,
            keep_metrics=False,
        )
        assert trial._spawned == 4


class TestParallelEquivalence:
    """Serial and process-pool runs must be bit-identical per seed."""

    def _run(self, **kwargs):
        return run_trials(
            factory(),
            TrivialStrategy,
            make_adversary=SilentAdversary,
            n_trials=8,
            seed=7,
            **kwargs,
        )

    @pytest.mark.parametrize("jobs", [3, 4])
    def test_bit_identical_across_n_jobs(self, jobs):
        serial = self._run(n_jobs=1)
        parallel = self._run(n_jobs=jobs)
        assert set(parallel.per_trial) == set(serial.per_trial)
        for key in serial.per_trial:
            assert np.array_equal(
                parallel.per_trial[key], serial.per_trial[key]
            ), key
        assert parallel.strategy_infos == serial.strategy_infos

    def test_chunk_size_does_not_change_results(self):
        serial = self._run(n_jobs=1)
        parallel = self._run(n_jobs=2, chunk_size=1)
        for key in serial.per_trial:
            assert np.array_equal(
                parallel.per_trial[key], serial.per_trial[key]
            ), key

    def test_keep_metrics_in_parallel(self):
        res = self._run(n_jobs=2, keep_metrics=True)
        assert len(res.metrics) == 8
        assert all(m.rounds >= 1 for m in res.metrics)

    def test_all_cores_shorthand(self):
        res = self._run(n_jobs=-1)
        assert res.n_trials == 8


class TestSummaryKeyErrors:
    """Unknown summary keys must fail with a helpful error, not a bare
    KeyError."""

    @pytest.fixture
    def res(self):
        return run_trials(factory(), TrivialStrategy, n_trials=3, seed=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: r.mean("no_such_key"),
            lambda r: r.std("no_such_key"),
            lambda r: r.sem("no_such_key"),
            lambda r: r.ci95("no_such_key"),
            lambda r: r.quantile("no_such_key", 0.5),
            lambda r: r.describe("no_such_key"),
        ],
    )
    def test_unknown_key_raises_configuration_error(self, res, call):
        with pytest.raises(ConfigurationError) as excinfo:
            call(res)
        message = str(excinfo.value)
        assert "no_such_key" in message
        assert "rounds" in message  # lists what IS available


class SleepyStrategy(TrivialStrategy):
    """Stalls inside the engine long enough to trip any sane timeout."""

    def choose_probes(self, round_no, active_players, view):
        import time

        time.sleep(10.0)
        return super().choose_probes(round_no, active_players, view)


class TestTimeout:
    def test_hung_trial_raises_timeout_error(self):
        from repro.errors import TrialTimeoutError

        with pytest.raises(TrialTimeoutError, match="trial 0"):
            run_trials(
                factory(),
                SleepyStrategy,
                n_trials=1,
                seed=0,
                timeout=0.2,
            )

    def test_fast_trials_unaffected_by_timeout(self):
        plain = run_trials(factory(), TrivialStrategy, n_trials=3, seed=5)
        capped = run_trials(
            factory(), TrivialStrategy, n_trials=3, seed=5, timeout=60.0
        )
        for key in plain.per_trial:
            assert np.array_equal(
                plain.per_trial[key], capped.per_trial[key]
            ), key

    def test_hung_trial_raises_in_pool_worker_too(self):
        from repro.errors import TrialTimeoutError

        with pytest.raises(TrialTimeoutError):
            run_trials(
                factory(),
                SleepyStrategy,
                n_trials=2,
                seed=0,
                n_jobs=2,
                timeout=0.2,
            )


class TestBrokenPoolRecovery:
    """Worker crashes must be retried (bit-identically) and, when the
    pool keeps dying, degrade to serial execution instead of failing."""

    def _crash_once_factory(self, flag_path):
        """An instance factory that kills its pool worker on first use."""

        def make(rng):
            import multiprocessing
            import os

            if (
                multiprocessing.parent_process() is not None
                and not os.path.exists(flag_path)
            ):
                with open(flag_path, "w") as handle:
                    handle.write("crashed")
                os._exit(13)  # hard-kill the worker: BrokenProcessPool
            return planted_instance(
                n=16, m=16, beta=0.25, alpha=0.75, rng=rng
            )

        return make

    def test_retry_after_worker_crash_is_bit_identical(self, tmp_path):
        flag = str(tmp_path / "crashed.flag")
        clean = run_trials(factory(), TrivialStrategy, n_trials=6, seed=11)
        recovered = run_trials(
            self._crash_once_factory(flag),
            TrivialStrategy,
            n_trials=6,
            seed=11,
            n_jobs=2,
            max_retries=2,
            backoff_base=0.0,
        )
        import os

        assert os.path.exists(flag)  # the crash really happened
        for key in clean.per_trial:
            assert np.array_equal(
                recovered.per_trial[key], clean.per_trial[key]
            ), key

    def test_degrades_to_serial_when_pool_keeps_dying(self):
        def always_crash_in_child(rng):
            import multiprocessing
            import os

            if multiprocessing.parent_process() is not None:
                os._exit(13)
            return planted_instance(
                n=16, m=16, beta=0.25, alpha=0.75, rng=rng
            )

        clean = run_trials(factory(), TrivialStrategy, n_trials=4, seed=3)
        with pytest.warns(RuntimeWarning, match="degrading to serial"):
            degraded = run_trials(
                always_crash_in_child,
                TrivialStrategy,
                n_trials=4,
                seed=3,
                n_jobs=2,
                max_retries=1,
                backoff_base=0.0,
            )
        for key in clean.per_trial:
            assert np.array_equal(
                degraded.per_trial[key], clean.per_trial[key]
            ), key

    def test_each_trial_checkpointed_once_after_a_crash(self, tmp_path):
        """A rebuilt pool re-submits only unharvested chunks, so the
        checkpoint hook sees each trial exactly once even when a worker
        died mid-sweep."""
        import json
        import os

        flag = str(tmp_path / "crashed.flag")
        path = str(tmp_path / "sweep.ckpt")
        run_trials(
            self._crash_once_factory(flag),
            TrivialStrategy,
            n_trials=8,
            seed=11,
            n_jobs=2,
            chunk_size=2,
            max_retries=2,
            backoff_base=0.0,
            checkpoint_path=path,
        )
        assert os.path.exists(flag)  # the crash really happened
        with open(path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        indexes = [entry["index"] for entry in lines[1:]]  # line 1: header
        assert sorted(indexes) == list(range(8))

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            run_trials(
                factory(), TrivialStrategy, n_trials=2, seed=0,
                max_retries=-1,
            )


class TestCheckpoint:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        plain = run_trials(factory(), TrivialStrategy, n_trials=5, seed=2)
        checked = run_trials(
            factory(), TrivialStrategy, n_trials=5, seed=2,
            checkpoint_path=path,
        )
        for key in plain.per_trial:
            assert np.array_equal(
                checked.per_trial[key], plain.per_trial[key]
            ), key

    def test_interrupted_run_resumes_bit_identically(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        calls = {"n": 0}

        def poisoned(rng):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("simulated crash mid-sweep")
            return planted_instance(
                n=16, m=16, beta=0.25, alpha=0.75, rng=rng
            )

        with pytest.raises(RuntimeError, match="mid-sweep"):
            run_trials(
                poisoned, TrivialStrategy, n_trials=6, seed=4,
                checkpoint_path=path,
            )
        # the first three trials were persisted before the crash
        resumed = run_trials(
            factory(), TrivialStrategy, n_trials=6, seed=4,
            checkpoint_path=path,
        )
        uninterrupted = run_trials(
            factory(), TrivialStrategy, n_trials=6, seed=4
        )
        for key in uninterrupted.per_trial:
            assert np.array_equal(
                resumed.per_trial[key], uninterrupted.per_trial[key]
            ), key

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_trials(
            factory(), TrivialStrategy, n_trials=4, seed=8,
            checkpoint_path=path,
        )
        calls = {"n": 0}

        def counting(rng):
            calls["n"] += 1
            return planted_instance(
                n=16, m=16, beta=0.25, alpha=0.75, rng=rng
            )

        res = run_trials(
            counting, TrivialStrategy, n_trials=4, seed=8,
            checkpoint_path=path,
        )
        assert calls["n"] == 0  # everything loaded, nothing re-run
        assert res.n_trials == 4

    def test_seed_mismatch_refused(self, tmp_path):
        from repro.errors import CheckpointError

        path = str(tmp_path / "sweep.jsonl")
        run_trials(
            factory(), TrivialStrategy, n_trials=4, seed=8,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="different sweep"):
            run_trials(
                factory(), TrivialStrategy, n_trials=4, seed=9,
                checkpoint_path=path,
            )

    def test_trial_count_mismatch_refused(self, tmp_path):
        from repro.errors import CheckpointError

        path = str(tmp_path / "sweep.jsonl")
        run_trials(
            factory(), TrivialStrategy, n_trials=4, seed=8,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="different sweep"):
            run_trials(
                factory(), TrivialStrategy, n_trials=5, seed=8,
                checkpoint_path=path,
            )

    def test_keep_metrics_conflict_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(ConfigurationError, match="keep_metrics"):
            run_trials(
                factory(), TrivialStrategy, n_trials=2, seed=0,
                checkpoint_path=path, keep_metrics=True,
            )

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        """A sweep killed mid-append leaves a partial last line; resume
        must shrug it off and re-run that trial."""
        path = str(tmp_path / "sweep.jsonl")
        run_trials(
            factory(), TrivialStrategy, n_trials=4, seed=8,
            checkpoint_path=path,
        )
        with open(path) as handle:
            content = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(content[:-1]) + "\n")
            handle.write(content[-1][: len(content[-1]) // 2])  # torn write
        resumed = run_trials(
            factory(), TrivialStrategy, n_trials=4, seed=8,
            checkpoint_path=path,
        )
        plain = run_trials(factory(), TrivialStrategy, n_trials=4, seed=8)
        for key in plain.per_trial:
            assert np.array_equal(
                resumed.per_trial[key], plain.per_trial[key]
            ), key

    def test_parallel_run_checkpoints_too(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        res = run_trials(
            factory(), TrivialStrategy, n_trials=6, seed=2, n_jobs=2,
            checkpoint_path=path,
        )
        import json

        with open(path) as handle:
            lines = [json.loads(l) for l in handle.read().splitlines() if l]
        assert lines[0]["kind"] == "header"
        assert sorted(e["index"] for e in lines[1:]) == list(range(6))
        plain = run_trials(factory(), TrivialStrategy, n_trials=6, seed=2)
        for key in plain.per_trial:
            assert np.array_equal(
                res.per_trial[key], plain.per_trial[key]
            ), key


class TestFaultPlanThreading:
    """run_trials(fault_plan=...) must be deterministic, parallel-safe,
    and — for null plans — invisible."""

    def _run(self, **kwargs):
        from repro.faults import FaultPlan

        return run_trials(
            factory(),
            TrivialStrategy,
            n_trials=6,
            seed=13,
            fault_plan=FaultPlan(
                post_loss_rate=0.3, crash_rate=0.1, restart_after=2
            ),
            **kwargs,
        )

    def test_null_plan_bit_identical_to_no_plan(self):
        from repro.faults import FaultPlan

        bare = run_trials(factory(), TrivialStrategy, n_trials=5, seed=6)
        null = run_trials(
            factory(), TrivialStrategy, n_trials=5, seed=6,
            fault_plan=FaultPlan(),
        )
        for key in bare.per_trial:
            assert np.array_equal(
                null.per_trial[key], bare.per_trial[key]
            ), key

    def test_faults_change_results_but_reproducibly(self):
        clean = run_trials(factory(), TrivialStrategy, n_trials=6, seed=13)
        faulty_a, faulty_b = self._run(), self._run()
        for key in clean.per_trial:
            assert np.array_equal(
                faulty_a.per_trial[key], faulty_b.per_trial[key]
            ), key
        assert not np.array_equal(
            clean.per_trial["rounds"], faulty_a.per_trial["rounds"]
        )

    def test_fault_runs_bit_identical_serial_vs_parallel(self):
        serial = self._run(n_jobs=1)
        parallel = self._run(n_jobs=2, chunk_size=2)
        for key in serial.per_trial:
            assert np.array_equal(
                serial.per_trial[key], parallel.per_trial[key]
            ), key


class TestCheckpointEnvironment:
    """Environmental checkpoint failures surface as ConfigurationError
    (the CLI turns those into a clean exit-2 message), never as a raw
    OSError traceback mid-sweep."""

    def test_missing_directory_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            run_trials(
                factory(), TrivialStrategy, n_trials=2, seed=1,
                checkpoint_path="/no/such/directory/sweep.jsonl",
            )

    def test_error_names_the_path_and_the_fix(self):
        path = "/no/such/directory/sweep.jsonl"
        with pytest.raises(ConfigurationError) as excinfo:
            run_trials(
                factory(), TrivialStrategy, n_trials=2, seed=1,
                checkpoint_path=path,
            )
        message = str(excinfo.value)
        assert path in message
        assert "writable" in message

    def test_unwritable_directory_is_configuration_error(self, tmp_path):
        import os
        import subprocess

        target = tmp_path / "frozen"
        target.mkdir()
        # Running as root ignores permission bits, so freeze the
        # directory with chattr +i where available; otherwise chmod 500
        # covers the unprivileged case.
        immutable = (
            subprocess.run(
                ["chattr", "+i", str(target)], capture_output=True
            ).returncode
            == 0
        )
        if not immutable:
            target.chmod(0o500)
            if os.access(str(target), os.W_OK):
                pytest.skip("cannot produce an unwritable directory here")
        try:
            with pytest.raises(ConfigurationError, match="checkpoint"):
                run_trials(
                    factory(), TrivialStrategy, n_trials=2, seed=1,
                    checkpoint_path=str(target / "sweep.jsonl"),
                )
        finally:
            if immutable:
                subprocess.run(
                    ["chattr", "-i", str(target)], capture_output=True
                )
            else:
                target.chmod(0o700)
