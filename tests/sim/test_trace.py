"""Tests for the trace subsystem and the replay audit."""

import json

import numpy as np
import pytest

from repro.adversaries.flood import FloodAdversary
from repro.core.distill import DistillStrategy
from repro.errors import ConfigurationError
from repro.sim.engine import EngineConfig, SynchronousEngine
from repro.sim.trace import Trace, replay_metrics
from repro.world.generators import planted_instance


def traced_run(seed=3, alpha=0.6, adversary=True):
    world_ss, honest_ss, adversary_ss = np.random.SeedSequence(seed).spawn(3)
    inst = planted_instance(
        n=64, m=64, beta=1 / 8, alpha=alpha,
        rng=np.random.default_rng(world_ss),
    )
    engine = SynchronousEngine(
        inst,
        DistillStrategy(),
        adversary=FloodAdversary() if adversary else None,
        rng=np.random.default_rng(honest_ss),
        adversary_rng=np.random.default_rng(adversary_ss),
        config=EngineConfig(trace=True),
    )
    metrics = engine.run()
    return inst, engine, metrics


class TestTraceBasics:
    def test_record_and_iterate(self):
        trace = Trace()
        trace.record(0, "probes", players=[1], objects=[2], values=[0.0])
        trace.record(1, "halt", players=[1])
        assert len(trace) == 2
        kinds = [e.kind for e in trace]
        assert kinds == ["probes", "halt"]

    def test_seq_is_monotone(self):
        trace = Trace()
        for i in range(5):
            trace.record(i, "probes", players=[], objects=[], values=[])
        assert [e.seq for e in trace] == list(range(5))

    def test_counts(self):
        trace = Trace()
        trace.record(0, "vote", player=1, object=2)
        trace.record(0, "vote", player=2, object=2)
        trace.record(1, "halt", players=[1])
        assert trace.counts() == {"vote": 2, "halt": 1}

    def test_jsonl_round_trips(self):
        trace = Trace()
        trace.record(0, "vote", player=1, object=2)
        lines = trace.to_jsonl().splitlines()
        parsed = json.loads(lines[0])
        assert parsed["kind"] == "vote"
        assert parsed["player"] == 1

    def test_write_jsonl(self, tmp_path):
        trace = Trace()
        trace.record(0, "halt", players=[0])
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        assert path.read_text().strip()

    def test_replay_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            replay_metrics(Trace(), 4, np.zeros(4, dtype=bool))


class TestEngineTracing:
    def test_disabled_by_default(self):
        inst = planted_instance(
            n=8, m=8, beta=0.25, alpha=1.0, rng=np.random.default_rng(0)
        )
        engine = SynchronousEngine(inst, DistillStrategy())
        assert engine.trace is None

    def test_events_recorded(self):
        _inst, engine, _metrics = traced_run()
        counts = engine.trace.counts()
        assert counts["probes"] >= 1
        assert counts["vote"] >= 1
        assert counts["halt"] >= 1
        assert counts["adversary"] >= 1

    def test_adversary_events_tag_dishonest_players(self):
        inst, engine, _metrics = traced_run()
        for event in engine.trace.of_kind("adversary"):
            assert not inst.honest_mask[event.payload["player"]]

    def test_replay_audit_matches_engine_books(self):
        """The core audit: metrics recomputed from the event stream must
        equal the engine's own accounting."""
        inst, engine, metrics = traced_run(seed=11)
        probes, satisfied, halted = replay_metrics(
            engine.trace, inst.n, inst.space.good_mask
        )
        assert np.array_equal(probes, metrics.probes)
        assert np.array_equal(satisfied, metrics.satisfied_round)
        assert np.array_equal(halted, metrics.halted_round)

    def test_replay_audit_without_adversary(self):
        inst, engine, metrics = traced_run(seed=13, adversary=False)
        probes, satisfied, halted = replay_metrics(
            engine.trace, inst.n, inst.space.good_mask
        )
        assert np.array_equal(probes, metrics.probes)
        assert np.array_equal(satisfied, metrics.satisfied_round)

    def test_vote_events_match_board(self):
        inst, engine, _metrics = traced_run(seed=17)
        traced_votes = {
            (e.payload["player"], e.payload["object"])
            for e in engine.trace.of_kind("vote")
        }
        honest_board_votes = {
            (p.player, p.object_id)
            for p in engine.board.vote_posts()
            if inst.honest_mask[p.player]
        }
        assert traced_votes == honest_board_votes


class TestFaultTracing:
    """Fault events (drops, crashes, restarts) must appear in the
    structured trace, and traced fault runs must be identical serial vs
    parallel for a fixed seed."""

    def faulty_run(self, plan, seed=3):
        from repro.faults import FaultInjector

        world_ss, honest_ss, adversary_ss, fault_ss = np.random.SeedSequence(
            seed
        ).spawn(4)
        inst = planted_instance(
            n=32, m=32, beta=1 / 8, alpha=0.75,
            rng=np.random.default_rng(world_ss),
        )
        engine = SynchronousEngine(
            inst,
            DistillStrategy(),
            rng=np.random.default_rng(honest_ss),
            adversary_rng=np.random.default_rng(adversary_ss),
            config=EngineConfig(trace=True, max_rounds=5000),
            fault_injector=FaultInjector(
                plan, np.random.default_rng(fault_ss)
            ),
        )
        metrics = engine.run()
        return engine, metrics

    def test_drop_events_recorded_and_counted(self):
        from repro.faults import FaultPlan

        engine, metrics = self.faulty_run(FaultPlan(post_loss_rate=0.5))
        drops = engine.trace.of_kind("fault_drop")
        assert len(drops) == metrics.fault_info["dropped_posts"] > 0
        for event in drops:
            assert "player" in event.payload
            assert "object" in event.payload

    def test_crash_and_restart_events_recorded(self):
        from repro.faults import FaultPlan

        engine, metrics = self.faulty_run(
            FaultPlan(crash_rate=0.05, restart_after=2)
        )
        crashes = engine.trace.of_kind("fault_crash")
        restarts = engine.trace.of_kind("fault_restart")
        crashed = sum(len(e.payload["players"]) for e in crashes)
        restarted = sum(len(e.payload["players"]) for e in restarts)
        assert crashed == metrics.fault_info["crashes"] > 0
        assert restarted == metrics.fault_info["restarts"]

    def test_replay_audit_still_holds_under_faults(self):
        """Fault events never corrupt the probe/halt bookkeeping the
        replay audit checks."""
        from repro.faults import FaultPlan
        from repro.sim.trace import replay_metrics

        engine, metrics = self.faulty_run(
            FaultPlan(post_loss_rate=0.3, crash_rate=0.03, restart_after=3)
        )
        probes, satisfied, halted = replay_metrics(
            engine.trace,
            metrics.n,
            engine.instance.space.good_mask,
        )
        assert np.array_equal(probes, metrics.probes)
        assert np.array_equal(satisfied, metrics.satisfied_round)

    def test_traces_identical_serial_vs_parallel(self):
        """keep_metrics=True carries traces out of pool workers; the
        event streams must match the serial run byte for byte."""
        from repro.faults import FaultPlan
        from repro.sim.runner import run_trials

        def run(n_jobs):
            res = run_trials(
                lambda rng: planted_instance(
                    n=16, m=16, beta=0.25, alpha=0.75, rng=rng
                ),
                DistillStrategy,
                n_trials=4,
                seed=21,
                config=EngineConfig(trace=True),
                keep_metrics=True,
                n_jobs=n_jobs,
                fault_plan=FaultPlan(
                    post_loss_rate=0.3, crash_rate=0.05, restart_after=2
                ),
            )
            return [m.trace.to_jsonl() for m in res.metrics]

        assert run(1) == run(2)
