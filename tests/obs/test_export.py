"""The unified observation JSONL schema: write, load, summarize, diff."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import (
    Observations,
    diff_observations,
    informational_differences,
    load_observations,
    observation_lines,
    render_summary,
    summarize,
    write_observations,
)
from repro.obs.manifest import collect_manifest
from repro.obs.registry import Registry
from repro.sim.trace import Trace


def _registry():
    registry = Registry()
    registry.counter("engine.rounds").add(12)
    registry.counter("billboard.posts_honest").add(34)
    registry.timer("runner.run_trials").add(0.5, count=1)
    return registry


class TestLines:
    def test_every_line_is_typed_json(self):
        lines = observation_lines(
            manifest=collect_manifest(seed=9), registry=_registry()
        )
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds[0] == "manifest"
        assert set(kinds[1:]) <= {"counter", "timer"}

    def test_trace_events_keep_their_payload(self):
        trace = Trace()
        trace.record(0, "vote", player=3, object=1)
        lines = observation_lines(traces=[(7, trace)])
        record = json.loads(lines[0])
        assert record["type"] == "trace"
        assert record["trial"] == 7
        assert record["round"] == 0
        assert record["kind"] == "vote"
        assert record["player"] == 3

    def test_empty_inputs_give_no_lines(self):
        assert observation_lines() == []


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        manifest = collect_manifest(seed=3, n_trials=4)
        write_observations(path, manifest=manifest, registry=_registry())

        loaded = load_observations(path)
        assert loaded.manifest == manifest
        assert loaded.counters == {
            "billboard.posts_honest": 34,
            "engine.rounds": 12,
        }
        assert loaded.timers == {"runner.run_trials": (1, 0.5)}

    def test_manifest_line_round_trips_bit_identically(self, tmp_path):
        """The golden JSONL contract: write → load → write reproduces the
        manifest line byte for byte."""
        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        manifest = collect_manifest(seed=11, n_trials=2)
        write_observations(path_a, manifest=manifest)
        write_observations(path_b, manifest=load_observations(path_a).manifest)
        with open(path_a, "rb") as a, open(path_b, "rb") as b:
            assert a.read() == b.read()

    def test_missing_file_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_observations("/no/such/observations.jsonl")

    def test_malformed_line_is_configuration_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "counter", "name": "x", "value": 1}\nnot json\n')
        with pytest.raises(ConfigurationError, match="line 2"):
            load_observations(str(path))

    def test_unknown_type_is_configuration_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ConfigurationError, match="unknown record type"):
            load_observations(str(path))


class TestSummary:
    def test_groups_by_phase(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_observations(path, registry=_registry())
        summary = summarize(load_observations(path))
        assert sorted(summary["phases"]) == ["billboard", "engine", "runner"]
        engine = summary["phases"]["engine"]
        assert engine["counters"] == {"engine.rounds": 12}
        runner = summary["phases"]["runner"]
        assert runner["timers"]["runner.run_trials"]["count"] == 1

    def test_summary_is_json_safe(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_observations(
            path, manifest=collect_manifest(seed=1), registry=_registry()
        )
        json.dumps(summarize(load_observations(path)))

    def test_render_mentions_every_metric(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_observations(
            path, manifest=collect_manifest(seed=1), registry=_registry()
        )
        text = render_summary(load_observations(path))
        for needle in (
            "engine.rounds",
            "billboard.posts_honest",
            "runner.run_trials",
            "config_hash",
        ):
            assert needle in text


class TestDiff:
    def test_identical_files_have_no_differences(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_observations(
            path, manifest=collect_manifest(seed=5), registry=_registry()
        )
        data = load_observations(path)
        assert diff_observations(data, data) == []

    def test_counter_and_manifest_differences_reported(self, tmp_path):
        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        other = Registry()
        other.counter("engine.rounds").add(99)
        write_observations(
            path_a, manifest=collect_manifest(seed=5), registry=_registry()
        )
        write_observations(
            path_b, manifest=collect_manifest(seed=6), registry=other
        )
        report = "\n".join(
            diff_observations(load_observations(path_a), load_observations(path_b))
        )
        assert "manifest.seed_entropy" in report
        assert "counter engine.rounds" in report
        assert "counter billboard.posts_honest" in report


class TestExecutorFieldIsReportingOnly:
    """Which backend ran the trials never changes the results, so the
    manifest's ``executor`` field must not flip a diff verdict — two
    runs of one seed on different backends claim the same identity."""

    @staticmethod
    def _observations(executor):
        from dataclasses import replace

        manifest = replace(collect_manifest(seed=5), executor=executor)
        return Observations(manifest=manifest, counters={"engine.rounds": 3})

    def test_backend_difference_is_not_an_identity_diff(self):
        serial = self._observations({"backend": "serial", "workers": []})
        pool = self._observations(
            {"backend": "local", "workers": ["w0", "w1"], "retries": 1}
        )
        assert diff_observations(serial, pool) == []

    def test_backend_difference_is_reported_informationally(self):
        serial = self._observations({"backend": "serial"})
        pool = self._observations({"backend": "local"})
        notes = informational_differences(serial, pool)
        assert len(notes) == 1
        assert "manifest.executor" in notes[0]
        assert "reporting only" in notes[0]

    def test_identical_executors_have_no_notes(self):
        a = self._observations({"backend": "local"})
        b = self._observations({"backend": "local"})
        assert informational_differences(a, b) == []

    def test_real_differences_still_flagged(self):
        from dataclasses import replace

        a = self._observations({"backend": "serial"})
        b = Observations(
            manifest=replace(
                collect_manifest(seed=6),
                executor={"backend": "local"},
            ),
            counters={"engine.rounds": 4},
        )
        report = "\n".join(diff_observations(a, b))
        assert "manifest.seed_entropy" in report
        assert "counter engine.rounds" in report
        assert "manifest.executor" not in report

    def test_exec_counters_are_not_an_identity_diff(self):
        """A serial run records no exec.* counters; a pool run that lost
        a worker records the loss and the rebuild. Same computation, so
        no verdict."""
        serial = self._observations({"backend": "serial"})
        pool = Observations(
            manifest=serial.manifest,
            counters={
                "engine.rounds": 3,
                "exec.worker_lost": 1,
                "exec.retries": 1,
            },
        )
        assert diff_observations(serial, pool) == []
        notes = "\n".join(informational_differences(serial, pool))
        assert "counter exec.worker_lost (reporting only)" in notes
        assert "counter exec.retries (reporting only)" in notes

    def test_non_exec_counter_differences_still_flag(self):
        a = self._observations({"backend": "serial"})
        b = Observations(
            manifest=a.manifest,
            counters={"engine.rounds": 3, "exec.worker_lost": 1,
                      "trial.completed": 9},
        )
        report = "\n".join(diff_observations(a, b))
        assert "counter trial.completed" in report
        assert "exec.worker_lost" not in report
