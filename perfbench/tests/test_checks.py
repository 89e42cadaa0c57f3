"""The output checks have teeth: perturbed results and writes must fail."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import serveload as sl
import sims

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture(scope="module")
def small_unit():
    return sims.run_phase(sims.scalar_e3_calls(4, n=128, calls=2, trials=2), 0.0, max_reps=2)


def test_repetitions_reproduce_the_digest(small_unit):
    assert len(set(small_unit.digests)) == 1
    assert sims.check_phase(small_unit, None) == []
    assert sims.check_phase(small_unit, small_unit.digests[0]) == []


def test_a_perturbed_per_trial_value_fails_the_gate(small_unit):
    committed = small_unit.digests[0]
    result = small_unit.results[1]
    column = result.per_trial["mean_individual_probes"]
    saved = column.copy()
    try:
        column[0] = np.nextafter(column[0], np.inf)
        perturbed = sims.results_digest(small_unit.results)
    finally:
        column[:] = saved
    assert perturbed != committed
    small_unit.digests.append(perturbed)
    try:
        assert sims.check_phase(small_unit, committed)
    finally:
        small_unit.digests.pop()


def test_committed_digests_cover_the_default_and_a_held_out_seed():
    with open(sims.DIGESTS_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    assert set(table) == set(sims.SIM_WORKLOADS)
    assert all(set(seeds) == {"0", "1"} for seeds in table.values())


def test_wrong_committed_digest_makes_the_command_fail(tmp_path):
    """End to end: a checkout whose committed digest disagrees with what
    the program computes exits non-zero with ``correct: false``."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    digests = tmp_path / "perfbench" / "digests.json"
    table = json.loads(digests.read_text())
    table["scalar_e3"]["0"] = "0" * 64
    digests.write_text(json.dumps(table))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar_e3", "--seed", "0", "--seconds", "0.1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_replay_check_catches_a_lost_write():
    from repro.serve import ServeConfig, ServiceThread

    with ServiceThread(ServeConfig(n_players=sl.N_PLAYERS, n_objects=sl.N_OBJECTS)) as running:
        client = sl.Client(running.address, seed=9)
        try:
            stats = client.drive(ops=sl.TICK_EVERY * 2)
            assert stats.failed == 0 and stats.replies() == 2 * sl.TICK_EVERY * 2
            assert sl.replay_check(client) == []
            first_vote = next(i for i, (label, _b) in enumerate(client.applied) if label == "vote")
            del client.applied[first_vote]
            assert sl.replay_check(client)
        finally:
            client.close()


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar_e3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["sparse_1e5", "serve_mixed"])
def test_a_run_past_its_deadline_fails_and_leaves_no_process(workload, monkeypatch, capsys):
    import run

    started = []
    popen = subprocess.Popen

    def tracked(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", tracked)
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 1)
    assert run.run_once(workload, 5, 10.0, False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert started and all(proc.poll() is not None for proc in started)
