"""Fixture tests for the cross-file rule families (RPL011–RPL014).

Each test builds a miniature project in ``tmp_path`` and runs the full
two-phase :func:`lint_project` over it from that directory, so the same
code paths CI exercises — summary extraction, model build, checker,
suppression, select filter — are the ones under test. The gate-has-teeth
class at the bottom proves the two seeded regressions the rules were
built for (a counter-name typo, a dropped ``on_player_restart`` twin
hook) actually fail the CLI gate with exit code 1.
"""

import textwrap

from repro.lint import lint_project
from repro.lint.cli import main


def run_lint(tmp_path, monkeypatch, files, select=None):
    """Write ``files`` under tmp_path, chdir there, lint ``pkg/``."""
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    monkeypatch.chdir(tmp_path)
    return lint_project(["pkg"], select=select, cache_path=None)


class TestStreamFlow:
    """RPL011: SeedSequence.spawn plumbing."""

    def test_unpack_count_mismatch(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/run.py": """\
                import numpy as np

                def run(seed):
                    world_ss, honest_ss = np.random.SeedSequence(seed).spawn(3)
                    return world_ss, honest_ss
                """
            },
            select=["RPL011"],
        )
        assert [v.code for v in violations] == ["RPL011"]
        assert "spawn(3) unpacked into 2 names" in violations[0].message

    def test_index_past_spawn_count(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/run.py": """\
                import numpy as np

                def run(seed):
                    streams = np.random.SeedSequence(seed).spawn(2)
                    return streams[2]
                """
            },
            select=["RPL011"],
        )
        assert [v.code for v in violations] == ["RPL011"]
        assert "out of range" in violations[0].message

    def test_spare_stream_collision(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/run.py": """\
                import numpy as np

                def run(seed):
                    streams = np.random.SeedSequence(seed).spawn(3)
                    fault_rng = np.random.default_rng(streams[2])
                    extra_rng = np.random.default_rng(streams[2])
                    return fault_rng, extra_rng
                """
            },
            select=["RPL011"],
        )
        assert [v.code for v in violations] == ["RPL011"]
        assert "spare-stream collision" in violations[0].message

    def test_child_feeding_two_consumers(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/run.py": """\
                import numpy as np

                def run(seed, make_world, make_engine):
                    world_ss, honest_ss = np.random.SeedSequence(seed).spawn(2)
                    inst = make_world(world_ss)
                    engine = make_engine(world_ss)
                    return inst, engine, honest_ss
                """
            },
            select=["RPL011"],
        )
        assert [v.code for v in violations] == ["RPL011"]
        assert "correlates both components" in violations[0].message

    def test_clean_spawn_discipline_passes(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/run.py": """\
                import numpy as np

                def run(seed, make_world, make_engine):
                    world_ss, honest_ss = np.random.SeedSequence(seed).spawn(2)
                    inst = make_world(world_ss)
                    engine = make_engine(inst, honest_ss)
                    return engine
                """
            },
            select=["RPL011"],
        )
        assert violations == []

    def test_noqa_with_reason_suppresses(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/run.py": """\
                import numpy as np

                def run(seed):
                    a, b = np.random.SeedSequence(seed).spawn(3)  # repro: noqa=RPL011(third stream reserved for PR 12)
                    return a, b
                """
            },
            select=["RPL011"],
        )
        assert violations == []


KNOB_CONFIG = """\
import os

JOBS_ENV_VAR = "REPRO_FIX_JOBS"


def default_jobs():
    return int(os.environ.get(JOBS_ENV_VAR, "1"))
"""

KNOB_CLI = """\
import argparse


def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--jobs", type=int, help="worker count (overrides REPRO_FIX_JOBS)"
    )
    return parser
"""

KNOB_DOC = "Set `REPRO_FIX_JOBS` to pick the default worker count.\n"


class TestKnobTrio:
    """RPL012: env var + CLI flag + resolver + docs, or else."""

    def test_complete_trio_passes(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/config.py": KNOB_CONFIG,
                "pkg/cli.py": KNOB_CLI,
                "docs/configuration.md": KNOB_DOC,
            },
            select=["RPL012"],
        )
        assert violations == []

    def test_missing_legs_are_named(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {"pkg/config.py": KNOB_CONFIG},
            select=["RPL012"],
        )
        assert [v.code for v in violations] == ["RPL012"]
        message = violations[0].message
        assert "REPRO_FIX_JOBS" in message
        assert "CLI flag" in message
        assert "docs/ mention" in message
        assert "resolve" not in message  # the reader leg IS present

    def test_flag_without_resolver_flagged(self, tmp_path, monkeypatch):
        config = KNOB_CONFIG.replace("def default_jobs", "def read_jobs")
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/config.py": config,
                "pkg/cli.py": KNOB_CLI,
                "docs/configuration.md": KNOB_DOC,
            },
            select=["RPL012"],
        )
        assert [v.code for v in violations] == ["RPL012"]
        assert "default_*/resolve_* reader" in violations[0].message

    def test_bare_env_var_needs_docs(self, tmp_path, monkeypatch):
        worker = """\
        import os


        def read_token():
            return os.environ.get("REPRO_FIX_TOKEN", "")
        """
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {"pkg/worker.py": worker},
            select=["RPL012"],
        )
        assert [v.code for v in violations] == ["RPL012"]
        assert "documented nowhere" in violations[0].message

        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/worker.py": worker,
                "docs/ops.md": "Workers read `REPRO_FIX_TOKEN`.\n",
            },
            select=["RPL012"],
        )
        assert violations == []


REGISTRY = """\
DECLARED_COUNTERS = frozenset({
    "exec.worker_lost",
    "faults.dropped_posts",
})

DECLARED_TIMERS = frozenset({
    "runner.run_trials",
})

DYNAMIC_COUNTER_PREFIXES = ("faults.",)
"""

COUNTER_SITES = """\
def on_worker_lost(obs):
    obs.counter("exec.worker_lost")


def on_fault(obs, kind):
    obs.counter(f"faults.{kind}")


def run_trials(obs):
    with obs.timer("runner.run_trials"):
        pass
"""

OBS_DOC = """\
| counter | meaning |
| --- | --- |
| `exec.worker_lost` | worker lease expired |
| `faults.dropped_posts` | posts dropped by fault injection |
| `runner.run_trials` | wall time of a trial batch |
"""


class TestCounterRegistry:
    """RPL013: call sites <-> declared registry <-> doc catalogue."""

    def test_round_trip_passes(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/names.py": REGISTRY,
                "pkg/sites.py": COUNTER_SITES,
                "docs/observability.md": OBS_DOC,
            },
            select=["RPL013"],
        )
        assert violations == []

    def test_undeclared_call_site(self, tmp_path, monkeypatch):
        sites = COUNTER_SITES + (
            "\n\ndef oops(obs):\n"
            '    obs.counter("exec.worker_losst")\n'
        )
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/names.py": REGISTRY,
                "pkg/sites.py": sites,
                "docs/observability.md": OBS_DOC,
            },
            select=["RPL013"],
        )
        assert [v.code for v in violations] == ["RPL013"]
        assert "exec.worker_losst" in violations[0].message
        assert "not declared" in violations[0].message

    def test_stale_declaration(self, tmp_path, monkeypatch):
        registry = REGISTRY.replace(
            '"exec.worker_lost",',
            '"exec.worker_lost",\n    "exec.retired_counter",',
        )
        doc = OBS_DOC + "| `exec.retired_counter` | gone |\n"
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/names.py": registry,
                "pkg/sites.py": COUNTER_SITES,
                "docs/observability.md": doc,
            },
            select=["RPL013"],
        )
        assert [v.code for v in violations] == ["RPL013"]
        assert "incremented nowhere" in violations[0].message

    def test_documented_but_not_declared(self, tmp_path, monkeypatch):
        doc = OBS_DOC + "| `exec.ghost` | never existed |\n"
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/names.py": REGISTRY,
                "pkg/sites.py": COUNTER_SITES,
                "docs/observability.md": doc,
            },
            select=["RPL013"],
        )
        assert [v.code for v in violations] == ["RPL013"]
        assert violations[0].path == "docs/observability.md"
        assert "exec.ghost" in violations[0].message

    def test_dynamic_site_outside_prefixes(self, tmp_path, monkeypatch):
        sites = COUNTER_SITES + (
            "\n\ndef rogue(obs, kind):\n"
            '    obs.counter(f"mystery.{kind}")\n'
        )
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/names.py": REGISTRY,
                "pkg/sites.py": sites,
                "docs/observability.md": OBS_DOC,
            },
            select=["RPL013"],
        )
        assert [v.code for v in violations] == ["RPL013"]
        assert "DYNAMIC_COUNTER_PREFIXES" in violations[0].message

    def test_noqa_with_reason_suppresses(self, tmp_path, monkeypatch):
        sites = COUNTER_SITES + (
            "\n\ndef legacy(obs):\n"
            '    obs.counter("exec.legacy_name")  '
            "# repro: noqa=RPL013(emitted for dashboards pinned upstream)\n"
        )
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/names.py": REGISTRY,
                "pkg/sites.py": sites,
                "docs/observability.md": OBS_DOC,
            },
            select=["RPL013"],
        )
        assert violations == []


PARITY_BASE = """\
class Strategy:
    def reset(self, instance, rng):
        pass

    def on_player_restart(self, player):
        pass


class BatchedStrategy:
    def reset_lanes(self, instances, rngs):
        pass
"""

PARITY_SCALAR = """\
from pkg.base import Strategy


class CarefulStrategy(Strategy):
    def choose_probes(self, round_no, view):
        return []

    def on_player_restart(self, player):
        self.fresh = True

    def make_batched(self, n_lanes):
        from pkg.batched import BatchedCareful

        return BatchedCareful(n_lanes)
"""

PARITY_TWIN_FULL = """\
from pkg.base import BatchedStrategy


class BatchedCareful(BatchedStrategy):
    def choose_probes_batch(self, round_no, views):
        return []

    def on_player_restart(self, lane, player):
        pass
"""


class TestBatchedParity:
    """RPL014: make_batched twins must cover the scalar hook surface."""

    def test_full_surface_passes(self, tmp_path, monkeypatch):
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/base.py": PARITY_BASE,
                "pkg/scalar.py": PARITY_SCALAR,
                "pkg/batched.py": PARITY_TWIN_FULL,
            },
            select=["RPL014"],
        )
        assert violations == []

    def test_dropped_hook_is_flagged(self, tmp_path, monkeypatch):
        twin = PARITY_TWIN_FULL.replace(
            "    def on_player_restart(self, lane, player):\n        pass\n",
            "",
        )
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/base.py": PARITY_BASE,
                "pkg/scalar.py": PARITY_SCALAR,
                "pkg/batched.py": twin,
            },
            select=["RPL014"],
        )
        assert [v.code for v in violations] == ["RPL014"]
        assert "on_player_restart" in violations[0].message
        assert violations[0].path == "pkg/batched.py"

    def test_unresolvable_twin_is_flagged(self, tmp_path, monkeypatch):
        scalar = PARITY_SCALAR.replace("BatchedCareful", "BatchedGhost")
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/base.py": PARITY_BASE,
                "pkg/scalar.py": scalar,
                "pkg/batched.py": PARITY_TWIN_FULL,
            },
            select=["RPL014"],
        )
        assert [v.code for v in violations] == ["RPL014"]
        assert "BatchedGhost" in violations[0].message
        assert "not a class this project defines" in violations[0].message

    def test_ancestor_provided_hook_counts(self, tmp_path, monkeypatch):
        # the PerLane* pattern: a forwarding adapter between the root and
        # the twin provides the hooks, so the twin itself stays empty
        adapter = """\
        from pkg.base import BatchedStrategy


        class PerLaneStrategy(BatchedStrategy):
            def choose_probes_batch(self, round_no, views):
                return []

            def on_player_restart(self, lane, player):
                pass


        class BatchedCareful(PerLaneStrategy):
            pass
        """
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/base.py": PARITY_BASE,
                "pkg/scalar.py": PARITY_SCALAR,
                "pkg/batched.py": textwrap.dedent(adapter),
            },
            select=["RPL014"],
        )
        assert violations == []

    def test_protocol_default_creates_no_contract(self, tmp_path, monkeypatch):
        # a scalar that never overrides on_player_restart itself relies
        # on the Strategy default; the twin owes nothing for that hook
        scalar = PARITY_SCALAR.replace(
            "    def on_player_restart(self, player):\n"
            "        self.fresh = True\n\n",
            "",
        )
        twin = PARITY_TWIN_FULL.replace(
            "    def on_player_restart(self, lane, player):\n        pass\n",
            "",
        )
        violations = run_lint(
            tmp_path,
            monkeypatch,
            {
                "pkg/base.py": PARITY_BASE,
                "pkg/scalar.py": scalar,
                "pkg/batched.py": twin,
            },
            select=["RPL014"],
        )
        assert violations == []


class TestGateHasTeethProjectRules:
    """The two seeded regressions must fail the CLI gate, exit code 1."""

    def write(self, tmp_path, files):
        for rel, content in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(content))

    def test_seeded_counter_typo_fails_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        sites = COUNTER_SITES.replace(
            '"exec.worker_lost"', '"exec.worker_losst"'
        )
        self.write(
            tmp_path,
            {
                "pkg/names.py": REGISTRY,
                "pkg/sites.py": sites,
                "docs/observability.md": OBS_DOC,
            },
        )
        monkeypatch.chdir(tmp_path)
        code = main(["pkg", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPL013" in out
        assert "exec.worker_losst" in out

    def test_dropped_restart_hook_fails_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        twin = PARITY_TWIN_FULL.replace(
            "    def on_player_restart(self, lane, player):\n        pass\n",
            "",
        )
        self.write(
            tmp_path,
            {
                "pkg/base.py": PARITY_BASE,
                "pkg/scalar.py": PARITY_SCALAR,
                "pkg/batched.py": twin,
            },
        )
        monkeypatch.chdir(tmp_path)
        code = main(["pkg", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPL014" in out
        assert "on_player_restart" in out
