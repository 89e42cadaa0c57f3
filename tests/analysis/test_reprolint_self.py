"""The pytest-collected determinism-contract gate.

This is the check CI and local runs share: the repo's own ``src`` and
``tests`` trees must lint clean — zero violations, since a violation is
either fixed or carries a reasoned inline noqa. It also pins the gate's
teeth: a seeded violation (the historical ``args.seed + 1`` bug) must
fail.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint import engine, lint_project
from repro.lint.cli import main
from repro.lint.rules import RawViolation

ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


def repo_paths():
    return [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]


@pytest.fixture(scope="module")
def repo_violations():
    """One whole-tree lint from the repo root, shared by the class below."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return lint_project(["src", "tests"])
    finally:
        os.chdir(cwd)


class TestRepoIsClean:
    def test_repo_lints_entry_free(self, repo_violations):
        assert not repo_violations, "determinism-contract violations:\n" + (
            "\n".join(v.render() for v in repo_violations)
        )

    def test_repo_clean_under_project_rules(self, repo_violations):
        # the cross-file families (RPL011-RPL013) must hold repo-wide,
        # not just the per-file rules
        cross_file = [
            v
            for v in repo_violations
            if v.code in ("RPL011", "RPL012", "RPL013")
        ]
        assert cross_file == [], "\n".join(v.render() for v in cross_file)

    def test_every_inline_suppression_carries_a_reason(self, repo_violations):
        # RPL009 runs unconditionally, so a clean tree implies every
        # `# repro: noqa` in it has a reason; make that explicit here
        assert [v for v in repo_violations if v.code == "RPL009"] == []


class TestGateHasTeeth:
    def test_seeded_violation_fails_the_gate(self, tmp_path):
        # reintroduce the exact bug reprolint caught on day one
        bad = tmp_path / "cli_regression.py"
        bad.write_text(
            "import numpy as np\n"
            "def cmd_show(args):\n"
            "    rng = np.random.default_rng(args.seed + 1)\n"
            "    adversary_rng = np.random.default_rng(args.seed + 2)\n"
            "    return rng, adversary_rng\n"
        )
        violations = lint_project([str(bad)])
        assert [v.code for v in violations] == ["RPL004", "RPL004"]
        assert main([str(bad)]) == 1

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import numpy as np\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert main(["--list-rules"]) == 0
        assert main([str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()

    def test_rerun_applies_the_current_rules(
        self, tmp_path, monkeypatch, capsys
    ):
        # a second run over an unchanged file must report what the rules
        # find now, not what an earlier run found: a tightened rule has
        # to reach files its edit did not touch
        monkeypatch.chdir(tmp_path)
        (tmp_path / "module.py").write_text(
            "import collections\n"
            "def f(seen=collections.OrderedDict()):\n"
            "    return seen\n"
        )
        assert main(["module.py"]) == 0
        capsys.readouterr()

        real_check_tree = engine.check_tree

        def tightened(tree, path):
            return sorted(
                real_check_tree(tree, path)
                + [RawViolation(2, 11, "RPL007", "OrderedDict() default")]
            )

        monkeypatch.setattr(engine, "check_tree", tightened)
        assert main(["module.py"]) == 1
        assert "module.py:2:12: RPL007 OrderedDict() default" in (
            capsys.readouterr().out
        )

    def test_json_report_shape(self, tmp_path, capsys):
        dirty = tmp_path / "module.py"
        dirty.write_text(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        code = main([str(dirty), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["tool"] == "reprolint"
        assert payload["clean"] is False
        assert payload["counts"] == {"RPL003": 1}
        (violation,) = payload["violations"]
        assert violation["code"] == "RPL003"
        assert violation["hint"]
        assert violation["fingerprint"].count("::") == 2

    def test_module_entry_point_runs(self):
        # `python -m repro.lint` is the documented local/CI invocation
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout
