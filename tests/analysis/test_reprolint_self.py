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

from repro.lint import lint_paths, lint_project
from repro.lint.cli import main

ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


def repo_paths():
    return [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]


class TestRepoIsClean:
    def test_repo_lints_entry_free(self):
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            violations = lint_paths(["src", "tests"])
        finally:
            os.chdir(cwd)
        assert not violations, "determinism-contract violations:\n" + (
            "\n".join(v.render() for v in violations)
        )

    def test_repo_clean_under_project_rules(self):
        # the cross-file families (RPL011-RPL014) must hold repo-wide,
        # not just the per-file rules lint_paths covers
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            violations = lint_project(["src", "tests"], cache_path=None)
        finally:
            os.chdir(cwd)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_every_inline_suppression_carries_a_reason(self):
        # RPL009 runs unconditionally, so a clean tree implies every
        # `# repro: noqa` in it has a reason; make that explicit here
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            bare = [
                v
                for v in lint_paths(["src", "tests"], select=["RPL009"])
            ]
        finally:
            os.chdir(cwd)
        assert bare == []


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
        violations = lint_paths([str(bad)])
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
