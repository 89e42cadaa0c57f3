"""Documentation/code consistency checks.

A reproduction's docs rot silently; these tests pin the load-bearing
cross-references: every registered experiment appears in DESIGN.md's
index and has a bench file, every bench file regenerates a registered
experiment, and the section map mentions every core module.
"""

import os
import re

from repro.experiments import available_experiments

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def read(*parts):
    with open(os.path.join(ROOT, *parts)) as handle:
        return handle.read()


class TestDesignIndex:
    def test_every_experiment_in_design_index(self):
        design = read("DESIGN.md")
        for eid in available_experiments():
            assert re.search(
                rf"^\| {eid}\s", design, re.M
            ), f"{eid} missing from DESIGN.md's per-experiment index"

    def test_every_experiment_has_a_bench_file(self):
        bench_dir = os.path.join(ROOT, "benchmarks")
        sources = "\n".join(
            read("benchmarks", f)
            for f in os.listdir(bench_dir)
            if f.startswith("bench_") and f.endswith(".py")
        )
        for eid in available_experiments():
            assert (
                f'run_and_record("{eid}")' in sources
            ), f"no bench regenerates {eid}"

    def test_every_bench_regenerates_a_registered_experiment(self):
        bench_dir = os.path.join(ROOT, "benchmarks")
        known = set(available_experiments())
        for f in os.listdir(bench_dir):
            if not (f.startswith("bench_") and f.endswith(".py")):
                continue
            source = read("benchmarks", f)
            for eid in re.findall(r'run_and_record\("([^"]+)"\)', source):
                assert eid in known, f"{f} runs unknown experiment {eid}"


class TestExperimentsDoc:
    def test_every_experiment_has_a_results_section(self):
        doc = read("EXPERIMENTS.md")
        for eid in available_experiments():
            assert re.search(
                rf"^## {eid} ", doc, re.M
            ), f"{eid} has no section in EXPERIMENTS.md"

    def test_erratum_documented(self):
        assert "Lemma 9" in read("EXPERIMENTS.md")


class TestPaperMap:
    def test_core_modules_mentioned(self):
        doc = read("docs", "paper_to_code.md")
        for module in (
            "repro.core.distill",
            "repro.core.tracker",
            "repro.lowerbounds.urn",
            "repro.lowerbounds.partition",
            "repro.extensions.slander",
            "analysis.lemma7_kernel",
            "analysis.lemma9",
        ):
            assert module in doc, module


class TestReadme:
    def test_examples_table_covers_directory(self):
        readme = read("README.md")
        examples_dir = os.path.join(ROOT, "examples")
        for f in os.listdir(examples_dir):
            if f.endswith(".py"):
                assert f in readme, f"{f} missing from README examples"

    def test_cli_commands_documented(self):
        readme = read("README.md")
        for command in ("repro list", "repro experiment", "repro run",
                        "repro gauntlet", "repro show", "repro bounds",
                        "repro report"):
            assert command in readme, command


DOCS = ("README.md", "architecture.md", "model.md", "observability.md",
        "paper_to_code.md", "performance.md", "robustness.md",
        "serving.md", "static_analysis.md")


def doc_texts():
    """Every docs page plus the top-level README, as (relpath, text)."""
    pairs = [(f"docs/{name}", read("docs", name)) for name in DOCS]
    pairs.append(("README.md", read("README.md")))
    return pairs


def command_lines(text):
    """Shell command lines in a doc, with backslash continuations joined
    and trailing comments stripped."""
    joined, pending = [], ""
    for line in text.splitlines():
        pending += line.rstrip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        joined.append(pending)
        pending = ""
    for line in joined:
        stripped = line.strip()
        if stripped.startswith("$ "):
            stripped = stripped[2:]
        yield stripped.split(" #")[0].strip()


class TestDocsIndex:
    def test_index_lists_every_doc_page(self):
        index = read("docs", "README.md")
        for name in DOCS:
            if name == "README.md":
                continue
            assert f"({name})" in index, f"{name} missing from docs/README.md"

    def test_index_covers_the_docs_directory(self):
        listed = set(DOCS) | {"README.md"}
        on_disk = {
            f for f in os.listdir(os.path.join(ROOT, "docs"))
            if f.endswith(".md")
        }
        assert on_disk == listed, (
            "docs/ and the index disagree: "
            f"unlisted={sorted(on_disk - listed)} "
            f"ghosts={sorted(listed - on_disk)}"
        )


def _collect_parser(parser):
    """All option strings and subcommand trees of an argparse parser."""
    import argparse

    flags, subcommands = set(), {}
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                subcommands[name] = _collect_parser(sub)
    return flags, subcommands


def _flatten_flags(tree):
    flags, subcommands = tree
    out = set(flags)
    for sub in subcommands.values():
        out |= _flatten_flags(sub)
    return out


class TestCliFlagsPinned:
    """Every `repro …` (and `python -m repro.lint …`) command line shown
    in the docs must parse: known subcommand, known flags. Docs showing
    a flag the parser dropped — or never had — fail here."""

    def _repro_tree(self):
        from repro.cli import build_parser

        return _collect_parser(build_parser())

    def _lint_flags(self):
        from repro.lint.cli import build_parser

        return _flatten_flags(_collect_parser(build_parser()))

    @staticmethod
    def _line_flags(line):
        for token in line.split():
            if token.startswith("--"):
                yield token.split("=")[0]

    def test_every_documented_repro_invocation_parses(self):
        top_flags, top_subs = self._repro_tree()
        for path, text in doc_texts():
            for line in command_lines(text):
                tokens = line.split()
                if len(tokens) < 2 or tokens[0] != "repro":
                    continue
                subcommand = tokens[1]
                assert subcommand in top_subs, (
                    f"{path}: unknown subcommand in {line!r}"
                )
                allowed = top_flags | _flatten_flags(top_subs[subcommand])
                for flag in self._line_flags(line):
                    assert flag in allowed, (
                        f"{path}: flag {flag} in {line!r} is not accepted "
                        f"by 'repro {subcommand}'"
                    )

    def test_every_documented_reprolint_invocation_parses(self):
        allowed = self._lint_flags()
        for path, text in doc_texts():
            for line in command_lines(text):
                if "python -m repro.lint" not in line:
                    continue
                line = line.split("&&")[0]
                for flag in self._line_flags(line):
                    assert flag in allowed, (
                        f"{path}: flag {flag} in {line!r} is not accepted "
                        f"by reprolint"
                    )

    def test_inline_code_flags_exist_somewhere(self):
        """Flags cited in prose (`--jobs K`, `--obs-out`, …) must exist
        on some parser — the repro CLI or reprolint."""
        known = _flatten_flags(self._repro_tree()) | self._lint_flags()
        pattern = re.compile(r"`(--[a-z][a-z0-9-]*)(?:=[^`]*| [A-Z]+)?`")
        for path, text in doc_texts():
            for flag in pattern.findall(text):
                assert flag in known, f"{path}: unknown flag `{flag}` cited"


class TestArtifactPathsPinned:
    def test_bench_artifacts_named_in_docs_exist(self):
        """Concrete BENCH files (not the BENCH_*.json glob) must exist at
        the repo root and under benchmarks/results/."""
        pattern = re.compile(r"\bBENCH_(?!\*)[A-Za-z0-9_]+\.json\b")
        for path, text in doc_texts():
            for name in set(pattern.findall(text)):
                assert os.path.isfile(os.path.join(ROOT, name)), (
                    f"{path} cites {name}, missing from the repo root"
                )
                assert os.path.isfile(
                    os.path.join(ROOT, "benchmarks", "results", name)
                ), f"{path} cites {name}, missing from benchmarks/results/"

    def test_repo_paths_named_in_docs_exist(self):
        pattern = re.compile(
            r"\b((?:docs|benchmarks|tests|src|examples|tools)/[\w./-]*\w/?)"
        )
        for path, text in doc_texts():
            for cited in set(pattern.findall(text)):
                target = os.path.join(ROOT, cited)
                assert os.path.exists(target), (
                    f"{path} cites {cited}, which does not exist"
                )


class TestServingDoc:
    """docs/serving.md is normative for `repro.serve`: every serving
    knob trio and every `repro serve` flag must be documented there."""

    def test_knob_env_vars_documented(self):
        from repro.serve import (
            SERVE_MAX_INFLIGHT_ENV_VAR,
            SERVE_PORT_ENV_VAR,
            SERVE_RATE_ENV_VAR,
        )

        doc = read("docs", "serving.md")
        for var in (SERVE_PORT_ENV_VAR, SERVE_MAX_INFLIGHT_ENV_VAR,
                    SERVE_RATE_ENV_VAR):
            assert var in doc, f"{var} missing from docs/serving.md"

    def test_every_serve_flag_documented(self):
        from repro.cli import build_parser

        _, top_subs = _collect_parser(build_parser())
        assert "serve" in top_subs, "repro CLI lost the serve subcommand"
        doc = read("docs", "serving.md")
        for flag in _flatten_flags(top_subs["serve"]):
            if flag in ("-h", "--help"):
                continue
            assert flag in doc, (
                f"`repro serve` accepts {flag}, undocumented in "
                "docs/serving.md"
            )


class TestModuleReferencesResolve:
    def test_every_dotted_repro_reference_imports(self):
        """`repro.foo.bar.Baz` in any doc must resolve to a module or an
        attribute of one."""
        import importlib

        pattern = re.compile(r"\brepro\.[a-zA-Z_][\w.]*\w")
        for path, text in doc_texts():
            for token in sorted(set(pattern.findall(text))):
                parts = token.split(".")
                resolved = False
                for cut in range(len(parts), 0, -1):
                    try:
                        obj = importlib.import_module(".".join(parts[:cut]))
                    except ImportError:
                        continue
                    try:
                        for attr in parts[cut:]:
                            obj = getattr(obj, attr)
                        resolved = True
                    except AttributeError:
                        pass
                    break
                assert resolved, f"{path}: {token} does not resolve"


class TestDocLinks:
    def test_no_broken_links_or_anchors(self, capsys):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_doc_links",
            os.path.join(ROOT, "tools", "check_doc_links.py"),
        )
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        assert checker.main([]) == 0, capsys.readouterr().err
