"""Phase 1 of project-wide analysis: the per-file summaries and model.

The per-file rules (RPL001–RPL009) see one AST at a time; the cross-file
families (RPL011–RPL013) need facts no single file witnesses — which
``REPRO_*`` variable has a CLI flag in a *different* module, which
counter names the obs registry declares, where an rng stream flows.
This module extracts a compact summary from each parsed module and
aggregates the summaries into a :class:`ProjectModel` that the phase-2
checkers (``streamflow``, ``registry``) query. A summary keeps only the
facts some checker reads, so the model holds no AST.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: markdown files folded into the model for RPL012/RPL013 docs legs
DOC_GLOB_DIRS: Tuple[str, ...] = ("docs",)
DOC_EXTRA_FILES: Tuple[str, ...] = ("README.md",)

_ENV_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")

#: inline-backticked dotted token (counter/timer names in doc tables);
#: the whole backtick payload must be the token, so `engine.run()` or
#: `repro.obs.registry` never match
_DOC_METRIC_RE = re.compile(r"`([a-z][a-z0-9_]*\.[a-z][a-z0-9_]*)`")


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _SummaryVisitor(ast.NodeVisitor):
    """One pass over a module collecting every cross-file-relevant fact."""

    def __init__(self) -> None:
        self.env_vars: List[Dict[str, Any]] = []
        self.env_consts: Dict[str, str] = {}
        self.flag_help: List[str] = []
        self.counter_sites: List[Dict[str, Any]] = []
        self.string_consts: Dict[str, List[Tuple[str, int]]] = {}
        self._func_stack: List[str] = []

    # -- functions ------------------------------------------------------
    def _handle_function(self, node: Any) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _handle_function
    visit_AsyncFunctionDef = _handle_function

    # -- strings, env vars, argparse, counters --------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        # REPRO_X env-var constants (`JOBS_ENV_VAR = "REPRO_BENCH_JOBS"`)
        # and string-collection constants (the obs name registry,
        # REPORTING_COUNTER_PREFIXES) at module level
        if not self._func_stack and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                value = node.value
                if (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and _ENV_RE.fullmatch(value.value)
                ):
                    self.env_consts[target.id] = value.value
                strings = _collect_string_elts(value)
                if strings is not None:
                    self.string_consts[target.id] = strings
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            not self._func_stack
            and isinstance(node.target, ast.Name)
            and node.value is not None
        ):
            strings = _collect_string_elts(node.value)
            if strings is not None:
                self.string_consts[node.target.id] = strings
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _ENV_RE.fullmatch(node.value):
            self._note_env(node.value, node.lineno)

    def visit_Name(self, node: ast.Name) -> None:
        # a reference to an env-var constant counts as touching the var
        env = self.env_consts.get(node.id)
        if env is not None and self._func_stack:
            self._note_env(env, node.lineno)

    def _note_env(self, name: str, line: int) -> None:
        enclosing = self._func_stack[-1] if self._func_stack else ""
        self.env_vars.append(
            {"name": name, "line": line, "function": enclosing}
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "add_argument":
                self._note_argparse(node)
            elif func.attr in ("counter", "timer"):
                self._note_counter_site(node, func.attr)
        self.generic_visit(node)

    def _note_argparse(self, node: ast.Call) -> None:
        help_text = ""
        for kw in node.keywords:
            if kw.arg == "help":
                for sub in ast.walk(kw.value):
                    if isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str
                    ):
                        help_text += sub.value
        if help_text:
            self.flag_help.append(help_text)

    def _note_counter_site(self, node: ast.Call, kind: str) -> None:
        if not node.args:
            return
        arg = node.args[0]
        name: Optional[str] = None
        prefix: Optional[str] = None
        dynamic = False
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
        elif isinstance(arg, ast.JoinedStr):
            dynamic = True
            first = arg.values[0] if arg.values else None
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                prefix = first.value
        else:
            return  # a plain variable: a re-emission path, not a name
        if name is not None and "." not in name:
            return  # not a dotted metric name (test scaffolding)
        self.counter_sites.append(
            {
                "kind": kind,
                "name": name,
                "prefix": prefix,
                "dynamic": dynamic,
                "line": node.lineno,
            }
        )


def _collect_string_elts(
    node: ast.AST,
) -> Optional[List[Tuple[str, int]]]:
    """Strings (with lines) of a literal set/tuple/list/frozenset({...})."""
    if isinstance(node, ast.Call):
        callee = _dotted(node.func)
        if callee in ("frozenset", "set", "tuple", "list") and node.args:
            return _collect_string_elts(node.args[0])
        return None
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: List[Tuple[str, int]] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append((elt.value, elt.lineno))
            else:
                return None
        return out
    return None


def summarize_module(
    tree: ast.AST, path: str, suppressions: Dict[int, List[str]]
) -> Dict[str, Any]:
    """Extract the cross-file summary for one parsed module."""
    from repro.lint.streamflow import extract_stream_facts

    visitor = _SummaryVisitor()
    visitor.visit(tree)
    return {
        "path": path,
        "env_vars": visitor.env_vars,
        "env_consts": visitor.env_consts,
        "flag_help": visitor.flag_help,
        "counter_sites": visitor.counter_sites,
        "string_consts": visitor.string_consts,
        "stream": extract_stream_facts(tree),
        "suppressions": suppressions,
    }


def summarize_doc(path: str, text: str) -> Dict[str, Any]:
    """Token scan of one markdown file (env vars, metric names)."""
    env: Dict[str, int] = {}
    metrics: Dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        for match in _ENV_RE.finditer(line):
            env.setdefault(match.group(0), line_no)
        for match in _DOC_METRIC_RE.finditer(line):
            metrics.setdefault(match.group(1), line_no)
    return {
        "path": path,
        "env": env,
        "metrics": metrics,
    }


def discover_doc_files(root: str = ".") -> List[str]:
    """The markdown files the model folds in, relative to ``root``."""
    out: List[str] = []
    for directory in DOC_GLOB_DIRS:
        full = os.path.join(root, directory)
        if os.path.isdir(full):
            for name in sorted(os.listdir(full)):
                if name.endswith(".md"):
                    out.append(os.path.join(full, name))
    for name in DOC_EXTRA_FILES:
        full = os.path.join(root, name)
        if os.path.isfile(full):
            out.append(full)
    return out


@dataclass
class ProjectModel:
    """Aggregated phase-1 facts the cross-file checkers query.

    ``files`` maps each linted module's path to its summary, ``docs``
    each folded-in markdown file's path to its token scan.
    """

    files: Dict[str, Dict[str, Any]]
    docs: Dict[str, Dict[str, Any]]

    # -- suppression-aware emission --------------------------------------
    def is_suppressed(self, path: str, line: int, code: str) -> bool:
        summary = self.files.get(path)
        if summary is None:
            return False
        return code in summary["suppressions"].get(line, [])

    # -- doc queries ----------------------------------------------------
    def docs_mentioning_env(self, name: str) -> List[str]:
        return [
            path for path, doc in self.docs.items() if name in doc["env"]
        ]

    # -- project-wide iterators -----------------------------------------
    def src_files(self) -> List[Dict[str, Any]]:
        """Summaries for package (non-test) modules, sorted by path."""
        return [
            self.files[path]
            for path in sorted(self.files)
            if not _is_test_path(path)
        ]

    def all_files(self) -> List[Dict[str, Any]]:
        return [self.files[path] for path in sorted(self.files)]


def _is_test_path(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return any(part in ("tests", "test") for part in parts[:-1]) or parts[
        -1
    ].startswith("test_")
