"""Phase 1 of project-wide analysis: the per-file summaries and model.

The per-file rules (RPL001–RPL009) see one AST at a time; the cross-file
families (RPL011–RPL013) need facts no single file witnesses — which
``REPRO_*`` variable has a CLI flag in a *different* module, which
counter names the obs registry declares, where an rng stream flows.
This module extracts a compact, JSON-serializable :class:`FileSummary`
from each parsed module (so summaries cache and pickle across worker
processes) and aggregates them into a :class:`ProjectModel` that the
phase-2 checkers (``streamflow``, ``registry``) query.

Summaries are deliberately *plain data* (dicts/lists/strings): the
incremental cache stores them verbatim keyed by file content hash, so a
warm run rebuilds the whole model without re-parsing a single file.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

#: bump when the summary extraction changes shape — invalidates caches
SUMMARY_SCHEMA = 4

#: markdown files folded into the model for RPL012/RPL013 docs legs
DOC_GLOB_DIRS: Tuple[str, ...] = ("docs",)
DOC_EXTRA_FILES: Tuple[str, ...] = ("README.md",)

_ENV_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")

#: inline-backticked dotted token (counter/timer names in doc tables);
#: the whole backtick payload must be the token, so `engine.run()` or
#: `repro.obs.registry` never match
_DOC_METRIC_RE = re.compile(r"`([a-z][a-z0-9_]*\.[a-z][a-z0-9_]*)`")

_FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")


def module_name_for(path: str) -> str:
    """Dotted module id for a repo path (``src/repro/x.py`` → ``repro.x``)."""
    norm = path.replace("\\", "/")
    trimmed = norm[:-3] if norm.endswith(".py") else norm
    parts = [p for p in trimmed.split("/") if p not in ("", ".", "src")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


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

    def __init__(self, path: str, module: str) -> None:
        self.path = path
        self.module = module
        self.aliases: Dict[str, str] = {}
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.env_vars: List[Dict[str, Any]] = []
        self.env_consts: Dict[str, str] = {}
        self.argparse_flags: List[Dict[str, Any]] = []
        self.counter_sites: List[Dict[str, Any]] = []
        self.string_consts: Dict[str, List[Tuple[str, int]]] = {}
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.aliases[local] = alias.name if alias.asname else local
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:  # resolve relative imports against this module
            base = self.module.split(".")
            base = base[: len(base) - node.level]
            module = ".".join(base + ([module] if module else []))
        for alias in node.names:
            local = alias.asname or alias.name
            if module:
                self.aliases[local] = f"{module}.{alias.name}"
        self.generic_visit(node)

    def resolve(self, name: Optional[str]) -> Optional[str]:
        """Canonicalize a (possibly dotted) local name through imports."""
        if name is None:
            return None
        head, _, rest = name.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return name
        return f"{origin}.{rest}" if rest else origin

    # -- classes and functions -----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _handle_function(self, node: Any) -> None:
        params = [a.arg for a in node.args.args if a.arg != "self"]
        if not self._class_stack and not self._func_stack:
            self.functions[node.name] = {
                "line": node.lineno,
                "params": params,
            }
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
        flag = None
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str) and value.startswith("--"):
                flag = value
        help_text = ""
        env_in_default = False
        for kw in node.keywords:
            if kw.arg == "help":
                for sub in ast.walk(kw.value):
                    if isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str
                    ):
                        help_text += sub.value
            if kw.arg == "default":
                for sub in ast.walk(kw.value):
                    if isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str
                    ):
                        if _ENV_RE.search(sub.value):
                            env_in_default = True
        if flag is not None or help_text:
            self.argparse_flags.append(
                {
                    "flag": flag,
                    "line": node.lineno,
                    "help": help_text,
                    "env_in_default": env_in_default,
                }
            )

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

    module = module_name_for(path)
    visitor = _SummaryVisitor(path, module)
    visitor.visit(tree)
    return {
        "schema": SUMMARY_SCHEMA,
        "path": path,
        "module": module,
        "aliases": visitor.aliases,
        "functions": visitor.functions,
        "env_vars": visitor.env_vars,
        "env_consts": visitor.env_consts,
        "argparse_flags": visitor.argparse_flags,
        "counter_sites": visitor.counter_sites,
        "string_consts": {
            k: [[s, ln] for s, ln in v]
            for k, v in visitor.string_consts.items()
        },
        "stream": extract_stream_facts(tree, visitor),
        "suppressions": {
            str(line): codes for line, codes in suppressions.items()
        },
    }


def summarize_doc(path: str, text: str) -> Dict[str, Any]:
    """Token scan of one markdown file (env vars, metric names, flags)."""
    env: Dict[str, int] = {}
    metrics: Dict[str, int] = {}
    flags: Set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        for match in _ENV_RE.finditer(line):
            env.setdefault(match.group(0), line_no)
        for match in _DOC_METRIC_RE.finditer(line):
            metrics.setdefault(match.group(1), line_no)
        for match in _FLAG_RE.finditer(line):
            flags.add(match.group(0))
    return {
        "schema": SUMMARY_SCHEMA,
        "path": path,
        "env": env,
        "metrics": metrics,
        "flags": sorted(flags),
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
    """Aggregated phase-1 facts the cross-file checkers query."""

    files: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    docs: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        summaries: Sequence[Dict[str, Any]],
        doc_summaries: Sequence[Dict[str, Any]],
    ) -> "ProjectModel":
        model = cls()
        for summary in summaries:
            model.files[summary["path"]] = summary
        for doc in doc_summaries:
            model.docs[doc["path"]] = doc
        return model

    # -- suppression-aware emission --------------------------------------
    def is_suppressed(self, path: str, line: int, code: str) -> bool:
        summary = self.files.get(path)
        if summary is None:
            return False
        return code in summary["suppressions"].get(str(line), [])

    # -- doc queries ----------------------------------------------------
    def docs_mentioning_env(self, name: str) -> List[str]:
        return [
            path for path, doc in self.docs.items() if name in doc["env"]
        ]

    def doc_flags(self) -> Set[str]:
        out: Set[str] = set()
        for doc in self.docs.values():
            out.update(doc["flags"])
        return out

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
