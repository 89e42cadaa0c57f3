"""File walking, noqa handling, and the public lint entry points.

Suppression syntax
------------------
A violation on line ``L`` is suppressed by a comment *on that line* (the
first line of the flagged statement) of the form::

    engine.rng = np.random.default_rng()  # repro: noqa=RPL003(caller opts out)

The reason string is **mandatory** — a directive without one is itself a
violation (``RPL009``), so the suppression inventory stays reviewable.
Multiple codes may be suppressed on one line::

    # repro: noqa=RPL003(api default), RPL004(pinned legacy stream)
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.project import (
    ProjectModel,
    discover_doc_files,
    summarize_doc,
    summarize_module,
)
from repro.lint.registry import check_counters, check_knobs
from repro.lint.rules import RULES, check_tree, select_codes
from repro.lint.streamflow import check_streams

#: what `python -m repro.lint` checks when no paths are given
DEFAULT_PATHS: Tuple[str, ...] = ("src", "tests")

#: a suppression comment (the whole directive payload captured)
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\s*=\s*(?P<payload>.+?)\s*$")

#: one entry of the payload: RPLxxx with a mandatory (reason)
_ENTRY_RE = re.compile(r"^(?P<code>RPL\d{3})\s*(?:\(\s*(?P<reason>[^()]*?)\s*\))?$")


class LintError(Exception):
    """A file could not be linted (unreadable or unparseable)."""


@dataclass(frozen=True, order=True)
class Violation:
    """One finding, carrying everything the reports need."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = field(compare=False)
    line_text: str = field(compare=False, default="")

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity, carried by the JSON report.

        Binds the *file*, the *rule*, and the *content* of the flagged
        line, so two reports can be matched up across unrelated edits
        that shift line numbers.
        """
        digest = hashlib.sha256(
            self.line_text.strip().encode("utf-8")
        ).hexdigest()[:12]
        return f"{self.path}::{self.code}::{digest}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.code} {self.message}\n    hint: {self.hint}"
        )


@dataclass(frozen=True)
class _Suppression:
    code: str
    reason: str


def _parse_directives(
    source: str, path: str
) -> Tuple[Dict[int, List[_Suppression]], List[Violation]]:
    """Extract per-line suppressions; malformed directives become RPL009."""
    lines = source.splitlines()
    suppressions: Dict[int, List[_Suppression]] = {}
    bad: List[Violation] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}, []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        line_no = token.start[0]
        line_text = lines[line_no - 1] if line_no <= len(lines) else ""
        for raw_entry in match.group("payload").split(","):
            entry = _ENTRY_RE.match(raw_entry.strip())
            reason = entry.group("reason") if entry else None
            code = entry.group("code") if entry else None
            if (
                entry is None
                or not reason
                or code not in RULES
            ):
                detail = (
                    f"`{raw_entry.strip()}`"
                    if entry is None or code not in RULES
                    else f"`{code}` has no reason"
                )
                bad.append(
                    Violation(
                        path=path,
                        line=line_no,
                        col=token.start[1],
                        code="RPL009",
                        message=f"{RULES['RPL009'].summary}: {detail}",
                        hint=RULES["RPL009"].hint,
                        line_text=line_text,
                    )
                )
                continue
            suppressions.setdefault(line_no, []).append(
                _Suppression(code=code, reason=reason)
            )
    return suppressions, bad


def _check_parsed(
    tree: ast.AST, source: str, path: str
) -> Tuple[List[Violation], Dict[int, List[_Suppression]]]:
    """Per-file violations for *all* codes, post-suppression."""
    lines = source.splitlines()
    suppressions, bad_directives = _parse_directives(source, path)
    out: List[Violation] = list(bad_directives)
    for raw in check_tree(tree, path):
        if any(
            s.code == raw.code for s in suppressions.get(raw.line, [])
        ):
            continue
        out.append(
            Violation(
                path=path,
                line=raw.line,
                col=raw.col,
                code=raw.code,
                message=raw.message,
                hint=RULES[raw.code].hint,
                line_text=(
                    lines[raw.line - 1] if raw.line <= len(lines) else ""
                ),
            )
        )
    return sorted(out), suppressions


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint one module's source text; returns unsuppressed violations."""
    active = select_codes(select)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc}") from None
    violations, _ = _check_parsed(tree, source, path)
    return [v for v in violations if v.code in active]


def _iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into a deterministic .py file list."""
    seen: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        if not os.path.isdir(path):
            raise LintError(f"no such file or directory: {path}")
        for root, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(root, name)
                if full not in seen:
                    seen.add(full)
                    yield full


def _normalize(path: str) -> str:
    """Repo-stable path spelling (relative, forward slashes)."""
    return os.path.relpath(path).replace(os.sep, "/")


# ---------------------------------------------------------------------------
# Two-phase project analysis (RPL011–RPL013)
# ---------------------------------------------------------------------------


def _process_file(
    path: str, source: str
) -> Tuple[List[Violation], Dict[str, Any]]:
    """Parse one module once: its per-file violations and its summary."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc}") from None
    violations, suppressions = _check_parsed(tree, source, path)
    summary = summarize_module(
        tree,
        path,
        {
            line: [s.code for s in entries]
            for line, entries in suppressions.items()
        },
    )
    return violations, summary


def _project_violations(model: ProjectModel) -> List[Violation]:
    """Run the cross-file checkers; suppressed findings are dropped."""
    out: List[Violation] = []
    text_cache: Dict[str, List[str]] = {}
    for checker in (check_streams, check_knobs, check_counters):
        for raw in checker(model):
            path, line, code = raw["path"], raw["line"], raw["code"]
            if model.is_suppressed(path, line, code):
                continue
            out.append(
                Violation(
                    path=path,
                    line=line,
                    col=raw["col"],
                    code=code,
                    message=raw["message"],
                    hint=RULES[code].hint,
                    line_text=_file_line(path, line, text_cache),
                )
            )
    return out


def lint_project(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Two-phase lint: per-file rules plus the cross-file families.

    Phase 1 reads and parses every file once, runs the per-file rules on
    it and extracts its summary; phase 2 aggregates the summaries (plus
    a token scan of the docs) into a
    :class:`~repro.lint.project.ProjectModel` and runs RPL011–RPL013
    over it.

    The cross-file rules reason about *everything they were shown* — run
    them over the full default path set (``src tests``); a partial file
    list yields a partial model and correspondingly partial findings.
    """
    active = select_codes(select)
    per_file: Dict[str, List[Violation]] = {}
    summaries: Dict[str, Dict[str, Any]] = {}
    for file_path in _iter_python_files(paths):
        try:
            with open(file_path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise LintError(f"cannot read {file_path}: {exc}") from None
        norm = _normalize(file_path)
        per_file[norm], summaries[norm] = _process_file(norm, source)

    docs: Dict[str, Dict[str, Any]] = {}
    for doc_path in discover_doc_files("."):
        try:
            with open(doc_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            continue
        norm = _normalize(doc_path)
        docs[norm] = summarize_doc(norm, text)

    found = [v for violations in per_file.values() for v in violations]
    found.extend(_project_violations(ProjectModel(summaries, docs)))
    return sorted(v for v in found if v.code in active)


def _file_line(
    path: str, line: int, text_cache: Dict[str, List[str]]
) -> str:
    if path not in text_cache:
        try:
            with open(path, encoding="utf-8") as handle:
                text_cache[path] = handle.read().splitlines()
        except OSError:
            text_cache[path] = []
    lines = text_cache[path]
    return lines[line - 1] if 0 < line <= len(lines) else ""
