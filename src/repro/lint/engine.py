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
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.rules import RULES, check_tree, select_codes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ProjectModel

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


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint files and directory trees; violations sorted by position."""
    out: List[Violation] = []
    for file_path in _iter_python_files(paths):
        try:
            with open(file_path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise LintError(f"cannot read {file_path}: {exc}") from None
        out.extend(lint_source(source, _normalize(file_path), select))
    return sorted(out)


def _normalize(path: str) -> str:
    """Repo-stable path spelling (relative, forward slashes)."""
    return os.path.relpath(path).replace(os.sep, "/")


# ---------------------------------------------------------------------------
# Two-phase project analysis (RPL011–RPL014) with an incremental cache
# ---------------------------------------------------------------------------

#: bump together with any change to rules, summaries, or cache layout —
#: a mismatched cache is silently discarded, never migrated
CACHE_SCHEMA = 1

#: default on-disk cache location (gitignored; safe to delete anytime)
DEFAULT_CACHE = ".reprolint-cache.json"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _violation_to_dict(violation: Violation) -> Dict[str, object]:
    return {
        "path": violation.path,
        "line": violation.line,
        "col": violation.col,
        "code": violation.code,
        "message": violation.message,
        "line_text": violation.line_text,
    }


def _violation_from_dict(data: Dict[str, object]) -> Violation:
    code = str(data["code"])
    return Violation(
        path=str(data["path"]),
        line=int(data["line"]),  # type: ignore[arg-type]
        col=int(data["col"]),  # type: ignore[arg-type]
        code=code,
        message=str(data["message"]),
        hint=RULES[code].hint if code in RULES else "",
        line_text=str(data["line_text"]),
    )


def _process_file(job: Tuple[str, str, str]) -> Dict[str, object]:
    """Parse + per-file lint + summarize one module (worker-safe).

    ``job`` is ``(normalized_path, content_digest, source)``; the result
    is exactly the cache entry stored for that file.
    """
    from repro.lint.project import summarize_module

    norm_path, content_digest, source = job
    try:
        tree = ast.parse(source, filename=norm_path)
    except SyntaxError as exc:
        return {"path": norm_path, "error": f"cannot parse: {exc}"}
    violations, suppressions = _check_parsed(tree, source, norm_path)
    summary = summarize_module(
        tree,
        norm_path,
        {
            line: [s.code for s in entries]
            for line, entries in suppressions.items()
        },
    )
    return {
        "path": norm_path,
        "hash": content_digest,
        "violations": [_violation_to_dict(v) for v in violations],
        "summary": summary,
    }


def _load_cache(cache_path: Optional[str]) -> Dict[str, Dict[str, object]]:
    if cache_path is None or not os.path.exists(cache_path):
        return {}
    try:
        with open(cache_path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
        return {}
    return data  # type: ignore[return-value]


def _write_cache(
    cache_path: str, payload: Dict[str, object]
) -> None:
    payload["schema"] = CACHE_SCHEMA
    try:
        with open(cache_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    except OSError:
        pass  # a cache that cannot be written is just a cold run


def _project_phase(model: "ProjectModel") -> List[Dict[str, object]]:
    """Run the cross-file checkers; suppression-filtered plain dicts."""
    from repro.lint.parity import check_parity
    from repro.lint.registry import check_counters, check_knobs
    from repro.lint.streamflow import check_streams

    out: List[Dict[str, object]] = []
    for checker in (check_streams, check_knobs, check_counters, check_parity):
        for raw in checker(model):
            if model.is_suppressed(
                str(raw["path"]), int(raw["line"]), str(raw["code"])
            ):
                continue
            out.append(raw)
    return out


def lint_project(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_path: Optional[str] = None,
) -> List[Violation]:
    """Two-phase lint: per-file rules plus the cross-file families.

    Phase 1 parses every file once (in parallel with ``jobs > 1``) into
    serializable summaries; phase 2 aggregates them into a
    :class:`~repro.lint.project.ProjectModel` and runs RPL011–RPL014
    over it. Both phases are cached in ``cache_path`` keyed by content
    hash, so a warm run re-parses only edited files and re-runs phase 2
    only when any summary or doc changed.

    The cross-file rules reason about *everything they were shown* — run
    them over the full default path set (``src tests``); a partial file
    list yields a partial model and correspondingly partial findings.
    """
    active = select_codes(select)
    cache = _load_cache(cache_path)
    cached_files = cache.get("files", {})
    if not isinstance(cached_files, dict):
        cached_files = {}

    entries: Dict[str, Dict[str, object]] = {}
    to_parse: List[Tuple[str, str, str]] = []
    for file_path in _iter_python_files(paths):
        try:
            with open(file_path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise LintError(f"cannot read {file_path}: {exc}") from None
        norm = _normalize(file_path)
        content_digest = _digest(source.encode("utf-8"))
        cached = cached_files.get(norm)
        if (
            isinstance(cached, dict)
            and cached.get("hash") == content_digest
            and "summary" in cached
        ):
            entries[norm] = cached
        else:
            to_parse.append((norm, content_digest, source))

    results: List[Dict[str, object]]
    if jobs > 1 and len(to_parse) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs
        ) as pool:
            results = list(pool.map(_process_file, to_parse, chunksize=8))
    else:
        results = [_process_file(job) for job in to_parse]
    for result in results:
        error = result.get("error")
        if error:
            raise LintError(f"{result['path']}: {error}")
        entries[str(result["path"])] = result

    from repro.lint.project import (
        ProjectModel,
        discover_doc_files,
        summarize_doc,
    )

    cached_docs = cache.get("docs", {})
    if not isinstance(cached_docs, dict):
        cached_docs = {}
    doc_entries: Dict[str, Dict[str, object]] = {}
    for doc_path in discover_doc_files("."):
        try:
            with open(doc_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            continue
        norm = _normalize(doc_path)
        doc_digest = _digest(text.encode("utf-8"))
        cached = cached_docs.get(norm)
        if isinstance(cached, dict) and cached.get("hash") == doc_digest:
            doc_entries[norm] = cached
        else:
            doc_entries[norm] = {
                "hash": doc_digest,
                "summary": summarize_doc(norm, text),
            }

    model_digest = _digest(
        json.dumps(
            [
                [path, entries[path]["hash"]]
                for path in sorted(entries)
            ]
            + [
                [path, doc_entries[path]["hash"]]
                for path in sorted(doc_entries)
            ],
            separators=(",", ":"),
        ).encode("utf-8")
    )
    cached_project = cache.get("project", {})
    project_raw: List[Dict[str, object]]
    if (
        isinstance(cached_project, dict)
        and cached_project.get("digest") == model_digest
        and isinstance(cached_project.get("violations"), list)
    ):
        project_raw = cached_project["violations"]  # type: ignore[assignment]
    else:
        model = ProjectModel.build(
            [entries[path]["summary"] for path in sorted(entries)],  # type: ignore[misc]
            [
                dict(doc_entries[path]["summary"], path=path)  # type: ignore[call-overload]
                for path in sorted(doc_entries)
            ],
        )
        project_raw = _project_phase(model)

    if cache_path is not None:
        _write_cache(
            cache_path,
            {
                "files": entries,
                "docs": doc_entries,
                "project": {
                    "digest": model_digest,
                    "violations": project_raw,
                },
            },
        )

    out: List[Violation] = []
    for entry in entries.values():
        for data in entry["violations"]:  # type: ignore[union-attr]
            violation = _violation_from_dict(data)
            if violation.code in active:
                out.append(violation)
    text_cache: Dict[str, List[str]] = {}
    for raw in project_raw:
        code = str(raw["code"])
        if code not in active:
            continue
        path = str(raw["path"])
        line = int(raw["line"])  # type: ignore[arg-type]
        out.append(
            Violation(
                path=path,
                line=line,
                col=int(raw["col"]),  # type: ignore[arg-type]
                code=code,
                message=str(raw["message"]),
                hint=RULES[code].hint,
                line_text=_file_line(path, line, text_cache),
            )
        )
    return sorted(out)


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
