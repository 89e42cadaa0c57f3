"""``python -m repro.lint`` — the determinism-contract gate.

Exit codes: ``0`` clean, ``1`` violations found, ``2`` usage or I/O
error. There is no baseline: a violation is fixed or carries a reasoned
inline ``# repro: noqa=RPLxxx(reason)``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from typing import List, Optional, Set

from repro.lint.engine import (
    DEFAULT_CACHE,
    DEFAULT_PATHS,
    LintError,
    lint_project,
)
from repro.lint.report import render_json, render_rules, render_text
from repro.lint.rules import PROJECT_RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "reprolint: project-wide enforcement of the repo's "
            "determinism contract — per-file AST rules (seeded, "
            "spawn-derived rng streams; no wall-clock or hash-order "
            "dependence in engine packages) plus cross-file analysis of "
            "rng stream flow, config-knob trios, and the obs counter "
            "registry"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "parse files with N worker processes (default: 1; only "
            "cache-miss files are parsed either way)"
        ),
    )
    parser.add_argument(
        "--diff",
        default=None,
        metavar="REF",
        help=(
            "report only files changed vs the given git ref (plus all "
            "cross-file findings). The project model still covers every "
            "path, so cross-file rules see the whole tree."
        ),
    )
    parser.add_argument(
        "--cache",
        default=DEFAULT_CACHE,
        metavar="FILE",
        help=(
            "incremental cache file keyed by content hash "
            f"(default: {DEFAULT_CACHE}; gitignored, safe to delete)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the incremental cache",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its rationale and exit",
    )
    return parser


def _changed_files(ref: str) -> Set[str]:
    """Files changed vs ``ref`` plus untracked files, repo-relative."""
    changed: Set[str] = set()
    for args in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                args, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", "") or str(exc)
            raise LintError(
                f"--diff {ref}: {' '.join(args)} failed: {detail.strip()}"
            ) from None
        changed.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    return changed


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        sys.stdout.write(render_rules())
        return 0

    select = (
        [code.strip() for code in args.select.split(",") if code.strip()]
        if args.select
        else None
    )
    cache_path = None if args.no_cache else args.cache

    try:
        violations = lint_project(
            args.paths,
            select=select,
            jobs=max(1, args.jobs),
            cache_path=cache_path,
        )
        if args.diff is not None:
            changed = _changed_files(args.diff)
            # cross-file findings always surface: an edit in one file
            # can break a contract anchored in another
            violations = [
                v
                for v in violations
                if v.path in changed or v.code in PROJECT_RULES
            ]
    except (LintError, ValueError) as exc:
        sys.stderr.write(f"reprolint: error: {exc}\n")
        return 2

    renderer = render_json if args.format == "json" else render_text
    sys.stdout.write(renderer(violations, args.paths))
    return 1 if violations else 0
