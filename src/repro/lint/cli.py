"""``python -m repro.lint`` — the determinism-contract gate.

Exit codes: ``0`` clean, ``1`` violations found, ``2`` usage or I/O
error. There is no baseline: a violation is fixed or carries a reasoned
inline ``# repro: noqa=RPLxxx(reason)``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.engine import DEFAULT_PATHS, LintError, lint_project
from repro.lint.report import render_json, render_rules, render_text


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
        "--list-rules",
        action="store_true",
        help="print every rule code with its rationale and exit",
    )
    return parser


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
    try:
        violations = lint_project(args.paths, select=select)
    except (LintError, ValueError) as exc:
        sys.stderr.write(f"reprolint: error: {exc}\n")
        return 2

    renderer = render_json if args.format == "json" else render_text
    sys.stdout.write(renderer(violations, args.paths))
    return 1 if violations else 0
