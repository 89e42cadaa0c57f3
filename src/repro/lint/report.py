"""Text and JSON rendering of a lint run."""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Sequence

from repro.lint.engine import Violation
from repro.lint.rules import RULES


def _violation_dict(violation: Violation) -> Dict[str, Any]:
    return {
        "path": violation.path,
        "line": violation.line,
        "col": violation.col + 1,
        "code": violation.code,
        "name": RULES[violation.code].name,
        "message": violation.message,
        "hint": violation.hint,
        "fingerprint": violation.fingerprint,
    }


def render_json(
    reported: Sequence[Violation], checked_paths: Sequence[str]
) -> str:
    """Machine-readable report (the CI artifact format)."""
    counts = Counter(v.code for v in reported)
    payload: Dict[str, Any] = {
        "tool": "reprolint",
        "paths": list(checked_paths),
        "clean": not reported,
        "counts": {code: counts[code] for code in sorted(counts)},
        "violations": [_violation_dict(v) for v in reported],
    }
    return json.dumps(payload, indent=2) + "\n"


def render_text(
    reported: Sequence[Violation], checked_paths: Sequence[str]
) -> str:
    """Human-readable report."""
    lines: List[str] = [violation.render() for violation in reported]
    summary = (
        f"reprolint: {len(reported)} violation(s) in "
        f"{', '.join(checked_paths)}"
    )
    if not reported:
        summary += " — clean"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_rules() -> str:
    """The ``--list-rules`` table."""
    lines = ["reprolint rules (see docs/static_analysis.md):"]
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append(f"  {code} [{rule.name}] {rule.summary}")
        lines.append(f"         fix: {rule.hint}")
    return "\n".join(lines) + "\n"
