"""RPL012 and RPL013: the knob-trio and counter-registry contracts.

RPL012 — every run-configuration knob reaches users through three
mechanically-linked paths plus documentation: a ``REPRO_*`` environment
variable (declared as a ``*_ENV_VAR`` constant), a CLI flag whose help
text names the env var, and a ``default_*``/``resolve_*`` function that
reads it. A knob missing a leg is the drift this rule exists to catch —
an env var the CLI never mentions, a flag with no resolver behind it, or
a variable no doc tells the user about. Bare env vars without the
``*_ENV_VAR`` declaration (read straight from ``os.environ``) only owe
the documentation leg.

RPL013 — every metric name must round-trip between three places: the
``obs.counter("…")``/``obs.timer("…")`` call sites in ``src/``, the
declared registry in :mod:`repro.obs.names`, and the catalogue table in
``docs/observability.md``. Dynamic (f-string) call sites are legal only
under a prefix listed in ``DYNAMIC_COUNTER_PREFIXES``. Any one-way trip
— an undeclared call site (the classic ``exec.worker_losst`` typo), a
stale declaration, an undocumented metric, a phantom doc row — is a
finding.

Both checkers yield plain violation dicts; the engine owns
:class:`~repro.lint.engine.Violation` construction and suppression.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: docs file that must catalogue every declared metric
OBSERVABILITY_DOC = "docs/observability.md"

_RESOLVER_PREFIXES = ("default_", "resolve_", "set_default_")


def _env_const_knobs(
    model: Any,
) -> Dict[str, Tuple[str, str, int]]:
    """``REPRO_*`` vars declared via ``*_ENV_VAR`` consts in src.

    Returns env var name -> (path, const name, declaration line).
    """
    out: Dict[str, Tuple[str, str, int]] = {}
    for summary in model.src_files():
        for const, value in summary["env_consts"].items():
            if not const.endswith("_ENV_VAR"):
                continue
            line = min(
                (
                    occ["line"]
                    for occ in summary["env_vars"]
                    if occ["name"] == value
                ),
                default=1,
            )
            out.setdefault(value, (summary["path"], const, line))
    return out


def _bare_env_vars(model: Any) -> Dict[str, Tuple[str, int]]:
    """``REPRO_*`` vars read in src without a ``*_ENV_VAR`` declaration."""
    out: Dict[str, Tuple[str, int]] = {}
    for summary in model.src_files():
        for occ in summary["env_vars"]:
            name = occ["name"]
            current = out.get(name)
            if current is None:
                out[name] = (summary["path"], occ["line"])
            elif current[0] == summary["path"] and occ["line"] < current[1]:
                out[name] = (summary["path"], occ["line"])
    return out


def check_knobs(model: Any) -> Iterator[Dict[str, Any]]:
    """RPL012 over the whole project."""
    knobs = _env_const_knobs(model)
    flags_help: List[str] = []
    resolver_envs: Set[str] = set()
    for summary in model.src_files():
        for record in summary["argparse_flags"]:
            flags_help.append(record["help"])
        for occ in summary["env_vars"]:
            if occ["function"].startswith(_RESOLVER_PREFIXES):
                resolver_envs.add(occ["name"])
    all_help = "\n".join(flags_help)

    for env, (path, const, line) in sorted(knobs.items()):
        missing: List[str] = []
        if env not in all_help:
            missing.append("a CLI flag whose help names it")
        if env not in resolver_envs:
            missing.append("a default_*/resolve_* reader")
        if not model.docs_mentioning_env(env):
            missing.append("a docs/ mention")
        if missing:
            yield {
                "path": path,
                "line": line,
                "col": 0,
                "code": "RPL012",
                "message": (
                    f"knob `{env}` (declared as {const}) is missing "
                    + " and ".join(missing)
                ),
            }

    for env, (path, line) in sorted(_bare_env_vars(model).items()):
        if env in knobs:
            continue
        if not model.docs_mentioning_env(env):
            yield {
                "path": path,
                "line": line,
                "col": 0,
                "code": "RPL012",
                "message": (
                    f"environment variable `{env}` is read here but "
                    "documented nowhere under docs/"
                ),
            }


def _declared_registry(
    model: Any,
) -> Optional[Tuple[str, Dict[str, int], Dict[str, int], List[str]]]:
    """Locate the declared-name module (the one defining the registry).

    Returns (path, counters{name: line}, timers{name: line}, prefixes).
    """
    for summary in model.src_files():
        consts = summary["string_consts"]
        if "DECLARED_COUNTERS" not in consts:
            continue
        counters = {name: line for name, line in consts["DECLARED_COUNTERS"]}
        timers = {
            name: line
            for name, line in consts.get("DECLARED_TIMERS", [])
        }
        prefixes = [
            name
            for name, _ in consts.get("DYNAMIC_COUNTER_PREFIXES", [])
        ]
        return summary["path"], counters, timers, prefixes
    return None


def check_counters(model: Any) -> Iterator[Dict[str, Any]]:
    """RPL013 over call sites, the declared registry, and the doc table."""
    registry = _declared_registry(model)
    if registry is None:
        return
    reg_path, counters, timers, prefixes = registry

    used_literals: Set[str] = set()
    used_prefixes: Set[str] = set()
    for summary in model.src_files():
        if summary["path"] == reg_path:
            continue
        for site in summary["counter_sites"]:
            declared = counters if site["kind"] == "counter" else timers
            if site["dynamic"]:
                prefix = site["prefix"]
                if prefix is None or not any(
                    prefix.startswith(p) for p in prefixes
                ):
                    yield {
                        "path": summary["path"],
                        "line": site["line"],
                        "col": 0,
                        "code": "RPL013",
                        "message": (
                            "dynamic counter name "
                            f"(prefix {prefix!r}) is not under any "
                            "DYNAMIC_COUNTER_PREFIXES entry"
                        ),
                    }
                else:
                    used_prefixes.add(prefix)
                continue
            name = site["name"]
            if name is None:
                continue
            used_literals.add(name)
            if name not in declared:
                yield {
                    "path": summary["path"],
                    "line": site["line"],
                    "col": 0,
                    "code": "RPL013",
                    "message": (
                        f"{site['kind']} name `{name}` is not declared "
                        "in the obs name registry — a typo here silently "
                        "creates a parallel metric"
                    ),
                }

    doc = model.docs.get(OBSERVABILITY_DOC)
    doc_metrics: Dict[str, int] = doc["metrics"] if doc else {}
    phases = {name.split(".", 1)[0] for name in counters} | {
        name.split(".", 1)[0] for name in timers
    }

    for name, line in sorted(counters.items()):
        reachable = name in used_literals or any(
            name.startswith(p) for p in prefixes if p in used_prefixes
        )
        if not reachable:
            yield {
                "path": reg_path,
                "line": line,
                "col": 0,
                "code": "RPL013",
                "message": (
                    f"declared counter `{name}` is incremented nowhere "
                    "— stale declaration"
                ),
            }
        if doc is not None and name not in doc_metrics:
            yield {
                "path": reg_path,
                "line": line,
                "col": 0,
                "code": "RPL013",
                "message": (
                    f"declared counter `{name}` is missing from the "
                    f"{OBSERVABILITY_DOC} catalogue"
                ),
            }
    for name, line in sorted(timers.items()):
        if name not in used_literals:
            yield {
                "path": reg_path,
                "line": line,
                "col": 0,
                "code": "RPL013",
                "message": (
                    f"declared timer `{name}` is opened nowhere — "
                    "stale declaration"
                ),
            }
        if doc is not None and name not in doc_metrics:
            yield {
                "path": reg_path,
                "line": line,
                "col": 0,
                "code": "RPL013",
                "message": (
                    f"declared timer `{name}` is missing from the "
                    f"{OBSERVABILITY_DOC} catalogue"
                ),
            }

    if doc is not None:
        declared_all = set(counters) | set(timers)
        for token, line in sorted(doc_metrics.items()):
            if token.split(".", 1)[0] not in phases:
                continue  # not a metric name (e.g. a module path)
            if token not in declared_all:
                yield {
                    "path": OBSERVABILITY_DOC,
                    "line": line,
                    "col": 0,
                    "code": "RPL013",
                    "message": (
                        f"documented metric `{token}` is not declared "
                        "in the obs name registry (typo or removed "
                        "counter?)"
                    ),
                }

    # reporting prefixes must slice declared phases, not invent new ones
    for summary in model.src_files():
        for name, items in summary["string_consts"].items():
            if name != "REPORTING_COUNTER_PREFIXES":
                continue
            for prefix, line in items:
                if prefix.rstrip(".") not in phases:
                    yield {
                        "path": summary["path"],
                        "line": line,
                        "col": 0,
                        "code": "RPL013",
                        "message": (
                            f"reporting prefix `{prefix}` matches no "
                            "declared metric phase"
                        ),
                    }
