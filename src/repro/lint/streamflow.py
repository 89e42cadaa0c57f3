"""RPL011: rng stream-flow analysis over ``SeedSequence.spawn`` children.

The determinism contract (docs/determinism.md) says every spawned child
sequence feeds **exactly one** component. The per-file rules catch seed
*arithmetic* (RPL004); this module catches stream *plumbing* mistakes
that arithmetic-free code can still make:

* ``spawn(k)`` unpacked into a different number of names — the silent
  off-by-one that reorders every downstream stream;
* a constant subscript past the declared spawn count;
* the same spawned child subscripted twice — two "independent"
  components sharing one stream (the spare-stream collision);
* one spawned child handed to two different consumers — identical coin
  flips on paths the paper requires to be independent.

Phase 1 (:func:`extract_stream_facts`) runs inside the per-file summary
pass and records plain data; phase 2 (:func:`check_streams`) walks the
aggregated model and emits findings. Violations are yielded as dicts —
the engine owns the :class:`~repro.lint.engine.Violation` type and the
suppression filter.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Iterator, List, Optional, Tuple

_SPAWN_SOURCES = ("spawn",)


class _ScopeCollector(ast.NodeVisitor):
    """Stream facts for one function body (nested defs get their own)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.spawns: List[Dict[str, Any]] = []
        #: child-stream variable -> line bound
        self.children: Dict[str, int] = {}
        self.subscripts: List[Dict[str, Any]] = []
        self.handoffs: List[Dict[str, Any]] = []
        self._spawn_vars: Dict[str, Optional[int]] = {}

    # nested scopes are collected separately — don't descend
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Assign(self, node: ast.Assign) -> None:
        spawn_count = _spawn_count(node.value)
        if spawn_count is not _NOT_SPAWN and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.spawns.append(
                    {
                        "var": target.id,
                        "count": spawn_count,
                        "unpack": None,
                        "line": node.lineno,
                    }
                )
                self._spawn_vars[target.id] = spawn_count
            elif isinstance(target, (ast.Tuple, ast.List)):
                names = [
                    e.id for e in target.elts if isinstance(e, ast.Name)
                ]
                self.spawns.append(
                    {
                        "var": None,
                        "count": spawn_count,
                        "unpack": len(target.elts),
                        "line": node.lineno,
                    }
                )
                for name in names:
                    self.children[name] = node.lineno
        elif len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            # `child = children[i]` binds a child-stream variable
            sub = _const_subscript(node.value)
            if sub is not None and sub[0] in self._spawn_vars:
                self.children[node.targets[0].id] = node.lineno
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        sub = _const_subscript(node)
        if sub is not None and sub[0] in self._spawn_vars:
            self.subscripts.append(
                {"var": sub[0], "index": sub[1], "line": node.lineno}
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = _call_name(node)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name) and arg.id in self.children:
                self.handoffs.append(
                    {
                        "var": arg.id,
                        "line": node.lineno,
                        "callee": callee or "<call>",
                    }
                )
        self.generic_visit(node)


_NOT_SPAWN = object()


def _spawn_count(node: ast.AST) -> Any:
    """``<expr>.spawn(K)`` → K (int or None); anything else → _NOT_SPAWN."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _SPAWN_SOURCES
    ):
        return _NOT_SPAWN
    if len(node.args) == 1 and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


def _const_subscript(node: ast.AST) -> Optional[Tuple[str, int]]:
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, int)
        and not isinstance(node.slice.value, bool)
    ):
        return node.value.id, node.slice.value
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return None


def extract_stream_facts(tree: ast.AST) -> List[Dict[str, Any]]:
    """Per-scope stream facts for one module (phase-1 plain data)."""
    scopes: List[Tuple[str, ast.AST]] = [("<module>", tree)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.name, node))
    out: List[Dict[str, Any]] = []
    for name, scope in scopes:
        collector = _ScopeCollector(name)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in scope.body:
                collector.visit(stmt)
        else:
            for stmt in scope.body:  # type: ignore[attr-defined]
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    collector.visit(stmt)
        if (
            collector.spawns
            or collector.subscripts
            or collector.handoffs
        ):
            out.append(
                {
                    "scope": name,
                    "spawns": collector.spawns,
                    "subscripts": collector.subscripts,
                    "handoffs": collector.handoffs,
                }
            )
    return out


def check_streams(model: Any) -> Iterator[Dict[str, Any]]:
    """Phase-2 RPL011 checker over every file's stream facts."""
    for summary in model.all_files():
        path = summary["path"]
        for scope in summary.get("stream", []):
            yield from _check_scope(path, scope)


def _check_scope(
    path: str, scope: Dict[str, Any]
) -> Iterator[Dict[str, Any]]:
    counts: Dict[str, Optional[int]] = {}
    for spawn in scope["spawns"]:
        unpack = spawn["unpack"]
        count = spawn["count"]
        if spawn["var"] is not None:
            counts[spawn["var"]] = count
        if (
            unpack is not None
            and count is not None
            and unpack != count
        ):
            yield {
                "path": path,
                "line": spawn["line"],
                "col": 0,
                "code": "RPL011",
                "message": (
                    f"spawn({count}) unpacked into {unpack} names — "
                    "stream order silently shifts for every consumer"
                ),
            }
    seen_index: Dict[Tuple[str, int], int] = {}
    for sub in scope["subscripts"]:
        key = (sub["var"], sub["index"])
        count = counts.get(sub["var"])
        if count is not None and sub["index"] >= count:
            yield {
                "path": path,
                "line": sub["line"],
                "col": 0,
                "code": "RPL011",
                "message": (
                    f"stream index [{sub['index']}] is out of range for "
                    f"`{sub['var']} = …spawn({count})`"
                ),
            }
            continue
        first = seen_index.get(key)
        if first is not None:
            yield {
                "path": path,
                "line": sub["line"],
                "col": 0,
                "code": "RPL011",
                "message": (
                    f"spare-stream collision: `{sub['var']}[{sub['index']}]` "
                    f"already consumed on line {first} — two components "
                    "now share one rng stream"
                ),
            }
        else:
            seen_index[key] = sub["line"]
    by_child: Dict[str, List[Dict[str, Any]]] = {}
    for handoff in scope["handoffs"]:
        by_child.setdefault(handoff["var"], []).append(handoff)
    for child, handoffs in by_child.items():
        lines = sorted({h["line"] for h in handoffs})
        if len(lines) > 1:
            first_line = lines[0]
            for handoff in handoffs:
                if handoff["line"] != first_line:
                    yield {
                        "path": path,
                        "line": handoff["line"],
                        "col": 0,
                        "code": "RPL011",
                        "message": (
                            f"spawned stream `{child}` already fed a "
                            f"consumer on line {first_line}; handing it to "
                            f"`{handoff['callee']}` too correlates both "
                            "components' coin flips"
                        ),
                    }
