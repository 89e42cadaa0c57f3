"""Rule catalogue and the AST checker behind ``reprolint``.

Each rule protects one clause of the repo's determinism contract (see
``docs/static_analysis.md`` for the full rationale per code). Rules are
deliberately *project-specific*: they know the repo's stream-derivation
idioms (:class:`~repro.rng.RngFactory`, ``SeedSequence.spawn``), which
packages are determinism-critical, and what the batched-engine parity
contract demands of lane-indexed classes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable code, what it flags, and how to fix it."""

    code: str
    name: str
    summary: str
    hint: str


#: packages whose modules feed seeded engine state; wall-clock reads and
#: hash-order iteration inside them are determinism hazards (RPL005/006)
CRITICAL_PACKAGES: Tuple[str, ...] = (
    "sim",
    "billboard",
    "adversaries",
    "strategies",
    "faults",
)

RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "RPL001",
            "numpy-global-rng",
            "call into numpy's legacy global RNG (np.random.<fn>)",
            "draw from an explicit numpy.random.Generator stream "
            "(repro.rng.make_generator / RngFactory)",
        ),
        Rule(
            "RPL002",
            "stdlib-rng",
            "import of the stdlib `random`/`secrets` modules",
            "all randomness must flow through seeded numpy Generator "
            "streams (repro.rng); stdlib RNGs bypass the seed tree",
        ),
        Rule(
            "RPL003",
            "unseeded-generator",
            "generator/seed-sequence built without an explicit seed",
            "pass a seed or SeedSequence; unseeded construction pulls "
            "OS entropy and is unreproducible",
        ),
        Rule(
            "RPL004",
            "seed-arithmetic",
            "arithmetic seed derivation (e.g. `seed + 1`) feeding an rng",
            "derive independent streams with SeedSequence(seed).spawn(k) "
            "or repro.rng.RngFactory; nearby integer seeds give "
            "correlated PCG64 states",
        ),
        Rule(
            "RPL005",
            "wall-clock",
            "wall-clock/OS-entropy read in a determinism-critical package",
            "engine packages must be pure functions of (instance, seed); "
            "take timestamps outside sim/billboard/adversaries/"
            "strategies/faults",
        ),
        Rule(
            "RPL006",
            "unordered-iteration",
            "iteration over a set in a determinism-critical package",
            "set iteration order depends on PYTHONHASHSEED; iterate "
            "sorted(...) or an explicitly ordered sequence",
        ),
        Rule(
            "RPL007",
            "mutable-default",
            "mutable default argument",
            "default to None and create the object inside the function; "
            "a shared mutable default leaks state across calls",
        ),
        Rule(
            "RPL008",
            "batched-scalar-rng",
            "scalar `self.rng` used inside a lane-indexed (Batched*) class",
            "batched classes must draw from their lane's pinned stream "
            "(e.g. self._rngs[lane]) in scalar order, or the "
            "batched-vs-scalar bit-identity contract breaks",
        ),
        Rule(
            "RPL009",
            "bare-suppression",
            "malformed `# repro: noqa` suppression (missing reason)",
            "write `# repro: noqa=RPLxxx(reason)` — every suppression "
            "must say why the contract does not apply",
        ),
        Rule(
            "RPL011",
            "rng-stream-flow",
            "rng stream misuse across spawn/handoff paths",
            "every SeedSequence child feeds exactly one component: spawn "
            "enough children, index each exactly once, and never hand "
            "the same stream to two engine/component paths — shared "
            "streams correlate what the model says is independent",
        ),
        Rule(
            "RPL012",
            "knob-trio-drift",
            "run-configuration knob missing part of its flag/env/resolver "
            "trio or its docs entry",
            "every REPRO_* knob must be reachable three ways — a CLI "
            "flag whose help names the variable, the environment "
            "variable itself, and a default_*/resolve_* reader — and be "
            "documented in docs/",
        ),
        Rule(
            "RPL013",
            "counter-registry-drift",
            "obs counter/timer name out of sync with the declared "
            "registry or docs",
            "declare every metric name in repro.obs.names and document "
            "it in docs/observability.md; an undeclared name at a call "
            "site is how a typo silently creates a parallel counter",
        ),
    )
}

#: the only numpy.random attributes that are part of the Generator-era
#: seeding API; calling anything else on numpy.random is the legacy
#: global-state interface (RPL001)
_NP_RANDOM_ALLOWED: Set[str] = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: callables that consume a seed/SeedSequence as their first argument —
#: the places where RPL003 (missing seed) and RPL004 (seed arithmetic)
#: apply. Names cover both dotted resolution and bare imports of the
#: repo's own helpers.
_SEED_CONSUMERS: Set[str] = {
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
    "repro.rng.make_generator",
    "repro.rng.make_seed_sequence",
    "make_generator",
    "make_seed_sequence",
    "RngFactory.from_seed",
}

#: wall-clock / OS-entropy reads (RPL005). ``time.sleep`` is absent on
#: purpose: pacing (retry backoff) never feeds engine state.
_WALL_CLOCK: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: method names that read the clock on a datetime/date object (RPL005)
_DATETIME_NOW: Set[str] = {"now", "utcnow", "today"}

#: base classes that mark a class as lane-indexed (RPL008)
_BATCHED_BASES: Set[str] = {"BatchedStrategy", "BatchedAdversary"}


def is_critical_path(path: str) -> bool:
    """Whether ``path`` lives in a determinism-critical engine package."""
    parts = path.replace("\\", "/").split("/")
    return any(part in CRITICAL_PACKAGES for part in parts[:-1])


@dataclass(frozen=True, order=True)
class RawViolation:
    """A rule hit before suppression processing."""

    line: int
    col: int
    code: str
    message: str


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve ``a.b.c`` attribute chains to a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _mentions_seed(node: ast.AST) -> bool:
    """Whether any name/attribute inside ``node`` is seed-like."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "seed" in sub.attr.lower():
            return True
    return False


def _has_seed_arithmetic(node: ast.AST) -> bool:
    """Whether ``node`` contains a binary op over a seed-like operand.

    ``SeedSequence(seed).spawn(k)`` has no BinOp and passes; ``seed + 1``,
    ``2 * seed + i`` and friends are flagged.
    """
    return any(
        isinstance(sub, ast.BinOp) and _mentions_seed(sub)
        for sub in ast.walk(node)
    )


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class _Checker(ast.NodeVisitor):
    """Single-pass AST visitor emitting :class:`RawViolation` records."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.critical = is_critical_path(path)
        self.violations: List[RawViolation] = []
        #: local alias -> canonical module (e.g. ``np`` -> ``numpy``)
        self._module_aliases: Dict[str, str] = {}
        #: local name -> canonical dotted origin for from-imports
        self._name_origins: Dict[str, str] = {}
        #: stack of (class name, is_batched) for RPL008
        self._class_stack: List[Tuple[str, bool]] = []

    # -- bookkeeping ----------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self._module_aliases[local] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            root = alias.name.split(".")[0]
            if root in ("random", "secrets"):
                self._emit(node, "RPL002", f"`import {alias.name}`")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if root in ("random", "secrets") and node.level == 0:
            self._emit(node, "RPL002", f"`from {module} import ...`")
        for alias in node.names:
            local = alias.asname or alias.name
            if module:
                self._name_origins[local] = f"{module}.{alias.name}"
            if module == "numpy.random" and alias.name not in _NP_RANDOM_ALLOWED:
                self._emit(
                    node,
                    "RPL001",
                    f"`from numpy.random import {alias.name}` exposes the "
                    "legacy global RNG",
                )
        self.generic_visit(node)

    def _resolve(self, func: ast.AST) -> Optional[str]:
        """Canonical dotted name of a call target, through local aliases."""
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self._module_aliases:
            head = self._module_aliases[head]
            return f"{head}.{rest}" if rest else head
        if head in self._name_origins:
            origin = self._name_origins[head]
            return f"{origin}.{rest}" if rest else origin
        return dotted

    # -- class context (RPL008) ----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        base_names = {
            name.split(".")[-1]
            for name in (_dotted_name(base) for base in node.bases)
            if name is not None
        }
        batched = bool(base_names & _BATCHED_BASES) or (
            node.name.startswith("Batched") and "PerLane" not in node.name
        )
        # Per-lane adapters hold one scalar instance per lane; the scalar
        # instances' own self.rng *is* that lane's pinned stream.
        if base_names & {"PerLaneStrategy", "PerLaneAdversary"}:
            batched = False
        self._class_stack.append((node.name, batched))
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr == "rng"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self._class_stack
            and self._class_stack[-1][1]
        ):
            self._emit(
                node,
                "RPL008",
                f"`self.rng` inside lane-indexed class "
                f"`{self._class_stack[-1][0]}`",
            )
        self.generic_visit(node)

    # -- calls (RPL001/003/004/005) -------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func)
        if resolved is not None:
            self._check_numpy_legacy(node, resolved)
            self._check_seed_consumer(node, resolved)
            if self.critical:
                self._check_wall_clock(node, resolved)
        self._check_seed_keywords(node)
        self.generic_visit(node)

    def _check_numpy_legacy(self, node: ast.Call, resolved: str) -> None:
        prefix, _, attr = resolved.rpartition(".")
        if prefix == "numpy.random" and attr not in _NP_RANDOM_ALLOWED:
            self._emit(node, "RPL001", f"`{resolved}(...)`")

    def _check_seed_consumer(self, node: ast.Call, resolved: str) -> None:
        consumer = resolved in _SEED_CONSUMERS or (
            resolved.endswith(".from_seed") and "RngFactory" in resolved
        )
        if not consumer:
            return
        seed_args = list(node.args) + [
            kw.value
            for kw in node.keywords
            if kw.arg is not None and "seed" in kw.arg.lower()
        ]
        if not seed_args or all(_is_none(arg) for arg in seed_args):
            self._emit(node, "RPL003", f"`{resolved}()` without a seed")
        # keyword `seed=` arithmetic is flagged once, by the generic
        # keyword check below — only positional args are checked here
        for arg in node.args:
            if _has_seed_arithmetic(arg):
                self._emit(
                    node,
                    "RPL004",
                    f"`{resolved}({ast.unparse(arg)})` derives a stream "
                    "by seed arithmetic",
                )

    def _check_seed_keywords(self, node: ast.Call) -> None:
        """`seed=` keywords of *any* call must not carry seed arithmetic."""
        for kw in node.keywords:
            if kw.arg is None or "seed" not in kw.arg.lower():
                continue
            if _has_seed_arithmetic(kw.value):
                self._emit(
                    node,
                    "RPL004",
                    f"`{kw.arg}={ast.unparse(kw.value)}` derives a stream "
                    "by seed arithmetic",
                )

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if resolved in _WALL_CLOCK:
            self._emit(node, "RPL005", f"`{resolved}()`")
            return
        prefix, _, attr = resolved.rpartition(".")
        if attr in _DATETIME_NOW and prefix.split(".")[-1] in (
            "datetime",
            "date",
        ):
            self._emit(node, "RPL005", f"`{resolved}()`")

    # -- iteration order (RPL006) ---------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _check_set_iteration(self, iterable: ast.AST) -> None:
        if not self.critical:
            return
        flagged: Optional[str] = None
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            flagged = "a set literal"
        elif isinstance(iterable, ast.Call):
            name = self._resolve(iterable.func)
            if name in ("set", "frozenset"):
                flagged = f"`{name}(...)`"
        if flagged is not None:
            self._emit(iterable, "RPL006", f"iterating {flagged}")

    # -- defaults (RPL007) ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_defaults(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if not mutable and isinstance(default, ast.Call):
                name = self._resolve(default.func)
                mutable = name in (
                    "list",
                    "dict",
                    "set",
                    "bytearray",
                    "collections.defaultdict",
                    "defaultdict",
                )
            if mutable:
                self._emit(
                    default,
                    "RPL007",
                    f"default `{ast.unparse(default)}` is mutable",
                )

    # -- emission -------------------------------------------------------
    def _emit(self, node: ast.AST, code: str, detail: str) -> None:
        rule = RULES[code]
        self.violations.append(
            RawViolation(
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=f"{rule.summary}: {detail}",
            )
        )


def check_tree(tree: ast.AST, path: str) -> List[RawViolation]:
    """Run every rule over one parsed module; sorted by position."""
    checker = _Checker(path)
    checker.visit(tree)
    return sorted(checker.violations)


def iter_rules() -> Iterator[Rule]:
    """Rules in code order (for ``--list-rules`` and the docs test)."""
    for code in sorted(RULES):
        yield RULES[code]


def select_codes(select: Optional[Sequence[str]]) -> Set[str]:
    """Validate a ``--select`` list; default to every rule."""
    if not select:
        return set(RULES)
    unknown = [code for code in select if code not in RULES]
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return set(select)
