"""One JSONL schema for everything a run can tell you about itself.

Before this module the repository had two observability dialects: the
engine's structured :class:`~repro.sim.trace.Trace` events (JSONL, one
event per line) and the ad-hoc dictionaries benches archived. This
module unifies them: an *observation file* is JSON lines where every
line carries a ``"type"`` tag —

``manifest``
    the run's :class:`~repro.obs.manifest.RunManifest`, flattened
    (always the first line when present);
``counter``
    ``{"type": "counter", "name": ..., "value": ...}``;
``timer``
    ``{"type": "timer", "name": ..., "count": ..., "total_seconds": ...}``;
``trace``
    one engine :class:`~repro.sim.trace.TraceEvent`, tagged with the
    trial it came from — the *same* payload ``Trace.to_jsonl`` emits,
    so existing trace tooling reads observation files unchanged.

Counter and timer names are dotted; the segment before the first dot is
the *phase* (``engine.probes`` → phase ``engine``) that
:func:`summarize` groups by and ``repro obs summary`` renders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.manifest import RunManifest
from repro.obs.registry import Registry

#: a trace event paired with the trial index it was recorded in
TrialTrace = Tuple[int, Any]


def observation_lines(
    manifest: Optional[RunManifest] = None,
    registry: Optional[Registry] = None,
    traces: Optional[Sequence[TrialTrace]] = None,
) -> List[str]:
    """Render observations as JSONL lines (manifest first, then sorted
    counters, then sorted timers, then trace events in trial order)."""
    lines: List[str] = []
    if manifest is not None:
        payload = {"type": "manifest"}
        payload.update(manifest.to_dict())
        lines.append(json.dumps(payload, sort_keys=True))
    if registry is not None:
        for name, value in registry.counters().items():
            lines.append(
                json.dumps(
                    {"type": "counter", "name": name, "value": value},
                    sort_keys=True,
                )
            )
        for name, (count, total) in registry.timers().items():
            lines.append(
                json.dumps(
                    {
                        "type": "timer",
                        "name": name,
                        "count": count,
                        "total_seconds": total,
                    },
                    sort_keys=True,
                )
            )
    for trial_index, trace in traces or ():
        for event in trace:
            payload = {
                "type": "trace",
                "trial": int(trial_index),
                "seq": event.seq,
                "round": event.round_no,
                "kind": event.kind,
            }
            payload.update(event.payload)
            lines.append(json.dumps(payload, sort_keys=True))
    return lines


def write_observations(
    path: str,
    manifest: Optional[RunManifest] = None,
    registry: Optional[Registry] = None,
    traces: Optional[Sequence[TrialTrace]] = None,
) -> None:
    """Write one observation JSONL file (see the module schema)."""
    lines = observation_lines(
        manifest=manifest, registry=registry, traces=traces
    )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))


# ----------------------------------------------------------------------
@dataclass
class Observations:
    """Parsed form of one observation file."""

    manifest: Optional[RunManifest] = None
    counters: Dict[str, int] = field(default_factory=dict)
    timers: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    traces: List[Dict[str, Any]] = field(default_factory=list)


def load_observations(path: str) -> Observations:
    """Parse an observation JSONL file, failing loudly on malformed or
    unknown record types (silent tolerance would let provenance rot)."""
    try:
        with open(path) as handle:
            raw_lines = [line for line in handle.read().splitlines() if line]
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read observation file {path}: {exc}"
        ) from None
    out = Observations()
    for line_no, line in enumerate(raw_lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path} line {line_no} is not valid JSON: {exc}"
            ) from None
        kind = record.pop("type", None)
        if kind == "manifest":
            out.manifest = RunManifest.from_dict(record)
        elif kind == "counter":
            out.counters[record["name"]] = int(record["value"])
        elif kind == "timer":
            out.timers[record["name"]] = (
                int(record["count"]),
                float(record["total_seconds"]),
            )
        elif kind == "trace":
            out.traces.append(record)
        else:
            raise ConfigurationError(
                f"{path} line {line_no} has unknown record type {kind!r}"
            )
    return out


# ----------------------------------------------------------------------
def _phase(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(observations: Observations) -> Dict[str, Any]:
    """Per-phase breakdown of one observation file, JSON-safe.

    Returns ``{"manifest": ..., "phases": {phase: {"counters": {...},
    "timers": {...}}}, "trace_events": N}``; phases come from the dotted
    metric names.
    """
    phases: Dict[str, Dict[str, Any]] = {}

    def bucket(name: str) -> Dict[str, Any]:
        return phases.setdefault(
            _phase(name), {"counters": {}, "timers": {}}
        )

    for name, value in observations.counters.items():
        bucket(name)["counters"][name] = value
    for name, (count, total) in observations.timers.items():
        bucket(name)["timers"][name] = {
            "count": count,
            "total_seconds": total,
            "mean_seconds": total / count if count else 0.0,
        }
    return {
        "manifest": (
            observations.manifest.to_dict()
            if observations.manifest is not None
            else None
        ),
        "phases": {name: phases[name] for name in sorted(phases)},
        "trace_events": len(observations.traces),
    }


def render_summary(observations: Observations) -> str:
    """Human-readable per-phase timing/counter breakdown."""
    summary = summarize(observations)
    lines: List[str] = []
    manifest = observations.manifest
    if manifest is not None:
        lines.append("manifest:")
        lines.append(f"  config_hash  : {manifest.config_hash}")
        lines.append(f"  seed_entropy : {manifest.seed_entropy}")
        lines.append(f"  n_trials     : {manifest.n_trials}")
        lines.append(f"  fault_plan   : {manifest.fault_plan_digest}")
        versions = ", ".join(
            f"{k}={v}" for k, v in sorted(manifest.versions.items())
        )
        lines.append(f"  versions     : {versions}")
        lines.append(f"  git_rev      : {manifest.git_rev}")
    for phase, data in summary["phases"].items():
        lines.append(f"phase {phase}:")
        for name, value in data["counters"].items():
            lines.append(f"  {name:<34} {value:>12}")
        for name, stats in data["timers"].items():
            lines.append(
                f"  {name:<34} {stats['total_seconds']:>12.6f}s "
                f"over {stats['count']} interval(s), "
                f"mean {stats['mean_seconds'] * 1e3:.3f} ms"
            )
    if summary["trace_events"]:
        lines.append(f"trace events: {summary['trace_events']}")
    if not lines:
        lines.append("(empty observation file)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
#: manifest fields that describe *how* a run executed rather than *what*
#: it computed — the same seed on a different backend (or billboard
#: substrate, or behind a serving front-end with different admission
#: caps) produces identical results, so these never contribute to a
#: diff verdict
REPORTING_MANIFEST_FIELDS = ("executor", "substrate", "serving")

#: counter namespaces that describe the execution layer rather than the
#: computation — how many pool workers died or were retried is
#: environmental (a pool run of a seed that lost a worker must diff clean
#: against its serial twin, a sparse-substrate run against its dense
#: twin, and a served board against any admission configuration that
#: admitted the same posts), so these never flip a diff verdict
REPORTING_COUNTER_PREFIXES = ("exec.", "substrate.", "serve.")


def diff_observations(a: Observations, b: Observations) -> List[str]:
    """Human-readable differences between two observation files.

    Compares manifests field by field and counters name by name (timers
    are durations — environmental, so never part of a diff verdict, and
    the reporting-only manifest fields in
    :data:`REPORTING_MANIFEST_FIELDS` plus the counter namespaces in
    :data:`REPORTING_COUNTER_PREFIXES` — e.g. which executor backend ran
    the trials and how many workers it lost — are likewise excluded; see
    :func:`informational_differences`). Returns one line per difference;
    an empty list means the two runs claim the same provenance and
    counted the same events.
    """
    out: List[str] = []
    if (a.manifest is None) != (b.manifest is None):
        out.append(
            "manifest: present in one file only "
            f"(a={'yes' if a.manifest else 'no'}, "
            f"b={'yes' if b.manifest else 'no'})"
        )
    elif a.manifest is not None and b.manifest is not None:
        left, right = a.manifest.to_dict(), b.manifest.to_dict()
        for key in sorted(set(left) | set(right)):
            if key in REPORTING_MANIFEST_FIELDS:
                continue
            if left.get(key) != right.get(key):
                out.append(
                    f"manifest.{key}: {left.get(key)!r} != {right.get(key)!r}"
                )
    for name in sorted(set(a.counters) | set(b.counters)):
        if name.startswith(REPORTING_COUNTER_PREFIXES):
            continue
        left_value = a.counters.get(name)
        right_value = b.counters.get(name)
        if left_value != right_value:
            out.append(f"counter {name}: {left_value!r} != {right_value!r}")
    return out


def informational_differences(a: Observations, b: Observations) -> List[str]:
    """Differences in the reporting-only manifest fields and counters.

    These describe how the run executed (backend, worker roster, pool
    rebuilds and losses, the board substrate) — worth surfacing when two
    files are compared, but never grounds for declaring the runs different:
    :func:`diff_observations` ignores them by design.
    """
    out: List[str] = []
    if a.manifest is not None and b.manifest is not None:
        left, right = a.manifest.to_dict(), b.manifest.to_dict()
        for key in REPORTING_MANIFEST_FIELDS:
            if left.get(key) != right.get(key):
                out.append(
                    f"manifest.{key} (reporting only): "
                    f"{left.get(key)!r} != {right.get(key)!r}"
                )
    for name in sorted(set(a.counters) | set(b.counters)):
        if not name.startswith(REPORTING_COUNTER_PREFIXES):
            continue
        left_value = a.counters.get(name)
        right_value = b.counters.get(name)
        if left_value != right_value:
            out.append(
                f"counter {name} (reporting only): "
                f"{left_value!r} != {right_value!r}"
            )
    return out
