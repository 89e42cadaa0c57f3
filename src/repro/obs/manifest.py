"""Run provenance: the :class:`RunManifest` record.

A manifest answers, for any archived result, the questions a reviewer
asks first: *which configuration produced this, from which seed, under
which package versions, on what machine, at which git revision?* It is
deliberately free of wall-clock timestamps — a manifest is a statement
about *inputs*, and two runs of the same inputs should produce the same
manifest on the same host (the golden round-trip test pins this).

Three producers emit manifests:

* :func:`repro.sim.runner.run_trials` attaches one to every
  :class:`~repro.sim.runner.TrialResults` (``results.manifest``);
* :func:`benchmarks.artifacts.write_bench_json` embeds one in every
  ``BENCH_*.json`` trajectory file, with ``config_hash`` taken over the
  bench payload itself;
* the ``repro`` CLI's ``--obs-out`` flag writes one as the first line
  of the observation JSONL (see :mod:`repro.obs.export`).

Environment collection (versions, host, git revision) is cached per
process: it cannot change mid-run, and caching keeps manifest
construction cheap enough to do unconditionally.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

#: bump when a field is added/renamed/removed; readers check it
#: (2: added ``batch_fallback_reason``; 3: added ``executor``;
#: 4: added ``substrate``; 5: added ``serving``)
SCHEMA_VERSION = 5


def _canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, enum-safe."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonable
    )


def _jsonable(value: Any) -> Any:
    if hasattr(value, "value") and not isinstance(value, type):
        return value.value  # enums (VoteMode) hash by their stable value
    return repr(value)


def config_digest(payload: Any) -> str:
    """SHA-256 hex digest of any JSON-able configuration payload.

    Dataclasses (``EngineConfig``, ``FaultPlan``) are flattened with
    :func:`dataclasses.asdict` first so the digest depends on field
    values, never on object identity or repr formatting.
    """
    if is_dataclass(payload) and not isinstance(payload, type):
        payload = asdict(payload)
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def fault_plan_digest(plan: Optional[Any]) -> Optional[str]:
    """Digest of a :class:`~repro.faults.plan.FaultPlan` (``None`` in,
    ``None`` out — a clean run has no fault provenance to record)."""
    return None if plan is None else config_digest(plan)


# ----------------------------------------------------------------------
# Environment collection, cached per process
# ----------------------------------------------------------------------
_ENV_CACHE: Optional[Tuple[Dict[str, str], Dict[str, Any], Optional[str]]] = None


def _collect_environment() -> Tuple[Dict[str, str], Dict[str, Any], Optional[str]]:
    global _ENV_CACHE
    if _ENV_CACHE is not None:
        return _ENV_CACHE
    import platform

    import numpy

    import repro

    versions = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    }
    host = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python_implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }
    _ENV_CACHE = (versions, host, _git_revision())
    return _ENV_CACHE


def _git_revision() -> Optional[str]:
    """The repository's HEAD commit, or ``None`` outside a git checkout
    (installed wheels, exported tarballs — provenance degrades gracefully
    rather than failing)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    rev = completed.stdout.strip()
    return rev or None


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one run or artifact.

    Attributes
    ----------
    schema_version:
        Format version of this record (see :data:`SCHEMA_VERSION`).
    config_hash:
        SHA-256 over the canonical JSON of the run's configuration
        (the :class:`~repro.sim.engine.EngineConfig` for trial runs;
        the payload itself for bench artifacts).
    seed_entropy:
        ``str(SeedSequence.entropy)`` — the same fingerprint the
        checkpoint header uses, so a manifest and a checkpoint of the
        same sweep agree byte-for-byte. ``None`` when no seed applies.
    n_trials:
        Trial count of the sweep (``None`` for non-sweep artifacts).
    fault_plan_digest:
        SHA-256 of the :class:`~repro.faults.plan.FaultPlan`, or
        ``None`` for clean runs.
    batch_fallback_reason:
        Why a ``batch_lanes`` request degraded to the scalar engine
        (the :func:`~repro.sim.batch_engine.batch_fallback_reason`
        string), or ``None`` when the run batched as asked — including
        every run that never asked for batching.
    executor:
        What the execution backend did: backend name, worker roster,
        retry/loss tallies, and any degradation step
        (the :class:`~repro.exec.base.ExecutorReport` dict), or
        ``None`` for artifacts that ran no trials. **Reporting, not
        identity**: two runs of the same seed on different backends
        produce identical results, so ``repro obs diff`` reports this
        field informationally and excludes it from its verdict.
    substrate:
        The billboard storage substrate the sweep requested (``"auto"``,
        ``"dense"``, or ``"sparse"`` — see
        :mod:`repro.billboard.sparse`), or ``None`` when the caller left
        the knob at its default. Like ``executor``, this is
        **reporting, not identity**: the substrate is bit-inert, so
        ``repro obs diff`` shows it informationally and excludes it
        from its verdict.
    serving:
        The serving-layer configuration when the artifact came from a
        :class:`~repro.serve.service.BillboardService` (the
        :meth:`~repro.serve.config.ServeConfig.manifest_payload` dict:
        world dimensions, substrate knob, admission caps), or ``None``
        for batch artifacts. Admission caps shape *which* requests were
        admitted, never what an admitted request computes, so like
        ``executor`` this is **reporting, not identity** — ``repro obs
        diff`` shows it informationally and excludes it from its
        verdict.
    versions:
        ``{"python": ..., "numpy": ..., "repro": ...}``.
    host:
        Platform, machine, Python implementation, CPU count.
    git_rev:
        HEAD commit of the source checkout, or ``None`` when the
        package runs outside a git repository.
    """

    schema_version: int = SCHEMA_VERSION
    config_hash: str = ""
    seed_entropy: Optional[str] = None
    n_trials: Optional[int] = None
    fault_plan_digest: Optional[str] = None
    batch_fallback_reason: Optional[str] = None
    executor: Optional[Dict[str, Any]] = None
    substrate: Optional[str] = None
    serving: Optional[Dict[str, Any]] = None
    versions: Dict[str, str] = field(default_factory=dict)
    host: Dict[str, Any] = field(default_factory=dict)
    git_rev: Optional[str] = None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe; the inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        """Rebuild a manifest, rejecting unknown or missing-type payloads
        with a clear error instead of a ``TypeError`` deep in dataclass
        machinery."""
        from repro.errors import ConfigurationError

        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"manifest payload has unknown keys {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**dict(payload))

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, compact separators).

        Two manifests are equal iff their ``to_json`` strings are equal,
        which is what the golden round-trip test asserts bit-for-bit.
        """
        return _canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON — a short identity for diffs."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()


# ----------------------------------------------------------------------
def collect_manifest(
    seed: Any = None,
    n_trials: Optional[int] = None,
    config: Optional[Any] = None,
    fault_plan: Optional[Any] = None,
    config_payload: Optional[Any] = None,
    batch_fallback_reason: Optional[str] = None,
    executor: Optional[Dict[str, Any]] = None,
    substrate: Optional[str] = None,
    serving: Optional[Dict[str, Any]] = None,
) -> RunManifest:
    """Build a :class:`RunManifest` for the current process.

    ``config`` is the run's :class:`~repro.sim.engine.EngineConfig`
    (``None`` hashes the engine defaults as an empty payload);
    ``config_payload`` overrides it with an arbitrary JSON-able payload
    (the bench-artifact path). ``seed`` accepts anything
    :func:`repro.rng.make_seed_sequence` does; ``None`` records no seed.
    ``batch_fallback_reason`` is the runner's audit of a degraded
    ``batch_lanes`` request (``None``: no degradation happened).
    ``executor`` is the execution backend's report dict
    (:meth:`repro.exec.base.ExecutorReport.to_dict`; ``None``: no
    trials were dispatched). ``substrate`` is the billboard storage
    knob the caller requested (``None``: knob left at its default).
    ``serving`` is the serving-layer configuration record
    (:meth:`~repro.serve.config.ServeConfig.manifest_payload`;
    ``None``: the artifact did not come from a service).
    """
    from repro.rng import make_seed_sequence

    versions, host, git_rev = _collect_environment()
    if config_payload is not None:
        config_hash = config_digest(config_payload)
    else:
        config_hash = config_digest(config if config is not None else {})
    seed_entropy = (
        None if seed is None else str(make_seed_sequence(seed).entropy)
    )
    return RunManifest(
        schema_version=SCHEMA_VERSION,
        config_hash=config_hash,
        seed_entropy=seed_entropy,
        n_trials=n_trials,
        fault_plan_digest=fault_plan_digest(fault_plan),
        batch_fallback_reason=batch_fallback_reason,
        executor=executor,
        substrate=substrate,
        serving=serving,
        versions=dict(versions),
        host=dict(host),
        git_rev=git_rev,
    )
