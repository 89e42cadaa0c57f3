"""Benchmark artifact locations.

``BENCH_*.json`` trajectory files are the repo's performance record. Each
is written once, at the **repo root** — next to README.md, where the
performance tables cite it and CI uploads it. (``benchmarks/results/``
holds the experiment tables, not these files.)

Every artifact written here carries an embedded ``manifest`` key — a
:class:`~repro.obs.manifest.RunManifest` whose ``config_hash`` is taken
over the bench payload itself — so a checked-in number can always be
traced back to the package versions, host, and git revision that
produced it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def write_bench_json(name: str, data: Dict[str, Any]) -> str:
    """Write one ``BENCH_*.json`` to the repo root; return its path.

    A ``manifest`` provenance record is embedded into the payload (the
    caller's ``data`` mapping is not mutated).
    """
    from repro.obs.manifest import collect_manifest

    payload = dict(data)
    payload["manifest"] = collect_manifest(config_payload=data).to_dict()
    path = os.path.join(REPO_ROOT, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
