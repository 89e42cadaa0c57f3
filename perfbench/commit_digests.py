"""Recompute ``perfbench/digests.json``: the committed output digests.

    PYTHONPATH=src python3 perfbench/commit_digests.py

For the default seed (0) and one held-out seed (1) this runs each
simulation workload's unit once and records its digest. lanes_grid's
digest is also recomputed cell by cell on the scalar engine
(``run_trials`` with ``batch_lanes=1``); the two must agree or nothing
is written, since the batched lanes are pinned bit-identical to it.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sims  # noqa: E402

SEEDS = (0, 1)


def scalar_lanes_digest(seed: int) -> str:
    return sims.results_digest(
        [
            sims.e3_trials(cell.make_instance, cell.n_trials, cell.seed, sims.E3_CONFIG,
                            batch_lanes=1, fault_plan=cell.fault_plan)
            for cell in sims.lanes_grid_cells(seed)
        ]
    )


def main() -> int:
    table = {}
    for workload in sims.SIM_WORKLOADS:
        table[workload] = {}
        for seed in SEEDS:
            phase = sims.run_phase(sims.unit_calls(workload, seed), 0.0, max_reps=1)
            if phase.errors:
                print(f"{workload} seed {seed}: {phase.errors}", file=sys.stderr)
                return 1
            digest = phase.digests[0]
            if workload == "lanes_grid" and scalar_lanes_digest(seed) != digest:
                print(f"lanes_grid seed {seed}: scalar engine digest differs", file=sys.stderr)
                return 1
            table[workload][str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", flush=True)
    with open(sims.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
