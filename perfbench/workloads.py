"""The benchmark's workloads: one experiment config each.

Each workload is run the way users run envwalk: config text in, a report
with verdicts out.  The workload seed is spliced into the config text, so
the program sees nothing but the generated input.

Sizes are cut down from the shipped configs so that one run takes a few
seconds on a 2-core machine, and chosen so that every verdict passes with
margin at every seed tried (0 to GOLDEN_SEEDS - 1, whose digests
golden.json records, and 40-49).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEEDS = 32  # golden.json holds the report digests of seeds 0..GOLDEN_SEEDS-1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str

    def text(self, seed: int) -> str:
        return self.config + f"seed = {seed}\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "propagate-mixing",
            "dense exact propagation of the quenched law: per-cell hashing and weight tables; no walkers, no pool",
            "experiment = variance-scan\n"
            "model = mixing-lattice\n"
            "mean_method = exact\n"
            "n_grid = 16, 32, 64, 128, 256, 512, 1024\n"
            "env_replicas = 256\n"
            "eta_max = 0.9\n"
            "workers = 1\n",
        ),
        Workload(
            "counterexample-level",
            "batch quenched walkers on a level-correlated field, each walk run twice, through the 2-worker process pool",
            "experiment = counterexample\n"
            "model = level-correlated\n"
            "epsilon = 0.001953125\n"
            "walk_replicas = 1000\n"
            "env_seeds = 10\n"
            "pass_seeds = 8\n"
            "workers = 2\n",
        ),
        Workload(
            "diffchain-occupation",
            "difference-chain pair walker with per-cell field lookups at scattered positions; no propagation, no pool",
            "experiment = occupation\n"
            "model = mixing-lattice\n"
            "n_grid = 16, 32, 64, 128, 256, 512, 1024, 2048\n"
            "box_eps = 0.2\n"
            "replicas = 1000\n"
            "workers = 1\n",
        ),
    )
}


def golden_digests() -> dict[str, dict[str, str]]:
    """Recorded report SHA-256 per workload and seed (seed as a string)."""
    return json.loads(GOLDEN_PATH.read_text())
