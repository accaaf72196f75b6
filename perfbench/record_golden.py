"""Record each workload's report SHA-256 at seeds 0..GOLDEN_SEEDS-1 into golden.json.

    python3 perfbench/record_golden.py

The benchmark fails every run whose report differs from the digest recorded
for its workload and seed.  Re-record only for a change that alters report
bytes on purpose, and name the cause where the change is described.  A seed
whose report has a failing verdict is not recorded and makes this exit 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import GOLDEN_PATH, GOLDEN_SEEDS, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from envwalk import experiments
    from run import run_once

    golden, failing = {}, []
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in range(GOLDEN_SEEDS):
            _, digest, passed = run_once(experiments, workload.text(seed))
            print(name, seed, digest, "pass" if passed else "FAIL", flush=True)
            if passed:
                golden[name][str(seed)] = digest
            else:
                failing.append((name, seed))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
