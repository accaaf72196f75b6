"""One fresh interpreter for the benchmark: time set-up, or do one run.

    python3 perfbench/child.py setup <workload> <seed>
        import envwalk, parse the workload config and build its model, then
        print "ready" (the parent times this from process start).
    python3 perfbench/child.py once <workload> <seed>
        also run the experiment once and print the report's SHA-256 and
        whether every verdict passed, as JSON (the parent reads this
        process's peak memory).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from envwalk import experiments
    from workloads import WORKLOADS

    text = WORKLOADS[workload].text(seed)
    experiments.build_model(experiments.parse_config(text).values, seed)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    from run import run_once

    _, digest, passed = run_once(experiments, text)
    print(json.dumps({"sha256": digest, "passed": passed}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
