"""Command-line experiment runner.

    envwalk --config cfg/variance.cfg --out results --format json

Exit codes: 0 all verdicts pass, 2 some verdict fails or there is none,
1 execution error.
Timing goes to stderr so report files stay byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .experiments import ConfigError, emit, parse_config, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="envwalk",
        description="Run one random-environment walk experiment from a config file.",
    )
    parser.add_argument("--config", required=True, help="path to a key=value experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads: variance-scan, fclt, counterexample; others use one")
    parser.add_argument("--out", default=".", help="output directory for report files")
    parser.add_argument("--format", default="json", choices=("csv", "json"), dest="fmt",
                        help="report format")
    args = parser.parse_args(argv)

    started = time.time()
    try:
        text = Path(args.config).read_text()
        config = parse_config(text)
        report = run(config, seed=args.seed, workers=args.workers)
        paths = emit(report, args.fmt, args.out)
    except (ConfigError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for v in report.verdicts:
        print(f"[{'PASS' if v.passed else 'FAIL'}] {report.experiment}: {v.name} "
              f"(observed {v.observed:g}, want {v.threshold})")
    for p in paths:
        print(f"wrote {p}")
    print(f"elapsed {time.time() - started:.1f}s", file=sys.stderr)
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
