"""envwalk benchmark: one workload, end to end or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload propagate-mixing --seed 1 --seconds 20 --trace 0

Each run turns the workload's config text (with ``seed = <seed>`` appended)
into checked report bytes: ``experiments.parse_config`` ->
``experiments.run`` -> ``experiments.report_json`` -> SHA-256.

``--trace 0`` reports, with tracing off:
  wall_s       median seconds of one run in a warm process, over runs
               that add up to ``--seconds`` after one untimed warm-up run;
  setup_s      median, over several fresh interpreters, of the seconds from
               process start to ready-to-run (import envwalk, parse_config,
               build_model);
  peak_rss_mb  peak resident memory of the largest process of a fresh
               interpreter that does one run (pool workers included).
The fresh interpreters run one at a time between the timed runs.

``--trace 1`` runs single-process (``workers = 1``; pool workers cannot be
traced from outside), alternating untraced and traced runs for
``--seconds``, and reports per-layer self times (medians over the traced
runs), work counts (identical in every traced run, or the runs fail),
fixed-size kernel rates, and the tracing overhead.  The spans of the last
traced run are written to ``.perfbench-trace/``.

A run fails the output check if it raises, if any verdict fails, if its
report differs from the other runs of the same seed in this invocation, or
if, at a seed recorded in ``golden.json``, its SHA-256 differs from the
recorded one.  ``fail_frac`` is failed runs over attempted runs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  BLAS/OpenMP thread pools are
pinned to one thread, so the process count equals the workload's workers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, golden_digests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
TRACE_DIR = ROOT / ".perfbench-trace"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_RUNS = 3  # timed runs (untraced) or traced runs, even past --seconds
CHILD_TIMEOUT_S = 120
# Fixed-size kernel probes, run on every workload.  The hash and the weight
# table take 2**20 elements, 8 MiB per float64 array.  On a host with a
# 300 MiB L3 and 7 GiB of RAM the rule of arrays at least 4x the last-level
# cache (1.2 GB per array, plus the hash's temporaries) cannot be met, so the
# probes state their size and no bandwidth ratio is reported.  The walker
# and pair-walker probes step FIXED_WALKERS walkers (pairs) FIXED_STEPS times
# on the mixing-lattice field at seed 0; their rates include the hashing and
# weight tables each step does.
FIXED_SIZE = 1 << 20
FIXED_WALKERS = 2048
FIXED_STEPS = 64
FIXED_REPS = 7
# Compulsory traffic only, computed: uniforms_at reads an int64 index and
# writes a float64; weight_table reads one float64 and writes two.
FIXED_NOTES = {
    "streams.ns_per_word_fixed": f"{FIXED_SIZE} elements; 16 B/element computed (compulsory)",
    "families.ns_per_row_fixed": f"{FIXED_SIZE} elements; 24 B/element computed (compulsory)",
    "walks.ns_per_walker_step_fixed": f"{FIXED_WALKERS} walkers x {FIXED_STEPS} steps",
    "diffchain.ns_per_pair_step_fixed": f"{FIXED_WALKERS} pairs x {FIXED_STEPS} steps",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# A per-layer metric is declared only if every workload measures it.  Work
# counts are exact and read 0 where a workload does not enter that code,
# which is what they are there to show.  Times and rates must be measured on
# every workload: the in-run rates and self times below that are undefined or
# exactly 0 on some workload are printed in the table only, and the fixed-size
# probes give the hash, weight-table, walker and pair-walker kernels a time
# on every workload.
PER_LAYER = {
    "streams.calls": "count",
    "streams.words": "count",
    "streams.self_s": "s",
    "streams.ns_per_word": "ns",
    "streams.ns_per_word_fixed": "ns",
    "families.weight_rows": "count",
    "families.self_s": "s",
    "families.ns_per_row_fixed": "ns",
    "environments.level_lookups": "count",
    "environments.self_s": "s",
    "walks.site_steps": "count",
    "walks.walker_steps": "count",
    "walks.walker_steps_unique": "count",
    "walks.self_s": "s",
    "walks.ns_per_walker_step_fixed": "ns",
    "diffchain.pair_steps": "count",
    "diffchain.ns_per_pair_step_fixed": "ns",
    "stats.calls": "count",
    "stats.self_s": "s",
    "experiments.chunks": "count",
    "experiments.emit_s": "s",
    "experiments.parse_s": "s",
    "trace.overhead_frac": "1",
}
# Printed in the table only: undefined (no steps to divide by) or exactly 0
# on a workload that does not enter that code.
PRINTED_ONLY = {
    "walks.walker_steps_unique_frac": "1",
    "walks.ns_per_site_step": "ns",
    "walks.ns_per_walker_step": "ns",
    "diffchain.ns_per_pair_step": "ns",
    "diffchain.self_s": "s",
    "analysis.self_s": "s",
}


class Checker:
    """Counts attempted runs and the runs that fail the output check."""

    def __init__(self, workload: str, seed: int):
        self.expected = golden_digests().get(workload, {}).get(str(seed))
        self.golden = self.expected is not None
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, digest: str | None, passed: bool) -> None:
        """Check one run's report digest and verdicts; None means it did not finish."""
        self.attempted += 1
        if digest is not None and self.expected is None:
            self.expected = digest
        problems = []
        if digest is None:
            problems.append("did not finish")
        elif digest != self.expected:
            problems.append(f"report sha256 {digest[:16]} != {self.expected[:16]}"
                            + (" (golden)" if self.golden else " (first run)"))
        if digest is not None and not passed:
            problems.append("a verdict failed")
        if problems:
            self.fail(f"{what}: {'; '.join(problems)}")

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"output check failed: {why}", file=sys.stderr)


def run_once(experiments, text: str, workers: int | None = None, tracer=None):
    """(seconds, report sha256, all verdicts passed) for one run."""
    call = tracer.call if tracer is not None else (lambda name, fn, *a, **k: fn(*a, **k))
    start = time.perf_counter()
    config = call("experiments.parse_config", experiments.parse_config, text)
    report = call("experiments.run", experiments.run, config, workers=workers)
    data = call("experiments.report_json", experiments.report_json, report).encode()
    digest = hashlib.sha256(data).hexdigest()
    return time.perf_counter() - start, digest, bool(report.passed)


def checked_run(checker: Checker, what: str, experiments, text: str, **kwargs):
    """run_once under the output check; seconds, or None if the run raised."""
    try:
        seconds, digest, passed = run_once(experiments, text, **kwargs)
    except Exception:
        traceback.print_exc()
        checker.record(what, None, False)
        return None
    checker.record(what, digest, passed)
    return seconds


def _child(mode: str, workload: str, seed: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(CHILD), mode, workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )


def setup_seconds(workload: str, seed: int) -> float | None:
    """Seconds from starting a fresh interpreter until it is ready to run.

    None if the interpreter did not report ready and exit cleanly in time.
    """
    start = time.perf_counter()
    proc = _child("setup", workload, seed)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = "a timeout"
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        print(f"set-up child ended with {code}", file=sys.stderr)
        return None
    return seconds


def child_run(workload: str, seed: int):
    """(peak RSS in MB, report sha256, passed) of one run in a fresh interpreter.

    (None, None, False) if the interpreter exited non-zero.
    """
    proc = _child("once", workload, seed)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"one-run child exited with {proc.returncode}", file=sys.stderr)
        return None, None, False
    result = json.loads(out.strip().splitlines()[-1])
    # Linux reports ru_maxrss in KiB.
    return usage.ru_maxrss / 1024.0, result["sha256"], result["passed"]


def end_to_end(experiments, workload: str, seed: int, seconds: float):
    checker = Checker(workload, seed)
    text = WORKLOADS[workload].text(seed)
    setups, rss = [], []

    def set_up_child(number: int):
        took = setup_seconds(workload, seed)
        if took is None:
            checker.record(f"set-up child {number}", None, False)
        else:
            setups.append(took)

    def one_run_child():
        rss_mb, digest, passed = child_run(workload, seed)
        checker.record("one-run child", digest, passed)
        rss.append(rss_mb)

    # The child processes run between timed runs, so that the timed runs
    # sample the host over the whole invocation: on a shared host, speed
    # drifts over tens of seconds.
    side_jobs = [lambda i=i: set_up_child(i) for i in range(1, SETUP_SAMPLES + 1)] + [one_run_child]
    checked_run(checker, "warm-up run", experiments, text)
    walls = []
    while sum(walls) < seconds or len(walls) < MIN_RUNS or side_jobs:
        wall = checked_run(checker, f"timed run {len(walls) + 1}", experiments, text)
        if wall is None:
            break
        walls.append(wall)
        if side_jobs:
            side_jobs.pop(0)()
    if len(setups) < SETUP_SAMPLES or not (walls and rss) or rss[0] is None:
        return checker, None
    rss_mb = rss[0]
    rows = [
        ("wall_s", statistics.median(walls), len(walls), f"min {min(walls):.4f}  max {max(walls):.4f}"),
        ("setup_s", statistics.median(setups), len(setups), f"min {min(setups):.4f}  max {max(setups):.4f}"),
        ("peak_rss_mb", rss_mb, 1, "largest process of a fresh one-run interpreter"),
    ]
    return checker, rows


def _median_ns_per_element(fn, n: int) -> float:
    fn()
    samples = []
    for _ in range(FIXED_REPS):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples) / n


def fixed_rates(experiments) -> dict[str, float]:
    """ns per element of the four kernel probes at their fixed sizes."""
    import numpy as np
    from envwalk import diffchain, families, streams, walks

    lanes = streams.seed_lanes(0)
    index = np.arange(FIXED_SIZE)
    u = streams.uniforms_at(lanes, index)[:, None]
    family = families.UniformPM1(0.0, 1.0)
    config = experiments.parse_config(WORKLOADS["propagate-mixing"].text(0))
    field = experiments.build_model(config.values, 0)
    walkers = np.arange(FIXED_WALKERS)
    end = [FIXED_STEPS]
    steps = FIXED_WALKERS * FIXED_STEPS
    return {
        "streams.ns_per_word_fixed": _median_ns_per_element(lambda: streams.uniforms_at(lanes, index), FIXED_SIZE),
        "families.ns_per_row_fixed": _median_ns_per_element(lambda: family.weight_table(u), FIXED_SIZE),
        "walks.ns_per_walker_step_fixed": _median_ns_per_element(
            lambda: walks.batch_quenched_positions(field, FIXED_STEPS, walkers, record_steps=end), steps),
        "diffchain.ns_per_pair_step_fixed": _median_ns_per_element(
            lambda: diffchain.batch_diff_positions(field, FIXED_STEPS, walkers, record_steps=end), steps),
    }


def traced(experiments, workload: str, seed: int, seconds: float):
    from tracing import COUNTS, Tracer

    checker = Checker(workload, seed)
    text = WORKLOADS[workload].text(seed)
    checked_run(checker, "warm-up run", experiments, text, workers=1)
    fixed = fixed_rates(experiments)
    plain, walls, summaries = [], [], []
    tracer = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(summaries) < MIN_RUNS:
        wall = checked_run(checker, f"untraced run {len(plain) + 1}", experiments, text, workers=1)
        if wall is None:
            break
        plain.append(wall)
        tracer = Tracer()
        with tracer.installed():
            wall = checked_run(checker, f"traced run {len(walls) + 1}", experiments, text,
                               workers=1, tracer=tracer)
        if wall is None:
            break
        walls.append(wall)
        summaries.append(tracer.summary())
    if not summaries:
        return checker, None
    for key in COUNTS:
        if len({s[key] for s in summaries}) != 1:
            checker.fail(f"{key} differs between traced runs: {[s[key] for s in summaries]}")
    tracer.write(TRACE_DIR / f"{workload}-seed{seed}.json")

    values = {}
    for key in summaries[0]:
        samples = [s[key] for s in summaries if s[key] is not None]
        if samples:
            values[key] = samples[0] if len(set(samples)) == 1 else statistics.median(samples)
        else:
            values[key] = None
    values["trace.overhead_frac"] = statistics.median(walls) / statistics.median(plain) - 1.0
    rows = []
    for key in {**PER_LAYER, **PRINTED_ONLY}:
        if key in FIXED_NOTES:
            rows.append((key, fixed[key], FIXED_REPS, FIXED_NOTES[key]))
        else:
            rows.append((key, values[key], len(summaries), ""))
    return checker, rows


def environment_lines() -> list[str]:
    import numpy
    import scipy

    caches = []
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level}{'' if kind == 'Unified' else kind[0].lower()} {size}")
    pins = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return [
        f"python {platform.python_version()}  numpy {numpy.__version__}  scipy {scipy.__version__}",
        f"nproc {len(os.sched_getaffinity(0))}  caches {', '.join(caches) or 'unknown'}  {pins}",
    ]


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "envwalk" / "__init__.py").is_file():
        print(f"error: no envwalk sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from envwalk import experiments

    for line in environment_lines():
        print(line)
    workers = experiments.parse_config(WORKLOADS[args.workload].text(args.seed)).values["workers"]
    print(f"workload {args.workload}  seed {args.seed}  workers {1 if args.trace else workers}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        checker, rows = traced(experiments, args.workload, args.seed, args.seconds)
        wanted = PER_LAYER
    else:
        checker, rows = end_to_end(experiments, args.workload, args.seed, args.seconds)
        wanted = END_TO_END

    metrics = {}
    if rows is not None:
        print(f"{'metric':32} {'value':>14} {'unit':6} {'samples':>7}  note")
        units = {**END_TO_END, **PER_LAYER, **PRINTED_ONLY}
        for name, value, samples, note in rows:
            print(f"{name:32} {_fmt(value):>14} {units[name]:6} {samples:>7}  {note}")
            if name in wanted:
                metrics[name] = {"value": value, "unit": wanted[name]}
    print(f"{'fail_frac':32} {_fmt(checker.failed / checker.attempted):>14} {'1':6} "
          f"{checker.attempted:>7}  failed {checker.failed} of {checker.attempted} runs"
          + ("; golden digest checked" if checker.golden else "; no golden digest at this seed"))
    print(json.dumps({
        "correct": rows is not None and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
