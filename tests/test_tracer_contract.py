"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps envwalk functions by name and binds some of
their parameter names; ``perfbench/run.py`` prints every ``PER_LAYER``
metric of a traced run as a number.  A renamed hook fails when the tracer
installs, and a metric that is not a finite number fails here, in a run
small enough for the unit suite.  The fixed-size kernel probes, which call
the batched walkers directly, must give finite positive rates.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SMALL_RUNS = {
    "variance-scan": "experiment = variance-scan\nmodel = mixing-lattice\nn_grid = 16, 32, 64, 128\n"
                     "env_replicas = 20\nworkers = 1\n",
    "counterexample": "experiment = counterexample\nmodel = level-correlated\nepsilon = 0.015625\n"
                      "walk_replicas = 200\nenv_seeds = 2\npass_seeds = 1\nworkers = 1\n",
    "occupation": "experiment = occupation\nmodel = mixing-lattice\nn_grid = 16, 32, 64, 128\n"
                  "replicas = 50\nworkers = 1\n",
}


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", SMALL_RUNS)
def test_traced_run_gives_finite_per_layer_metrics(perfbench, name):
    from envwalk import experiments

    tracing, run = perfbench
    tracer = tracing.Tracer()
    with tracer.installed():
        run.run_once(experiments, SMALL_RUNS[name], workers=1, tracer=tracer)
    summary = tracer.summary()
    reported = {key: summary[key] for key in run.PER_LAYER if key in summary}
    assert reported
    bad = {key: value for key, value in reported.items()
           if not isinstance(value, (int, float)) or not math.isfinite(value)}
    assert not bad
    # the benchmark's last line carries these metrics as strict JSON
    json.dumps({key: {"value": value, "unit": run.PER_LAYER[key]} for key, value in reported.items()},
               allow_nan=False)


def test_fixed_kernel_probes_give_positive_rates(perfbench):
    # The probes call the batched walkers directly, outside any experiment.
    from envwalk import experiments

    _, run = perfbench
    rates = run.fixed_rates(experiments)
    assert set(rates) == set(run.FIXED_NOTES)
    assert all(isinstance(r, float) and math.isfinite(r) and r > 0 for r in rates.values())
