import concurrent.futures
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import envwalk
from envwalk import experiments, streams
from envwalk.cli import main as cli_main
from envwalk.experiments import (
    EXPERIMENTS,
    MODELS,
    ConfigError,
    emit,
    parse_config,
    report_json,
    run,
)
from envwalk.stats import ks_two_sample_critical


def test_parse_types_and_defaults():
    cfg = parse_config("experiment = variance-scan\nn_grid = 4, 8, 16, 32\nenv_replicas = 50\n")
    assert cfg.experiment == "variance-scan"
    assert cfg.values["n_grid"] == [4, 8, 16, 32]
    assert cfg.values["env_replicas"] == 50
    assert cfg.values["seed"] == 20100308  # documented default
    assert cfg.values["mean_method"] == "exact"


def test_parse_comments_and_floats():
    cfg = parse_config("# a comment\nexperiment = fclt\nepsilon = 0.0009765625  # 2^-10\n")
    assert cfg.values["epsilon"] == 2.0**-10


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="replicsa"):
        parse_config("experiment = phi-decay\nreplicsa = 100\n")


def test_unknown_experiment_and_model_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config("experiment = nonsense\n")
    with pytest.raises(ConfigError, match="unknown model"):
        parse_config("experiment = moments\nmodel = nonsense\n")


def test_missing_experiment_and_bad_lines():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("model = mixing-lattice\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment = moments\njust some words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("experiment = moments\nseed = 1\nseed = 2\n")


@pytest.mark.parametrize(
    "experiment, line",
    [
        ("moments", "env_replicas = 1"),
        ("variance-scan", "env_replicas = 1"),
        ("phi-decay", "replicas = 1"),
        ("moments", "walks_per_env = 0"),
        ("moments", "seed = 1.5"),
        ("fclt", "epsilon = abc"),
        ("fclt", "walk_replicas = 49"),
        ("counterexample", "walk_replicas = 10"),
        ("fclt", "expect_marginals = fial"),
        ("occupation", "kind = same"),
        ("variance-scan", "dependence_range = 1e-18"),
        ("occupation", "dependence_range = 1e-300"),
        ("phi-decay", "x_grid = 0, 1e19"),
        ("phi-decay", "x_grid = -8796093022208, 0"),
        # a repeated list value would repeat its rows and verdicts
        ("identity-check", "n_list = 4, 4"),
        ("fclt", "time_points = 1, 1"),
        ("fclt", "time_points = 0.5, 1, 1.0"),
        ("variance-scan", "n_grid = 16, 16, 32, 64, 128"),
        ("occupation", "n_grid = 16, 32, 16"),
        ("ychain-exit", "r_grid = 4, 8, 4"),
        ("phi-decay", "x_grid = 0, 1, 0.0"),
        # a time point below epsilon reads step 0, two in one step one sample twice
        ("fclt", "time_points = 0.0005, 0.5"),
        ("counterexample", "time_points = 0.25, 0.0009765"),
        ("fclt", "time_points = 0.5, 0.5000001"),
        ("counterexample", "time_points = 0.25, 1.0009765, 1"),
        # below 6 replicas the first-step symmetry test cannot reject
        ("ychain-exit", "symmetry_replicas = 5"),
        ("ychain-exit", "symmetry_replicas = 1"),
        # one occupation sample has no spread, so the identity's RHS would have no SE
        ("identity-check", "y_replicas = 1"),
        # more passing fields than fields could never pass
        ("fclt", "pass_seeds = 11"),
        ("counterexample", "pass_seeds = 11"),
        # an integer past int64 would overflow numpy's integers
        ("occupation", f"n_grid = 16, {10**30}"),
        ("variance-scan", f"n_grid = 16, {10**30}"),
        ("max-drift", f"n_hi = {10**30}"),
        ("fclt", f"env_seeds = {10**30}"),
        ("phi-decay", f"replicas = {2**63}"),
        ("variance-scan", f"eta_min = {-(2**63) - 1}"),
        # a time point whose step floor(t / epsilon) is past int64
        ("fclt", "time_points = 0.5, 1e300"),
        ("counterexample", "time_points = 1e308"),
        # a box radius horizon ** box_eps (or n ** box_eps) that overflows a float
        ("ychain-excursion", "box_eps = 100"),
        ("occupation", "box_eps = 1000"),
    ],
)
def test_bad_value_rejected_by_line_and_key(experiment, line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=rf"^line 2: {key}: "):
        parse_config(f"experiment = {experiment}\n{line}\n")


def _text(value) -> str:
    return ", ".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_default_round_trips(experiment):
    defaults = parse_config(f"experiment = {experiment}\n").values
    for key, value in defaults.items():
        if value is None:  # optional: absent unless given
            continue
        parsed = parse_config(f"experiment = {experiment}\n{key} = {_text(value)}\n").values[key]
        assert repr(parsed) == repr(value), key


_KEYS = {e: sorted(parse_config(f"experiment = {e}\n").values) + ["bogus"] for e in EXPERIMENTS}
_WORDS = (*EXPERIMENTS, *MODELS, "exact", "mc", "velocity", "quenched_mean", "pass", "fail", "same_env", "independent_env")
_VALUE = st.one_of(
    st.sampled_from(_WORDS),
    st.integers(0, 64).map(str),
    st.floats(0, 1).map(repr),
    st.one_of(st.integers(-(2**70), 2**70).map(str), st.floats().map(repr), st.text(max_size=6)),
)


@st.composite
def _config_text(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    lines = [f"experiment = {experiment}"]
    for key in draw(st.lists(st.sampled_from(_KEYS[experiment]), max_size=4, unique=True)):
        lines.append(f"{key} = {', '.join(draw(st.lists(_VALUE, min_size=1, max_size=2)))}")
    lines += draw(st.lists(st.sampled_from(["", "# note"]), max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=500)
@given(st.one_of(st.text(), _config_text()))
def test_any_text_parses_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    # what parses is typed: each value reads back unchanged
    for key, value in cfg.values.items():
        if value is not None:
            again = parse_config(f"experiment = {cfg.experiment}\n{key} = {_text(value)}\n").values[key]
            assert repr(again) == repr(value)
        # every integer but the uint64 seed fits numpy's int64
        if key != "seed":
            assert all(-(2**63) <= x < 2**63 for x in np.atleast_1d(value) if isinstance(x, int))


SMALL_VARIANCE = "experiment = variance-scan\nn_grid = 16, 32, 64, 128\nenv_replicas = 300\n"
SMALL_FCLT = "experiment = fclt\nwalk_replicas = 200\nenv_seeds = 3\npass_seeds = 1\n"

# Runs in a fresh interpreter: each mean method of variance-scan (one job
# per chunk of 128 replicas) and occupation at one worker, and variance-scan
# and counterexample at two.  Workers are threads, so none of them loads
# multiprocessing.
_RUNS_IN_A_FRESH_INTERPRETER = """
import sys
from envwalk.experiments import parse_config, run
for text in sys.argv[1:]:
    run(parse_config(text))
assert "multiprocessing" not in sys.modules, sorted(m for m in sys.modules if m.startswith("multiprocessing"))
"""


def test_single_worker_runs_do_not_import_multiprocessing():
    texts = [
        "experiment = variance-scan\nn_grid = 4, 8, 16, 32\nenv_replicas = 300\n",
        "experiment = variance-scan\nn_grid = 4, 8, 16, 32\nenv_replicas = 300\nmean_method = mc\n",
        "experiment = occupation\nn_grid = 16, 64, 256, 1024\nreplicas = 100\n",
        "experiment = variance-scan\nn_grid = 4, 8, 16, 32\nenv_replicas = 300\nworkers = 2\n",
        "experiment = counterexample\nwalk_replicas = 200\nenv_seeds = 2\npass_seeds = 1\nworkers = 2\n",
    ]
    path = os.pathsep.join(filter(None, [str(Path(envwalk.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _RUNS_IN_A_FRESH_INTERPRETER, *texts],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_pool_is_capped_at_the_cpus_this_process_may_use(monkeypatch):
    sizes = []  # max_workers of each pool; the stand-in maps on the calling thread

    def pool(max_workers):
        sizes.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    jobs = range(10)
    assert experiments._pmap(abs, jobs, 100000) == list(jobs)
    assert experiments._pmap(abs, jobs, 2) == list(jobs)
    assert experiments._pmap(abs, range(2), 100000) == [0, 1]
    assert sizes == [3, 2, 2]
    cfg = parse_config(SMALL_FCLT)
    assert report_json(run(cfg, workers=100000)) == report_json(run(cfg, workers=1))
    assert sizes == [3, 2, 2, 3]
    # Where affinity is unavailable the cap is the CPU count, and with none known, one.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert experiments._pmap(abs, jobs, 100000) == list(jobs)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiments._pmap(abs, jobs, 100000) == list(jobs)
    assert sizes == [3, 2, 2, 3, 5]


def test_threaded_runs_at_once_give_the_bytes_of_runs_one_after_the_other():
    configs = [parse_config(SMALL_FCLT), parse_config(SMALL_VARIANCE)]
    alone = [report_json(run(cfg, workers=2)) for cfg in configs]
    start = threading.Barrier(len(configs))

    def at_once(cfg):
        start.wait()
        return report_json(run(cfg, workers=2))

    with concurrent.futures.ThreadPoolExecutor(len(configs)) as pool:
        assert list(pool.map(at_once, configs)) == alone


def test_run_is_deterministic():
    cfg = parse_config(SMALL_VARIANCE)
    a = report_json(run(cfg))
    b = report_json(run(cfg))
    assert a == b


def test_workers_do_not_change_report():
    cfg = parse_config(SMALL_VARIANCE)
    a = report_json(run(cfg, workers=1))
    b = report_json(run(cfg, workers=4))
    assert a == b


def test_seed_override_changes_report():
    cfg = parse_config(SMALL_VARIANCE)
    a = report_json(run(cfg))
    b = report_json(run(cfg, seed=777))
    assert a != b
    assert json.loads(b)["resolved"]["seed"] == 777
    with pytest.raises(ConfigError, match="^seed: must be <= 18446744073709551615"):
        run(cfg, seed=2**64)


def test_report_carries_config_and_metadata(tmp_path):
    cfg = parse_config(SMALL_VARIANCE)
    report = run(cfg)
    doc = json.loads(report_json(report))
    assert doc["config_text"] == SMALL_VARIANCE
    assert doc["resolved"]["seed"] == 20100308
    assert doc["artifact"]["name"] == "envwalk"
    grids = [r["grid"] for r in doc["rows"] if r["name"] == "estimate"]
    assert grids == [16.0, 32.0, 64.0, 128.0]


def test_emit_json_and_csv(tmp_path):
    cfg = parse_config("experiment = moments\nenv_replicas = 5000\n")
    report = run(cfg)
    paths = emit(report, "json", tmp_path)
    assert paths[0].name == "moments_report.json"
    doc = json.loads(paths[0].read_text())
    assert doc["experiment"] == "moments"
    paths = emit(report, "csv", tmp_path)
    rows, verdicts = (p.read_text() for p in paths)
    assert rows.splitlines()[0] == "experiment,section,name,grid,replica,value,se,count,note"
    assert verdicts.splitlines()[0] == "experiment,name,passed,observed,threshold"
    assert len(rows.splitlines()) == len(report.rows) + 1


def test_counterexample_report_contains_both_verdicts():
    cfg = parse_config(
        "experiment = counterexample\nwalk_replicas = 1500\nenv_seeds = 3\npass_seeds = 2\n"
    )
    report = run(cfg)
    names = {v.name for v in report.verdicts}
    assert "velocity_marginals_rejected" in names
    assert "quenched_mean_marginals_gaussian" in names
    assert report.resolved["model"] == "level-correlated"


def test_cli_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("experiment = moments\nenv_replicas = 5000\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "moments_report.json" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = moments\nbogus_key = 1\n")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "bogus_key" in capsys.readouterr().err

    # a value outside its key's bounds is an input error, not a NaN verdict
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text("experiment = moments\nenv_replicas = 1\n")
    assert cli_main(["--config", str(tiny), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: env_replicas")
    fine = tmp_path / "fine.cfg"
    fine.write_text("experiment = occupation\nmodel = finite-range\ndependence_range = 1e-18\n")
    assert cli_main(["--config", str(fine), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: dependence_range: must be >= 9.5367431640625e-07")

    # one value on a list key is a list of one
    single = tmp_path / "single.cfg"
    single.write_text("experiment = identity-check\nn_list = 4\nenv_replicas = 300\ny_replicas = 300\n")
    assert cli_main(["--config", str(single), "--out", str(tmp_path)]) == 0
    assert "identity_within_4se_n4" in capsys.readouterr().out

    # an impossible verdict: eta of the mixing model is ~0.5, demand >= 2
    failing = tmp_path / "fail.cfg"
    failing.write_text(
        "experiment = variance-scan\nn_grid = 16, 32, 64, 128\nenv_replicas = 200\neta_min = 2.0\n"
    )
    assert cli_main(["--config", str(failing), "--out", str(tmp_path)]) == 2
    assert "[FAIL]" in capsys.readouterr().out


_UNFIT = ": a fit needs >= 4 usable grid points"
_CAPPED = ": every replica must exit a fitted radius, and 8 capped at r = 8.0"
_NO_PAIR = ": needs two time_points"
_ONE_TIME_POINT = "experiment = {}\nwalk_replicas = 50\nenv_seeds = 1\npass_seeds = 1\ntime_points = 0.5\n"


@pytest.mark.parametrize(
    "text, verdicts",
    [
        # V = 0 on the fixed lattice: no grid point is usable, so "eta >= 0.9" cannot hold
        ("experiment = variance-scan\nmodel = fixed-lattice\nn_grid = 16, 32, 64, 128\neta_min = 0.9\n",
         [{"name": "eta_at_least", "observed": 0.0, "threshold": ">= 0.9" + _UNFIT}]),
        # three grid points, one fewer than a fit needs (the exponent is about 1/2)
        ("experiment = variance-scan\nmodel = mixing-lattice\nn_grid = 64, 1024, 4096\nenv_replicas = 64\n"
         "eta_max = 0.1\n",
         [{"name": "eta_at_most", "observed": 3.0, "threshold": "<= 0.1" + _UNFIT}]),
        # eta_prime_max has a default, so the occupation verdict is always asked for
        ("experiment = occupation\nn_grid = 16, 32, 64\nreplicas = 200\n",
         [{"name": "occupation_sublinear", "observed": 3.0, "threshold": "< 1.0" + _UNFIT}]),
        # every replica caps at one step, so no radius has a mean exit time
        ("experiment = ychain-exit\nreplicas = 50\nstep_cap = 1\n",
         [{"name": "exit_slope_in_window", "observed": 0.0, "threshold": "in [1.6, 2.4]" + _UNFIT},
          {"name": "exit_slope_below_envelope", "observed": 0.0, "threshold": "<= 13.0" + _UNFIT}]),
        # step_cap = 300 caps 8 of 4 000 replicas at r = 8 (15 % and 69 % at r = 16 and 32), so
        # the fit would read censored means; observed is the capped count at the first such radius
        ("experiment = ychain-exit\nstep_cap = 300\n",
         [{"name": "exit_slope_in_window", "observed": 8.0,
           "threshold": "in [1.6, 2.4]" + _CAPPED},
          {"name": "exit_slope_below_envelope", "observed": 8.0, "threshold": "<= 13.0" + _CAPPED}]),
        # no default x_grid point lies at or beyond 100; observed is the count of those that do
        ("experiment = phi-decay\nreplicas = 200\nindependent_beyond = 100\n",
         [{"name": "phi_vanishes_beyond_range", "observed": 0.0,
           "threshold": "<= 4 SE beyond range: needs an x_grid point >= 100"}]),
        # one time point has no pair (s, t), so no covariance to compare with min(s, t) * sigma^2
        (_ONE_TIME_POINT.format("fclt"),
         [{"name": "velocity_cov_within_se", "observed": 0.0, "threshold": "<= 5.0 SE" + _NO_PAIR}]),
        (_ONE_TIME_POINT.format("counterexample"),
         [{"name": "quenched_mean_cov_within_se", "observed": 0.0, "threshold": "<= 5.0 SE" + _NO_PAIR}]),
        # both walks of a pair follow the one path of a Dirac field, so Y never leaves 0
        ("experiment = ychain-excursion\nmodel = dirac-field\nhorizon = 64\nreplicas = 4\n",
         [{"name": "excursion_tail_exponent", "observed": 0.0,
           "threshold": "in [0.35, 0.65]: only 0 complete excursions (need >= 10); radius=2.3, horizon=64"}]),
    ],
    ids=["no-growth", "three-points", "occupation-three-points", "exit-all-capped", "exit-capped-radius",
         "phi-nothing-beyond", "fclt-one-time-point", "counterexample-one-time-point", "excursion-none"],
)
def test_exponent_verdict_without_a_fit_fails(text, verdicts, tmp_path, capsys):
    # A verdict whose key is set always appears; when its statistic cannot be
    # formed it fails with a finite observed value (the usable points).
    experiment = parse_config(text).experiment
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    report = json.loads((tmp_path / f"{experiment}_report.json").read_text())
    for verdict in verdicts:
        assert f"[FAIL] {experiment}: {verdict['name']}" in out
    assert [v for v in report["verdicts"] if not v["passed"]] == [{**v, "passed": False} for v in verdicts]


def _no_constants(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "text",
    [
        # every replica caps at one step, so no radius has a mean exit time
        "experiment = ychain-exit\nreplicas = 50\nstep_cap = 1\n",
        # both fields give one velocity: a zero SE, so the verdicts observe infinitely many
        "experiment = moments\nenv_replicas = 2\n",
    ],
    ids=["exit-all-capped", "moments-zero-se"],
)
def test_reports_are_strict_json(text, tmp_path, capsys):
    # A value strict JSON cannot hold is written as null: a row's estimate
    # and SE, a verdict's observed value.
    experiment = parse_config(text).experiment
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / f"{experiment}_report.json").read_text(), parse_constant=_no_constants)
    values = [r[k] for r in report["rows"] for k in ("value", "se")] + [v["observed"] for v in report["verdicts"]]
    assert None in values


# One tiny config per runner, with every optional verdict key set, and the
# verdicts it must yield.  fclt appears once per centering.
_WALKS = "epsilon = 0.015625\ntime_points = 0.25, 0.5\nwalk_replicas = 50\nenv_seeds = 2\npass_seeds = 1\n"
_EVERY_VERDICT = {
    "moments": ("env_replicas = 20\n", ["velocity_within_4se", "covariance_within_4se"]),
    "variance-scan": ("n_grid = 2, 4, 8, 16\nenv_replicas = 8\neta_min = 0\neta_max = 1\n",
                      ["eta_at_least", "eta_at_most"]),
    "phi-decay": ("x_grid = 0, 1, 4\nreplicas = 20\nindependent_beyond = 2\n",
                  ["phi0_matches_drift_variance", "phi_vanishes_beyond_range"]),
    "identity-check": ("n_list = 1, 3\nenv_replicas = 8\ny_replicas = 8\n",
                       ["identity_exact_n1", "identity_within_4se_n3"]),
    "fclt": (_WALKS + "expect_marginals = pass\n", ["velocity_marginals_gaussian", "velocity_cov_within_se"]),
    "fclt quenched_mean": (_WALKS + "centering = quenched_mean\nexpect_marginals = pass\n",
                           ["quenched_mean_marginals_gaussian", "quenched_mean_cov_within_se"]),
    "max-drift": ("n_lo = 4\nn_hi = 16\nenv_replicas = 2\nexpect_decay = 1\n", ["scaled_max_halves"]),
    "ychain-exit": ("r_grid = 2, 4\nreplicas = 8\nstep_cap = 200\nsymmetry_replicas = 6\n",
                    ["first_step_symmetric_same_env", "first_step_symmetric_independent_env",
                     "exit_slope_in_window", "exit_slope_below_envelope"]),
    "ychain-excursion": ("horizon = 64\nreplicas = 4\n", ["excursion_tail_exponent"]),
    "occupation": ("n_grid = 4, 8, 16, 32\nreplicas = 4\n", ["occupation_sublinear"]),
    "counterexample": (_WALKS, ["velocity_marginals_rejected", "quenched_mean_marginals_gaussian",
                                "quenched_mean_cov_within_se"]),
}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("runner", _EVERY_VERDICT)
def test_every_accepted_model_writes_strict_json_with_its_verdicts(runner, model):
    # Every (experiment, model) pair the parser accepts runs to a strict JSON
    # report holding each verdict its keys ask for; the others are refused.
    lines, names = _EVERY_VERDICT[runner]
    text = f"experiment = {runner.split()[0]}\nmodel = {model}\n{lines}"
    if model == "dirac-field" and runner in ("fclt quenched_mean", "counterexample"):
        with pytest.raises(ConfigError, match="model: dirac-field"):
            parse_config(text)
        return
    report = json.loads(report_json(run(parse_config(text))), parse_constant=_no_constants)
    assert [v["name"] for v in report["verdicts"]] == names


# Random accepted configs: an experiment, a model and its parameters, the
# optional verdict keys, and every size key from a small range (at most 64
# replicas, grid points up to 64, epsilon = 2**-6 with walks of at most 64
# steps, horizons and step caps up to 256).
def _maybe(*values):
    return st.one_of(st.none(), st.sampled_from(values))


_POINTS = st.lists(st.integers(1, 64), min_size=1, max_size=4, unique=True)
_REPLICAS = st.integers(2, 64)
_KINDS = st.sampled_from(["same_env", "independent_env"])
_BOX = st.sampled_from([0.1, 0.2, 0.5, 1])
_SMALL_WALKS = {
    "epsilon": st.just(2**-6),
    "time_points": _POINTS.map(lambda ks: [k / 64 for k in ks]),
    "walk_replicas": st.integers(50, 64),
    "env_seeds": st.integers(1, 3),
    "pass_seeds": st.integers(0, 1),
}
_SMALL_KEYS = {
    "moments": {"env_replicas": _REPLICAS, "walks_per_env": st.integers(1, 3)},
    "variance-scan": {"n_grid": _POINTS, "env_replicas": _REPLICAS, "mean_method": st.sampled_from(["exact", "mc"]),
                      "eta_min": _maybe(0, 0.5), "eta_max": _maybe(0.5, 1)},
    "phi-decay": {"x_grid": st.lists(st.integers(-8, 8), min_size=1, max_size=4, unique=True),
                  "replicas": _REPLICAS, "independent_beyond": _maybe(0, 1.5, 4)},
    "identity-check": {"n_list": _POINTS, "env_replicas": _REPLICAS, "y_replicas": _REPLICAS},
    "fclt": {**_SMALL_WALKS, "centering": st.sampled_from(["velocity", "quenched_mean"]),
             "expect_marginals": st.sampled_from(["pass", "fail"]), "cov_se_factor": _maybe(1, 5)},
    "max-drift": {"n_lo": st.integers(1, 32), "n_hi": st.integers(33, 64), "env_replicas": st.integers(1, 8),
                  "expect_decay": st.integers(0, 1)},
    "ychain-exit": {"r_grid": st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True),
                    "replicas": _REPLICAS, "step_cap": st.integers(1, 256), "kind": _KINDS,
                    "symmetry_replicas": st.integers(6, 64)},
    "ychain-excursion": {"horizon": st.integers(1, 256), "box_eps": _BOX, "replicas": st.integers(1, 64),
                         "kind": _KINDS},
    "occupation": {"n_grid": _POINTS, "box_eps": _BOX, "replicas": _REPLICAS, "kind": _KINDS},
    "counterexample": _SMALL_WALKS,
}
_MODEL_KEYS = {
    "model": st.sampled_from(MODELS),
    "seed": st.integers(0, 2**64 - 1),
    "p_low": st.sampled_from([0, 0.2, 0.5]),
    "p_high": st.sampled_from([0.5, 0.9, 1]),
    "dependence_range": st.sampled_from([0.5, 1, 2.5]),
    "uniform_offset": st.integers(0, 1),
}
_SMALL_CONFIGS = st.sampled_from(EXPERIMENTS).flatmap(
    lambda e: st.fixed_dictionaries({**_MODEL_KEYS, **_SMALL_KEYS[e]}).map(lambda keys: (e, keys)))


def _asked_verdicts(experiment: str, v: dict) -> list[str]:
    """The verdicts a config's keys ask for, in report order."""
    if experiment == "variance-scan":
        return [name for name, key in (("eta_at_least", "eta_min"), ("eta_at_most", "eta_max")) if v[key] is not None]
    if experiment == "phi-decay":
        return (["phi0_matches_drift_variance"] * (0 in v["x_grid"])
                + ["phi_vanishes_beyond_range"] * (v["independent_beyond"] is not None))
    if experiment == "identity-check":
        return ["identity_exact_n1" if n == 1 else f"identity_within_4se_n{n}" for n in v["n_list"]]
    if experiment == "fclt":
        c = v["centering"]
        return [f"{c}_marginals_gaussian", f"{c}_cov_within_se"] if v["expect_marginals"] == "pass" else [
            f"{c}_marginals_rejected"]
    if experiment == "max-drift":
        return ["scaled_max_halves" if v["expect_decay"] else "scaled_max_does_not_halve"]
    return _EVERY_VERDICT[experiment][1]


@settings(max_examples=200)
@given(_SMALL_CONFIGS)
def test_random_accepted_configs_write_strict_json_with_their_verdicts(config):
    experiment, keys = config
    text = "\n".join([f"experiment = {experiment}"] + [f"{k} = {_text(v)}" for k, v in keys.items() if v is not None])
    if keys["model"] == "dirac-field" and (experiment == "counterexample" or keys.get("centering") == "quenched_mean"):
        with pytest.raises(ConfigError, match="model: dirac-field"):
            parse_config(text)
        return
    cfg = parse_config(text)
    report = json.loads(report_json(run(cfg, workers=1)), parse_constant=_no_constants)
    assert [v["name"] for v in report["verdicts"]] == _asked_verdicts(experiment, cfg.values)


def test_capped_estimates_leave_csv_cells_empty(tmp_path, capsys):
    # Every replica caps at one step: each radius's estimate row has an
    # empty value and se, and its capped_fraction row gives the share, 1.
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("experiment = ychain-exit\nreplicas = 50\nstep_cap = 1\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path), "--format", "csv"]) == 2
    rows = [line.split(",") for line in (tmp_path / "ychain-exit_rows.csv").read_text().splitlines()[1:]]
    estimates = [r for r in rows if r[2] == "estimate"]
    capped = [r for r in rows if r[2] == "capped_fraction"]
    assert [r[3] for r in estimates] == [r[3] for r in capped] == ["4.0", "8.0", "16.0", "32.0"]
    assert all(r[5] == r[6] == "" for r in estimates)
    assert all(float(r[5]) == 1.0 for r in capped)


def test_report_with_no_verdicts_fails(tmp_path, capsys):
    # phi-decay forms its one default verdict only when 0 is on x_grid; a
    # report that checks nothing does not pass.
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("experiment = phi-decay\nx_grid = 1, 2\nreplicas = 200\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "phi-decay_report.json").read_text())
    assert report["verdicts"] == [] and report["passed"] is False


@pytest.mark.parametrize("model", MODELS)
def test_p_low_above_p_high_rejected(model, tmp_path, capsys):
    text = f"experiment = moments\nmodel = {model}\np_high = 0.2\np_low = 0.9\n"
    with pytest.raises(ConfigError, match=r"^line 4: p_high: must be >= p_low"):
        parse_config(text)
    cfg = tmp_path / "p.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 4: p_high: must be >= p_low")


# n_hi <= n_lo is rejected at the later of the two lines, like p_low > p_high.
@pytest.mark.parametrize(
    "text, line, n_lo",
    [
        ("experiment = max-drift\nn_lo = 64\nn_hi = 32\n", 3, 64),
        ("experiment = max-drift\nn_hi = 32\nn_lo = 64\n", 3, 64),
        ("experiment = max-drift\nn_hi = 64\n", 2, 64),
        ("n_lo = 16\nexperiment = max-drift\nn_hi = 16\nenv_replicas = 2\n", 3, 16),
    ],
    ids=["n_hi-last", "n_lo-last", "default-n_lo", "equal"],
)
def test_max_drift_n_hi_not_above_n_lo_rejected(text, line, n_lo, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"^line {line}: n_hi: must be > n_lo = {n_lo}, got "):
        parse_config(text)
    cfg = tmp_path / "m.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: n_hi: must be > n_lo = {n_lo}, got ")


# Past int64 or the largest float, a config would end in a traceback or a
# garbage report (an fclt step floor(t / epsilon) cast to a negative int64);
# the parser names the later of the two lines a rule reads.
@pytest.mark.parametrize(
    "text, error",
    [
        ("experiment = fclt\nepsilon = 1e-300\nwalk_replicas = 50\nenv_seeds = 1\npass_seeds = 1\n",
         "line 2: time_points: 0.25 falls in step floor(t / epsilon) >= 2**63"),
        ("experiment = fclt\nepsilon = 1e-17\ntime_points = 1000\nwalk_replicas = 50\nenv_seeds = 1\n"
         "pass_seeds = 1\n", "line 3: time_points: 1000 falls in step floor(t / epsilon) >= 2**63"),
        ("experiment = counterexample\nepsilon = 1e-300\nwalk_replicas = 50\nenv_seeds = 1\npass_seeds = 1\n",
         "line 2: time_points: 0.25 falls in step floor(t / epsilon) >= 2**63"),
        ("experiment = ychain-excursion\nbox_eps = 100\nhorizon = 1048576\n",
         "line 3: box_eps: the box radius 1048576 ** 100 overflows a float"),
        ("experiment = occupation\nn_grid = 16, 1000000000000000000000000000000\nreplicas = 10\n",
         "line 2: n_grid: must be <= 9223372036854775807, got 1000000000000000000000000000000"),
    ],
)
def test_past_range_configs_end_in_an_input_error(text, error, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}"), err


# Exact means whose law crosses the dense window: a drifting field, and the
# driftless mixing lattice, where a replica's local drifts carry the law past
# the window's Azuma bound at step 298.  Each run keeps the whole support from
# that step on and writes its report.  The drifting config asks for no
# verdict, so it exits 2; the other passes its one verdict.
@pytest.mark.parametrize(
    "text, code",
    [
        ("experiment = variance-scan\np_low = 0.6\np_high = 0.9\nn_grid = 16, 32, 64, 128\nenv_replicas = 4\n", 2),
        ("experiment = variance-scan\nmodel = mixing-lattice\nmean_method = exact\n"
         "n_grid = 16, 32, 64, 128, 256, 512, 1024\nenv_replicas = 512\neta_max = 0.9\nseed = 0\n", 0),
    ],
    ids=["drifting", "driftless"],
)
def test_exact_means_past_the_window_write_a_report(text, code, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == code
    assert "error" not in capsys.readouterr().err
    assert json.loads((tmp_path / "variance-scan_report.json").read_text())["rows"]


def test_out_of_memory_ends_in_error(tmp_path, capsys, monkeypatch):
    # As numpy's allocation error for a config like n_grid = 16, 1125899906842624.
    def run_out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 PiB for an array")

    monkeypatch.setattr("envwalk.cli.run", run_out_of_memory)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("experiment = variance-scan\nn_grid = 16, 1125899906842624\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: Unable to allocate 8.00 PiB")


# With walks_per_env = 3 the one-step samples are 3 walkers in each of
# 2 000 fields, so one compiled block walks tiles of g = 3 walkers a field.
# The digest is the report's from when each sample walker hashed its own copy
# of its field's lanes.
MOMENTS_SHARED = "experiment = moments\nenv_replicas = 2000\nwalks_per_env = 3\n"
MOMENTS_SHARED_DIGEST = "5a06896510e178b3d4b918eb841fcd6626202fac23c5d2e5e99c8813271f15f6"


def test_moments_with_several_walks_a_field_share_tiles_and_hold_their_digest(monkeypatch):
    lib = streams._LIB
    groups = []

    class Spy:
        """The library, recording the walkers a field of each walker block."""

        def __getattr__(self, name):
            return getattr(lib, name)

        def envwalk_walk(self, *args):
            groups.append(args[2])
            return lib.envwalk_walk(*args)

    for path in [Spy(), None] if lib is not None else [None]:
        monkeypatch.setattr(streams, "_LIB", path)
        report = report_json(run(parse_config(MOMENTS_SHARED), workers=1))
        assert hashlib.sha256(report.encode()).hexdigest() == MOMENTS_SHARED_DIGEST
    assert groups == ([3] if lib is not None else [])


# Below a spacing of 2**-20 the finite-range cell floor(x / R + 0.5) of a
# walker leaves int64, where numpy's cast and C's disagree; at 2**-20 they agree.
@pytest.mark.parametrize(
    "text",
    [
        "experiment = variance-scan\nn_grid = 2, 4, 8, 16\nenv_replicas = 20\n",
        "experiment = occupation\nn_grid = 2, 4, 8, 16\nreplicas = 50\n",
    ],
    ids=["variance-scan", "occupation"],
)
def test_finest_finite_range_grid_gives_one_report_on_both_paths(text, monkeypatch):
    config = parse_config(text + "model = finite-range\ndependence_range = 9.5367431640625e-07\n")
    compiled = report_json(run(config))
    monkeypatch.setattr(streams, "_LIB", None)
    assert report_json(run(config)) == compiled


# Every |x| < 2**43 keeps its finite-range cell inside int64 at the finest grid.
def test_largest_phi_decay_coordinates_read_their_own_cells():
    text = ("experiment = phi-decay\nmodel = finite-range\ndependence_range = 9.5367431640625e-07\n"
            "replicas = 50\nx_grid = -8796093022207.999, 0, 8796093022207.999\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = [r.value for r in run(parse_config(text)).rows if r.name == "estimate"]
    assert np.isfinite(estimates).all()
    assert estimates[0] != estimates[2]


def test_variance_scan_rows_follow_the_sorted_grid_under_both_mean_methods():
    text = "experiment = variance-scan\nenv_replicas = 5\nmean_method = {}\nn_grid = {}\n"
    for method in ("exact", "mc"):
        unsorted = run(parse_config(text.format(method, "8, 2, 16, 4"))).rows
        assert unsorted == run(parse_config(text.format(method, "2, 4, 8, 16"))).rows
        assert [r.grid for r in unsorted if r.name == "estimate"] == [2.0, 4.0, 8.0, 16.0]


# Both mean methods of variance-scan fan replica chunks out over the workers;
# 130 replicas make two chunks.  The digest pins the mc report's bytes.  The
# counterexample fans its fields out.  Without the library the numpy paths
# hold the GIL for part of their work, so threads gain less, but the bytes
# are the same.
MC_VARIANCE = "experiment = variance-scan\nmean_method = mc\nn_grid = 2, 4, 8, 16, 32\nenv_replicas = 130\neta_max = 0.9\n"
MC_VARIANCE_DIGEST = "db1420b68bd792774cf9de4f2b884f170282c2e0cf1bff605eef619d75fa450e"
SMALL_COUNTEREXAMPLE = "experiment = counterexample\nwalk_replicas = 200\nenv_seeds = 3\npass_seeds = 1\n"


def test_variance_scan_mc_report_holds_its_digest_on_both_paths_and_worker_counts(monkeypatch):
    configs = [parse_config(MC_VARIANCE), parse_config(SMALL_COUNTEREXAMPLE)]
    reports = [report_json(run(cfg, workers=1)) for cfg in configs]
    assert hashlib.sha256(reports[0].encode()).hexdigest() == MC_VARIANCE_DIGEST
    for lib in dict.fromkeys([streams._LIB, None]):
        monkeypatch.setattr(streams, "_LIB", lib)
        for workers in (1, 2):
            assert [report_json(run(cfg, workers=workers)) for cfg in configs] == reports


def test_symmetry_replicas_bound_is_the_first_size_that_can_reject():
    # A KS distance is at most 1, so a critical distance of 1 or more passes any data.
    lo = experiments._TABLE["ychain-exit"][1]["symmetry_replicas"].lo
    assert ks_two_sample_critical(lo - 1, lo - 1, experiments.SYMMETRY_ALPHA) >= 1.0
    assert ks_two_sample_critical(lo, lo, experiments.SYMMETRY_ALPHA) < 1.0
    parse_config(f"experiment = ychain-exit\nsymmetry_replicas = {lo}\n")


# Dirac-field walks are deterministic given the field: quenched-mean
# centering leaves nothing to be Gaussian, so the config is rejected at the
# later of the two lines that combine it.
@pytest.mark.parametrize(
    "text, line",
    [
        ("experiment = counterexample\nmodel = dirac-field\n", 2),
        ("model = dirac-field\nwalk_replicas = 300\nexperiment = counterexample\n", 3),
        ("experiment = fclt\nmodel = dirac-field\ncentering = quenched_mean\n", 3),
        ("experiment = fclt\ncentering = quenched_mean\nmodel = dirac-field\nenv_seeds = 2\n", 3),
    ],
    ids=["counterexample", "counterexample-experiment-last", "fclt", "fclt-model-last"],
)
def test_quenched_mean_centering_on_dirac_field_rejected(text, line, tmp_path, capsys):
    with pytest.raises(ConfigError, match=rf"^line {line}: model: dirac-field"):
        parse_config(text)
    cfg = tmp_path / "d.cfg"
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: model: dirac-field")


def test_velocity_centering_on_dirac_field_runs(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text(
        "experiment = fclt\nmodel = dirac-field\ncentering = velocity\nexpect_marginals = fail\n"
        "epsilon = 0.015625\nwalk_replicas = 200\nenv_seeds = 2\npass_seeds = 1\n"
    )
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fclt_report.json").exists()


# a nonrandom field has zero standard errors where a random one has none
@pytest.mark.parametrize(
    "text",
    [
        "experiment = identity-check\nmodel = fixed-lattice\nn_list = 1, 4\nenv_replicas = 50\ny_replicas = 50\n",
        "experiment = phi-decay\nmodel = fixed-lattice\nreplicas = 200\n",
        "experiment = phi-decay\nmodel = dirac-field\nreplicas = 200\n",
        "experiment = max-drift\nmodel = fixed-lattice\nn_lo = 16\nn_hi = 64\nenv_replicas = 4\n",
    ],
    ids=["identity-fixed-lattice", "phi-fixed-lattice", "phi-dirac-field", "max-drift-fixed-lattice"],
)
def test_nonrandom_field_verdicts_are_numbers(text, tmp_path):
    cfg = tmp_path / "n.cfg"
    cfg.write_text(text)
    code = cli_main(["--config", str(cfg), "--out", str(tmp_path)])
    report = next(tmp_path.glob("*_report.json")).read_text()
    assert code != 1
    assert "NaN" not in report
    if "fixed-lattice" in text and "identity-check" not in text:
        assert code == 0


def test_cli_csv_format(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = moments\nenv_replicas = 2000\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path), "--format", "csv"]) == 0
    assert (tmp_path / "moments_rows.csv").exists()
    assert (tmp_path / "moments_verdicts.csv").exists()


def test_csv_schema_ships_with_package():
    import importlib.resources

    text = importlib.resources.files("envwalk").joinpath("csv_schema.txt").read_text()
    for column in ("section", "grid", "replica", "value", "se", "threshold"):
        assert column in text


def test_every_shipped_config_parses(tmp_path):
    from pathlib import Path

    cfg_dir = Path(__file__).parent.parent / "configs"
    names = sorted(p.name for p in cfg_dir.glob("*.cfg"))
    assert len(names) >= 10
    for name in names:
        cfg = parse_config((cfg_dir / name).read_text())
        assert cfg.experiment in name.replace("_", "-") or cfg.experiment.split("-")[0] in name
