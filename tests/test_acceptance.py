"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite is sized for a few minutes on a small machine.
All tolerances are fixed here, not tuned at runtime; every random quantity
is keyed by the frozen seeds below, so each criterion is reproducible bit
for bit.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import envwalk
from envwalk import streams
from envwalk.analysis import (
    fclt_check,
    max_drift_check,
    variance_identity_check,
    variance_scan,
)
from envwalk.diffchain import excursion_scan, occupation_time
from envwalk.environments import (
    env_replica,
    make_dirac,
    make_fully_correlated,
    make_lattice_product,
)
from envwalk.families import DiracSteps, UniformPM1
from envwalk.experiments import parse_config, report_json, run
from envwalk.jumplaws import gaussian_from_uniforms
from envwalk.stats import ScanCurve, fit_exponent, ks_gaussian_test
from envwalk.streams import TAG_BOOT, lanes_for_cells, seed_lanes, uniforms_at
from envwalk.walks import (
    batch_averaged_positions,
    batch_quenched_positions,
    quenched_mean_exact,
    quenched_mean_mc,
    simulate_quenched_path,
    velocity_and_covariance,
)

SEED = 20100308

MIXING = make_lattice_product(SEED, 1, UniformPM1())
WEAK_MIXING = make_lattice_product(SEED, 1, UniformPM1(0.49, 0.51))
COUNTEREXAMPLE = make_fully_correlated(SEED, 1, UniformPM1())
DIRAC = make_dirac(SEED, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))


def _report(criterion: str, passed: bool, detail: str):
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


# -- 1. determinism ----------------------------------------------------------

_SMALL_CONFIGS = {
    "moments": "experiment = moments\nenv_replicas = 20000\n",
    "variance-scan": "experiment = variance-scan\nn_grid = 16, 32, 64, 128\nenv_replicas = 260\n",
    "phi-decay": "experiment = phi-decay\nreplicas = 4000\n",
    "identity-check": "experiment = identity-check\nn_list = 1, 4\nenv_replicas = 800\ny_replicas = 800\n",
    "fclt": "experiment = fclt\np_low = 0.49\np_high = 0.51\nwalk_replicas = 1000\nenv_seeds = 3\npass_seeds = 2\n",
    "max-drift": "experiment = max-drift\nseed = 20100332\nenv_replicas = 4\nn_hi = 1024\npass_fraction = 0.5\n",
    "ychain-exit": "experiment = ychain-exit\nreplicas = 500\nsymmetry_replicas = 2000\nr_grid = 2, 4, 8\nslope_min = 1.0\n",
    "ychain-excursion": "experiment = ychain-excursion\nhorizon = 2048\nreplicas = 300\n",
    "occupation": "experiment = occupation\nn_grid = 16, 64, 256, 1024\nreplicas = 260\n",
    "counterexample": "experiment = counterexample\nwalk_replicas = 1000\nenv_seeds = 3\npass_seeds = 2\n",
}

# SHA-256 of report_json for each small config (numpy 2.4.6). A change that
# moves one of these must name its cause; a bit-preserving refactor must not.
_GOLDEN_DIGESTS = {
    "moments": "0f5a4ce4feae41db9140af2ad998159cb5f20cb7276794fdea5015263d2d114a",
    "variance-scan": "009b05600926a887cf78540e954ee36fc3861001b3656ebc5041bed6e31de687",
    "phi-decay": "070141b32356ee7e63144773fdaa3e7d62fb6b18ef0a285dd1229de6947694bb",
    "identity-check": "b4edf309c244c39f7c8a25ddf808342471c967ec51a08b4e3959730a27f3044e",
    "fclt": "71ecc5da9b55e6c6b626755aef52a5a9553b2d81f6f1ed0e096ee8f22831ef47",
    "max-drift": "94894733e6140e637824cb7329207b29c93d76c3640769ddfb179ad736a303fc",
    "ychain-exit": "28f76d6e21ce7a7df9b813849a73d3977567b39b47723cfaace43aa261469464",
    "ychain-excursion": "a6c11dcfc36a0eff876c4df11fbb2a4e18f125e9f64d00ce936f6ac6dec76348",
    "occupation": "e75fd21201eae39bb80ef95476e1b2d81da2ba33adaff64fc42181eb19bab3d2",
    "counterexample": "8a244d6f0289d4c091d91340ba6cfbcebcc0cc7bef3e6354fab4477900dfd0f8",
}


def test_criterion_1_determinism():
    t0 = time.time()
    worst = ""
    ok = True
    for name, text in _SMALL_CONFIGS.items():
        cfg = parse_config(text)
        first = report_json(run(cfg, workers=1))
        again = report_json(run(cfg, workers=1))
        wide = report_json(run(cfg, workers=8))
        digest = hashlib.sha256(first.encode()).hexdigest()
        if not (first == again == wide) or digest != _GOLDEN_DIGESTS[name]:
            ok = False
            worst += f" {name}"
    _report(
        "criterion 1: determinism",
        ok,
        f"double runs and workers in {{1,8}} byte-identical and matching the "
        f"golden digests for all {len(_SMALL_CONFIGS)} experiment types{worst} ({time.time()-t0:.0f}s)",
    )


@pytest.mark.parametrize("name", ["variance-scan", "counterexample"])
def test_criterion_1_digests_without_compiled_kernel(name, monkeypatch):
    # The numpy mixers serve every call where no C compiler is present.
    monkeypatch.setattr(streams, "_LIB", None)
    digest = hashlib.sha256(report_json(run(parse_config(_SMALL_CONFIGS[name]), workers=1)).encode()).hexdigest()
    _report("criterion 1: numpy fall-back", digest == _GOLDEN_DIGESTS[name], f"{name} report matches its golden digest")



# numpy.ma costs about 12 ms to import, and np.unique's first call imports it.
_RUNS_WITHOUT_NUMPY_MA = """
import sys
from envwalk.experiments import parse_config, run
for text in sys.argv[1:]:
    run(parse_config(text), workers=1)
assert "numpy.ma" not in sys.modules
"""


def test_identity_check_and_fclt_do_not_import_numpy_ma():
    # The identity check takes the sorted distinct values of Y, and the
    # walkers their recorded steps, without np.unique.  Without the library
    # the KS tests of fclt take ndtr from scipy.special, which imports
    # numpy.ma itself.
    path = os.pathsep.join(filter(None, [str(Path(envwalk.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    texts = [_SMALL_CONFIGS["identity-check"]] + [_SMALL_CONFIGS["fclt"]] * (streams._LIB is not None)
    done = subprocess.run([sys.executable, "-c", _RUNS_WITHOUT_NUMPY_MA, *texts],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr

# -- 2. moments --------------------------------------------------------------

def test_criterion_2_moments():
    t0 = time.time()
    v, v_se, cov, cov_se = velocity_and_covariance(MIXING, 100000)
    dv = abs(v[0]) / v_se[0]
    dd = abs(cov[0, 0] - 1.0) / cov_se[0, 0]
    _report(
        "criterion 2: moments",
        dv <= 4.0 and dd <= 4.0 and time.time() - t0 < 10.0,
        f"v = {v[0]:+.5f} ({dv:.2f} SE from 0), D = {cov[0,0]:.5f} "
        f"({dd:.2f} SE from 1) at 1e5 walks ({time.time()-t0:.1f}s < 10s)",
    )


# -- 3. exact vs MC quenched means -------------------------------------------

def test_criterion_3_exact_vs_mc():
    t0 = time.time()
    grid = np.array([1, 2, 4, 8, 16, 32])
    worst = 0.0
    for env in (env_replica(MIXING, 1), env_replica(COUNTEREXAMPLE, 1)):
        mc = quenched_mean_mc(env, grid, 100000)
        exact = quenched_mean_exact(env, 32)
        dev = np.abs(mc.means[:, 0] - exact.means[grid, 0]) / mc.standard_errors[:, 0]
        worst = max(worst, float(dev.max()))
    env = env_replica(DIRAC, 1)
    mc = quenched_mean_mc(env, grid, 200)
    exact = quenched_mean_exact(env, 32)
    dirac_exact = np.array_equal(mc.means[:, 0], exact.means[grid, 0])
    _report(
        "criterion 3: exact vs MC quenched means",
        worst <= 4.0 and dirac_exact and time.time() - t0 < 30.0,
        f"max deviation {worst:.2f} SE over lattice models, n <= 32, M = 1e5; "
        f"pointmass field exact ({time.time()-t0:.1f}s < 30s)",
    )


# -- 4. variance identity ----------------------------------------------------

def test_criterion_4_variance_identity():
    t0 = time.time()
    reports = {n: variance_identity_check(MIXING, n, 4000, 4000) for n in (1, 4, 8)}
    exact_at_1 = reports[1].residual == 0.0
    devs = {n: abs(r.residual) / r.combined_se for n, r in reports.items() if n > 1}
    _report(
        "criterion 4: variance identity",
        exact_at_1 and max(devs.values()) <= 4.0 and time.time() - t0 < 120.0,
        f"residual(n=1) = {reports[1].residual!r} (exact), "
        f"|residual|/SE = {devs[4]:.2f} (n=4), {devs[8]:.2f} (n=8) "
        f"({time.time()-t0:.1f}s < 2min)",
    )


# -- 5. dichotomy of the variance exponent -----------------------------------

def test_criterion_5_dichotomy():
    t0 = time.time()
    grid = 2 ** np.arange(4, 13)
    mix = variance_scan(MIXING, grid, 1000)
    ce = variance_scan(COUNTEREXAMPLE, grid, 1000)
    ce_in_window = 0.9 <= ce.fit.exponent <= 1.1
    mix_below = mix.fit.exponent < 0.9
    disjoint = mix.fit.ci_high < ce.fit.ci_low
    _report(
        "criterion 5: variance-exponent dichotomy",
        ce_in_window and mix_below and disjoint and time.time() - t0 < 300.0,
        f"eta(correlated) = {ce.fit.exponent:.3f} in [0.9, 1.1], "
        f"eta(mixing) = {mix.fit.exponent:.3f} < 0.9, "
        f"CIs ({mix.fit.ci_low:.3f},{mix.fit.ci_high:.3f}) vs "
        f"({ce.fit.ci_low:.3f},{ce.fit.ci_high:.3f}) disjoint "
        f"({time.time()-t0:.0f}s < 5min)",
    )


# -- 6. quenched FCLT --------------------------------------------------------

def test_criterion_6_quenched_fclt():
    t0 = time.time()
    eps, times, m = 2.0**-10, [0.25, 0.5, 1.0], 10000
    mix_pass, cov_dev = 0, 0.0
    for s in range(10):
        (rep,) = fclt_check(env_replica(WEAK_MIXING, s), eps, times, m, ["velocity"])
        mix_pass += rep.all_marginals_pass()
        cov_dev = max(cov_dev, max(abs(e - x) / se for _, _, e, x, se in rep.cov_rows))
    b_fail, bt_pass = 0, 0
    for s in range(10):
        b, bt = fclt_check(env_replica(COUNTEREXAMPLE, s), eps, times, m, ["velocity", "quenched_mean"])
        b_fail += not b.all_marginals_pass()
        bt_pass += bt.all_marginals_pass()
    _report(
        "criterion 6: quenched FCLT",
        mix_pass >= 8 and cov_dev <= 5.0 and b_fail >= 8 and bt_pass >= 8
        and time.time() - t0 < 600.0,
        f"mixing marginals pass {mix_pass}/10 seeds, increment cov within "
        f"{cov_dev:.2f} SE (<= 5); counterexample: velocity-centered rejected "
        f"{b_fail}/10, mean-centered accepted {bt_pass}/10 "
        f"({time.time()-t0:.0f}s < 10min)",
    )


# -- 7. max-drift decay ------------------------------------------------------

def test_criterion_7_max_drift():
    t0 = time.time()
    mix = make_lattice_product(20100332, 1, UniformPM1())
    ce = make_fully_correlated(20100332, 1, UniformPM1())
    f_mix = max_drift_check(mix, 10, [2**6, 2**12]).decay_fraction(2**6, 2**12)
    f_ce = max_drift_check(ce, 10, [2**6, 2**12]).decay_fraction(2**6, 2**12)
    _report(
        "criterion 7: scaled max-drift decay",
        f_mix >= 0.8 and f_ce < 0.8 and time.time() - t0 < 180.0,
        f"mixing halves in {f_mix:.0%} of replicas (>= 80%), "
        f"counterexample only {f_ce:.0%} ({time.time()-t0:.0f}s < 3min)",
    )


# -- 8. difference-chain structure -------------------------------------------

def test_criterion_8_ychain_structure():
    t0 = time.time()
    cfg = parse_config(
        "experiment = ychain-exit\nreplicas = 6000\nsymmetry_replicas = 10000\n"
    )
    exit_report = run(cfg)
    verdict = {v.name: v for v in exit_report.verdicts}
    slope = verdict["exit_slope_in_window"].observed
    exc = excursion_scan(MIXING, 2**14, 0.2, 1500)
    occ = occupation_time(MIXING, 2 ** np.arange(4, 15), 0.2, 1000)
    ok = (
        verdict["first_step_symmetric_same_env"].passed
        and verdict["first_step_symmetric_independent_env"].passed
        and verdict["exit_slope_in_window"].passed
        and verdict["exit_slope_below_envelope"].passed
        and 0.35 <= exc.tail_exponent <= 0.65
        and occ.fit.exponent < 1.0
    )
    _report(
        "criterion 8: difference-chain structure",
        ok and time.time() - t0 < 300.0,
        f"first-step symmetry OK; exit slope {slope:.3f} in [1.6, 2.4] and <= 13; "
        f"excursion tail {exc.tail_exponent:.3f} in [0.35, 0.65]; "
        f"occupation exponent {occ.fit.exponent:.3f} < 1 "
        f"({time.time()-t0:.0f}s < 5min)",
    )


# -- 9. degenerate pointmass regime ------------------------------------------

def test_criterion_9_degenerate_regimes():
    t0 = time.time()
    env = env_replica(DIRAC, 0)
    _, pos, _ = batch_quenched_positions(env, 32, np.arange(200))
    quenched_var = pos.astype(float).var(axis=1)
    var_zero = bool(np.all(quenched_var == 0.0))

    # sqrt(eps) * (X_k - E^w X_k) at t = k * eps in {0.25, 0.5, 1}
    eps = 2.0**-5
    ks = np.floor(np.array([0.25, 0.5, 1.0]) / eps).astype(np.int64)
    curve = quenched_mean_exact(env, 32).means[:, 0]
    path = simulate_quenched_path(env, 32, walk_seed=0)[:, 0]
    bt_zero = bool(np.all(np.sqrt(eps) * (path[ks] - curve[ks]) == 0.0))

    diffusive = True
    for n in range(1, 9):
        _, pos_n = batch_averaged_positions(DIRAC, n, np.arange(20000), record_steps=[n])
        sq = pos_n[0].astype(float) ** 2
        se = sq.std(ddof=1) / np.sqrt(len(sq))
        if se == 0.0:
            diffusive &= sq.mean() == float(n)
        else:
            diffusive &= abs(sq.mean() - n) <= 4 * se
    _report(
        "criterion 9: degenerate pointmass regime",
        var_zero and bt_zero and diffusive and time.time() - t0 < 5.0,
        f"quenched variance identically 0; mean-centered rescaled path "
        f"identically 0; averaged walk diffusive (Var ~ n, n <= 8) "
        f"({time.time()-t0:.1f}s < 5s)",
    )


# -- 10. statistical self-calibration ----------------------------------------

def ks_null_calibration(trials: int, n: int, seed: int, alpha: float = 0.01) -> float:
    """Fraction of null KS tests rejected at level ``alpha``.

    Each trial draws ``n`` exact standard normals from the keyed streams and
    tests them against Normal(0, 1); the observed rejection rate should sit
    near ``alpha``.
    """
    rejected = 0
    for t in range(trials):
        lanes = lanes_for_cells(seed_lanes(seed), t, TAG_BOOT, np.asarray([[0]]))
        u = uniforms_at((lanes[0][..., None], lanes[1][..., None]), np.arange(2 * n))[0]
        z = gaussian_from_uniforms(u)[0::2]
        if ks_gaussian_test(z, 0.0, 1.0).p_value < alpha:
            rejected += 1
    return rejected / trials


def exponent_fit_coverage(
    trials: int,
    seed: int,
    exponent: float = 0.5,
    n_points: int = 8,
    rel_noise: float = 0.05,
) -> float:
    """Fraction of noisy synthetic power-law fits whose CI covers the truth.

    The synthetic curve is y = n^exponent * (1 + rel_noise * z) on a dyadic
    grid with matching standard errors, so the nominal 95% CI should cover
    in roughly that fraction of trials.
    """
    grid = 2.0 ** np.arange(2, 2 + n_points)
    covered = 0
    for t in range(trials):
        lanes = lanes_for_cells(seed_lanes(seed), t, TAG_BOOT, np.asarray([[1]]))
        u = uniforms_at((lanes[0][..., None], lanes[1][..., None]), np.arange(2 * n_points))[0]
        z = gaussian_from_uniforms(u)[0::2]
        truth = grid**exponent
        est = truth * (1.0 + rel_noise * z)
        se = truth * rel_noise
        fit = fit_exponent(ScanCurve(grid, est, se))
        if fit.ci_low <= exponent <= fit.ci_high:
            covered += 1
    return covered / trials


def test_criterion_10_self_calibration():
    t0 = time.time()
    rate = ks_null_calibration(400, 2000, seed=314)
    coverage = exponent_fit_coverage(100, seed=88)
    _report(
        "criterion 10: statistical self-calibration",
        0.005 <= rate <= 0.05 and coverage >= 0.90,
        f"KS type-I rate {rate:.4f} in [0.005, 0.05] over 400 null trials; "
        f"exponent-fit CI coverage {coverage:.0%} >= 90% ({time.time()-t0:.0f}s)",
    )
