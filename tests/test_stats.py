import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

import envwalk
from envwalk import stats, streams
from envwalk.experiments import EXPERIMENTS
from envwalk.stats import (
    InsufficientDataError,
    ScanCurve,
    bootstrap_se_mean,
    fit_exponent,
    ks_gaussian_test,
    ks_two_sample_critical,
    ks_two_sample_distance,
    with_fit,
)


def test_exact_power_law_recovered():
    grid = 2.0 ** np.arange(1, 9)
    for exponent in (0.5, 1.0):
        curve = ScanCurve(grid, grid**exponent, np.zeros_like(grid))
        fit = fit_exponent(curve)
        assert fit.exponent == pytest.approx(exponent, abs=1e-12)
        assert fit.ci_low <= exponent <= fit.ci_high


def test_fit_uses_only_significant_points():
    grid = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    est = grid.copy()
    se = np.zeros_like(grid)
    est[0] = 1e-6  # drowned in noise
    se[0] = 1.0
    fit = fit_exponent(ScanCurve(grid, est, se))
    assert fit.n_points == 5
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)


def test_fit_insufficient_points():
    grid = np.array([1.0, 2.0, 4.0])
    with pytest.raises(InsufficientDataError):
        fit_exponent(ScanCurve(grid, grid, np.zeros_like(grid)))
    assert with_fit(ScanCurve(grid, grid, np.zeros_like(grid))).fit is None


def test_fit_quantile_is_the_student_t_quantile(monkeypatch):
    """The t quantile of a fit on n points is scipy.stats.t.ppf(0.975, n - 2), bit for bit.

    A fit takes at least 4 points, so fits reach df 2 .. 1000; df 1 is
    checked on the quantile function alone.
    """
    df = np.arange(1, 1001)
    reference = sps.t.ppf(0.975, df)
    assert np.array_equal(special.stdtrit(df, 0.975), reference)
    assert stats._t_quantile(1) == reference[0]
    quantiles = []
    t_quantile = stats._t_quantile

    def recorded(df):
        quantiles.append(t_quantile(df))
        return quantiles[-1]

    monkeypatch.setattr(stats, "_t_quantile", recorded)
    for n in range(4, 1003):
        grid = np.arange(1.0, n + 1)
        fit_exponent(ScanCurve(grid, grid, np.zeros_like(grid)))
    assert np.array_equal(quantiles, reference[1:])


def test_t_quantile_table_is_scipys():
    df = np.arange(1, len(stats._T_975) + 1)
    assert len(df) == 64
    assert stats._T_975 == tuple(special.stdtrit(df, 0.5 + stats.FIT_CONFIDENCE / 2.0).tolist())


def test_fit_past_the_table_asks_scipy(monkeypatch):
    calls = []
    stdtrit = special.stdtrit

    def recorded(df, p):
        calls.append((df, p))
        return stdtrit(df, p)

    monkeypatch.setattr(special, "stdtrit", recorded)
    grid = np.arange(1.0, 67)
    fit_exponent(ScanCurve(grid, grid, np.zeros_like(grid)))
    assert calls == []
    grid = np.arange(1.0, 68)
    fit_exponent(ScanCurve(grid, grid, np.zeros_like(grid)))
    assert calls == [(65, 0.975)]


def _ndtr_points():
    """>= 10^5 points on every branch of Cephes ndtr, both signs: |x| = |a| / sqrt(2)
    below 1, below 8 and beyond, past the exp underflow, and the special values."""
    rng = np.random.default_rng(7)
    # |x| = 1 and 8, where the rational changes, and sqrt(MAXLOG), where exp(-x^2) underflows.
    edges = np.sqrt(2.0) * np.array([1.0, 8.0, np.sqrt(7.09782712893383996843e2)])
    near = (edges.view(np.int64)[:, None] + np.arange(-8, 9)).ravel().view(np.float64)
    mags = np.concatenate([
        near, [0.0, 5e-324, 1e-300, 1e300, np.finfo(float).max, np.inf, np.nan],
        rng.uniform(0.0, 1.5, 30_000), rng.uniform(1.0, 12.0, 30_000), rng.uniform(11.0, 40.0, 30_000),
        np.exp(rng.uniform(-700.0, 700.0, 10_000)),
    ])
    return np.concatenate([mags, -mags])


@pytest.mark.skipif(streams._LIB is None, reason="no compiled library: scipy.special.ndtr serves every call")
def test_compiled_ndtr_is_scipys_bit_for_bit():
    a = _ndtr_points()
    assert a.size >= 10**5
    got, want = stats._ndtr(a), special.ndtr(a)
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), a[~same][:10]


# One small run of every experiment type, in a fresh interpreter, since this
# module imports scipy.  Fits read the t quantile table and the KS tests
# (fclt, counterexample) the compiled ndtr.
_ONE_OF_EACH = {
    "moments": "env_replicas = 2000\n",
    "variance-scan": "n_grid = 4, 8, 16, 32\nenv_replicas = 100\n",
    "phi-decay": "replicas = 200\n",
    "identity-check": "n_list = 1, 4\nenv_replicas = 100\ny_replicas = 100\n",
    "fclt": "epsilon = 0.015625\nwalk_replicas = 50\nenv_seeds = 1\npass_seeds = 0\n",
    "max-drift": "env_replicas = 2\nn_hi = 256\n",
    "ychain-exit": "replicas = 100\nsymmetry_replicas = 100\nr_grid = 2, 4, 8, 16\n",
    "ychain-excursion": "horizon = 512\nreplicas = 100\n",
    "occupation": "n_grid = 16, 64, 256, 1024\nreplicas = 100\n",
    "counterexample": "walk_replicas = 50\nenv_seeds = 1\npass_seeds = 0\n",
}

_FOOTPRINT = """
import sys
from envwalk.experiments import parse_config, run
rows = set()
for experiment, text in zip(sys.argv[1::2], sys.argv[2::2]):
    rows |= {row.name for row in run(parse_config(f"experiment = {experiment}\\n{text}"), workers=1).rows}
assert "exponent" in rows
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], sorted(m for m in sys.modules if "scipy" in m)
"""


def test_runs_do_not_import_scipy_stats():
    assert set(_ONE_OF_EACH) == set(EXPERIMENTS)
    if streams._LIB is None:
        pytest.skip("no compiled library: the KS tests take ndtr from scipy.special")
    path = os.pathsep.join(filter(None, [str(Path(envwalk.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    argv = [word for item in _ONE_OF_EACH.items() for word in item]
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_ks_accepts_its_own_reference():
    rng = np.random.default_rng(5)
    res = ks_gaussian_test(rng.normal(1.0, 2.0, size=10000), 1.0, 4.0)
    assert res.p_value > 0.01
    assert 0.0 <= res.statistic <= 1.0


def test_ks_rejects_constant_sample():
    res = ks_gaussian_test(np.full(200, 0.3), 0.0, 1.0)
    assert res.statistic >= 0.5
    assert res.p_value < 1e-10


def test_ks_rejects_uniform_as_gaussian():
    rng = np.random.default_rng(6)
    u = rng.uniform(0, 1, size=10000)
    res = ks_gaussian_test(u, 0.5, 1.0 / 12.0)
    assert res.p_value < 0.001


def test_ks_requires_samples_and_variance():
    with pytest.raises(InsufficientDataError):
        ks_gaussian_test(np.zeros(10), 0.0, 1.0)
    with pytest.raises(ValueError):
        ks_gaussian_test(np.zeros(100), 0.0, 0.0)


def test_two_sample_distance_and_critical():
    rng = np.random.default_rng(7)
    a = rng.normal(size=5000)
    b = rng.normal(size=5000)
    assert ks_two_sample_distance(a, b) < ks_two_sample_critical(5000, 5000, 0.01)
    c = rng.normal(1.0, 1.0, size=5000)
    assert ks_two_sample_distance(a, c) > ks_two_sample_critical(5000, 5000, 0.01)


def test_bootstrap_se_close_to_classic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=1000)
    se = bootstrap_se_mean(x, 400, seed=21)
    classic = x.std(ddof=1) / np.sqrt(1000)
    assert se == pytest.approx(classic, rel=0.2)
    # deterministic in the seed
    assert bootstrap_se_mean(x, 400, seed=21) == se


def test_bootstrap_se_2d_columns():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(500, 3)) * np.array([1.0, 2.0, 3.0])
    se = bootstrap_se_mean(x, 300, seed=4)
    classic = x.std(axis=0, ddof=1) / np.sqrt(500)
    assert np.allclose(se, classic, rtol=0.25)
