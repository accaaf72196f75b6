import math

import numpy as np
import pytest

from envwalk.analysis import (
    CENTERINGS,
    _replica_drift_grid,
    estimate_phi,
    fclt_check,
    limit_variance,
    max_drift_check,
    variance_identity_check,
    variance_scan,
)
from envwalk.environments import (
    env_replica,
    make_dirac,
    make_finite_range,
    make_fully_correlated,
    make_lattice_product,
    query,
)
from envwalk.families import DiracSteps, FixedAtomic, GaussianDrift, UniformPM1
from envwalk.jumplaws import law_mean
from envwalk.streams import derive_seeds_vec
from envwalk.walks import batch_averaged_positions, batch_quenched_positions, exact_mean_curves

MIX = make_lattice_product(909, 1, UniformPM1())
FC = make_fully_correlated(909, 1, UniformPM1())
FR = make_finite_range(909, 1, 2.0, UniformPM1())
DIRAC = make_dirac(909, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))


def test_phi_at_zero_is_drift_variance():
    curve = estimate_phi(MIX, [0.0], 20000)
    dev = abs(curve.estimates[0] - 1.0 / 3.0) / curve.standard_errors[0]
    assert dev <= 4.0


def test_phi_vanishes_at_integer_separations():
    curve = estimate_phi(MIX, [1.0, 2.0, 5.0], 20000)
    assert np.all(np.abs(curve.estimates) <= 4.0 * curve.standard_errors)


def test_phi_fractional_separation_interpolates():
    # under the uniform cell offset, separation x in (0,1) shares the cell
    # with probability 1-x, so phi(x) = (1-x) * phi(0)
    x = 0.25
    curve = estimate_phi(MIX, [x], 40000)
    expected = (1 - x) / 3.0
    assert abs(curve.estimates[0] - expected) <= 4.0 * curve.standard_errors[0]


@pytest.mark.parametrize(
    "env",
    [
        make_lattice_product(5, 1, UniformPM1()),
        make_finite_range(5, 1, 2.0, UniformPM1()),
    ],
)
def test_drift_grid_matches_scalar(env):
    x_grid = np.array([0.0, 0.25, 1.0, 3.5])
    fast = _replica_drift_grid(env, derive_seeds_vec(env.master_seed, np.arange(10)), x_grid[:, None])
    for i in range(10):
        replica = env_replica(env, i)
        slow = [law_mean(query(replica, 0, x))[0] for x in x_grid]
        assert np.allclose(fast[i, :, 0], slow, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "env",
    [
        make_lattice_product(5, 2, GaussianDrift(2, 0.4, ((1.0, 0.2), (0.2, 0.5)))),
        make_finite_range(5, 2, 1.5, GaussianDrift(2, 0.4, ((1.0, 0.0), (0.0, 1.0)))),
        make_lattice_product(5, 2, FixedAtomic(((1.0, 0.0), (0.0, -1.0)), (0.25, 0.75))),
    ],
    ids=["gaussian", "gaussian-finite-range", "fixed-lattice"],
)
def test_phi_matches_per_replica_query_drifts_in_two_dimensions(env):
    x_grid = [0.0, 0.5, 1.0, 2.5]
    curve = estimate_phi(env, x_grid, 40)
    v = env.family.averaged_mean
    prods = np.empty((40, len(x_grid)))
    for i in range(40):
        replica = env_replica(env, i)
        g0 = law_mean(query(replica, 0, np.zeros(2))) - v
        for j, x in enumerate(x_grid):
            prods[i, j] = g0 @ (law_mean(query(replica, 0, np.full(2, x))) - v)
    assert np.allclose(curve.estimates, prods.mean(axis=0), rtol=0.0, atol=1e-12)
    assert np.allclose(curve.standard_errors, prods.std(axis=0, ddof=1) / math.sqrt(40), rtol=0.0, atol=1e-12)


def test_phi_constant_for_fully_correlated():
    curve = estimate_phi(FC, [0.0, 3.0, 10.0], 5000)
    assert curve.estimates[0] == curve.estimates[1] == curve.estimates[2]


def test_phi_finite_range_vanishes_beyond_range():
    env = make_finite_range(33, 1, 2.0, UniformPM1())
    curve = estimate_phi(env, [5.0, 8.0], 20000)
    assert np.all(np.abs(curve.estimates) <= 4.0 * curve.standard_errors)


def test_variance_scan_counterexample_matches_analytic():
    grid = 2 ** np.arange(2, 9)
    curve = variance_scan(FC, grid, 2000)
    expected = grid / 3.0
    dev = np.abs(curve.estimates - expected) / curve.standard_errors
    assert dev.max() <= 4.0
    assert 0.9 <= curve.fit.exponent <= 1.1


def test_variance_scan_mixing_subdiffusive():
    grid = 2 ** np.arange(4, 11)
    curve = variance_scan(MIX, grid, 400)
    assert curve.fit.exponent < 0.9
    fc_curve = variance_scan(FC, grid, 400)
    assert curve.fit.ci_high < fc_curve.fit.ci_low  # disjoint CIs


def test_variance_scan_dirac_is_walk_variance():
    # pointmass laws: the quenched mean IS the path, so the variance is n
    grid = np.array([1, 2, 4, 8, 16])
    curve = variance_scan(DIRAC, grid, 3000)
    assert curve.estimates[0] == 1.0  # E^w[X_1]^2 == 1 identically
    dev = np.abs(curve.estimates[1:] - grid[1:]) / curve.standard_errors[1:]
    assert dev.max() <= 4.0


def test_variance_scan_mc_method_agrees_with_exact():
    grid = np.array([2, 8])
    exact = variance_scan(MIX, grid, 300)
    mc = variance_scan(MIX, grid, 300, mean_method="mc")
    dev = np.abs(mc.estimates - exact.estimates) / np.hypot(mc.standard_errors, exact.standard_errors)
    assert dev.max() <= 4.0


def test_identity_exact_at_n1():
    rep = variance_identity_check(MIX, 1, 2000, 400)
    assert rep.residual == 0.0


@pytest.mark.parametrize("n", [4, 8])
def test_identity_within_4se(n):
    rep = variance_identity_check(MIX, n, 4000, 4000)
    assert abs(rep.residual) <= 4.0 * rep.combined_se


def test_identity_fully_correlated_both_sides_linear():
    n = 6
    rep = variance_identity_check(FC, n, 4000, 500)
    assert abs(rep.lhs - n / 3.0) <= 4.0 * rep.lhs_se
    assert abs(rep.rhs - n / 3.0) <= 4.0 * rep.rhs_se
    assert abs(rep.residual) <= 4.0 * rep.combined_se


def test_cross_terms_vanish():
    # E[g(at time k) . g(at time l)] over fields and walks is zero for k < l
    m, k, l = 4000, 2, 5
    _, pos = batch_averaged_positions(MIX, l, np.arange(m), record_steps=[k, l])
    prods = np.empty(m)
    for i in range(m):
        env = env_replica(MIX, i)
        gk = law_mean(query(env, k, pos[0, i]))[0]
        gl = law_mean(query(env, l, pos[1, i]))[0]
        prods[i] = gk * gl
    se = prods.std(ddof=1) / math.sqrt(m)
    assert abs(prods.mean()) <= 4.0 * se


def test_fclt_weak_disorder_marginals_pass():
    fam = UniformPM1(0.49, 0.51)
    template = make_lattice_product(5150, 1, fam)
    passes = 0
    for s in range(4):
        (rep,) = fclt_check(env_replica(template, s), 2.0**-8, [0.5, 1.0], 4000, ["velocity"])
        passes += rep.all_marginals_pass()
    assert passes >= 3


def test_fclt_marginals_pass_off_the_lattice():
    # Gaussian steps put B(t) on no lattice: no dither, and the check runs.
    template = make_lattice_product(5150, 1, GaussianDrift(1, 0.05, ((1.0,),)))
    passes = 0
    for s in range(4):
        (rep,) = fclt_check(env_replica(template, s), 2.0**-8, [0.5, 1.0], 2000, ["velocity"])
        passes += rep.all_marginals_pass()
    assert passes >= 3


def test_fclt_counterexample_dichotomy_small():
    template = make_fully_correlated(5150, 1, UniformPM1())
    b_fail, bt_pass = 0, 0
    for s in range(4):
        b, bt = fclt_check(env_replica(template, s), 2.0**-8, [0.5, 1.0], 4000, CENTERINGS)
        assert (b.centering, bt.centering) == CENTERINGS
        b_fail += not b.all_marginals_pass()
        bt_pass += bt.all_marginals_pass()
    assert b_fail >= 3
    assert bt_pass >= 3


@pytest.mark.parametrize("env", [MIX, FC], ids=["mixing", "level-correlated"])
def test_fclt_one_pass_matches_each_centering_alone(env):
    def fields(rep):
        return rep.centering, [(t, vars(res)) for t, res in rep.tests], rep.cov_rows

    both = fclt_check(env, 2.0**-7, [0.5, 1.0], 500, ["velocity", "quenched_mean"])
    for centering, rep in zip(CENTERINGS, both):
        (alone,) = fclt_check(env, 2.0**-7, [0.5, 1.0], 500, [centering])
        assert rep.centering == centering
        assert fields(rep) == fields(alone)
    swapped = fclt_check(env, 2.0**-7, [0.5, 1.0], 500, ["quenched_mean", "velocity"])
    assert [fields(r) for r in swapped] == [fields(both[1]), fields(both[0])]


def test_fclt_increment_covariance_brownian():
    fam = UniformPM1(0.49, 0.51)
    env = env_replica(make_lattice_product(5150, 1, fam), 0)
    (rep,) = fclt_check(env, 2.0**-8, [0.25, 0.5, 1.0], 8000, ["velocity"])
    for s, t, emp, expected, se in rep.cov_rows:
        assert expected == min(s, t) * 1.0
        assert abs(emp - expected) <= 5.0 * se


def test_limit_variance_closed_forms():
    # Steps +-1 with P(+1) = p, p ~ U[0, 1]: annealed variance 1 - 0^2, drift variance E(2p - 1)^2 = 1/3.
    # Quenched-mean centering removes the drift variance only where every walker of
    # a field collects the same drift: the level-correlated and Dirac fields.
    fixed = make_lattice_product(909, 1, FixedAtomic(((1.0,), (-1.0,)), (0.5, 0.5)), uniform_offset=False)
    for env in (MIX, FR, FC, DIRAC, fixed):
        assert limit_variance(env, "velocity") == 1.0
    for env in (MIX, FR, fixed):
        assert limit_variance(env, "quenched_mean") == 1.0
    assert limit_variance(FC, "quenched_mean") == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert limit_variance(FC, "quenched_mean") == float(FC.family.mean_step_cov[0, 0])
    assert limit_variance(DIRAC, "quenched_mean") == 0.0
    with pytest.raises(ValueError, match="unknown centering 'drift'"):
        limit_variance(MIX, "drift")


def test_limit_variance_of_every_dirac_field_is_zero_under_quenched_mean():
    # Every walker of a DiracSteps field follows one path, whichever
    # construction builds the field.
    fam = DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5))
    for env in (
        DIRAC,
        make_lattice_product(909, 1, fam, uniform_offset=False),
        make_lattice_product(909, 1, fam),
        make_finite_range(909, 1, 2.0, fam),
        make_fully_correlated(909, 1, fam),
    ):
        assert limit_variance(env, "quenched_mean") == 0.0
        assert limit_variance(env, "velocity") == 1.0


@pytest.mark.parametrize("env", [MIX, FC], ids=["mixing", "level-correlated"])
def test_quenched_variance_identity_at_n16(env):
    # E[Var^w X_n] = n * averaged_cov - V(n), V(n) = E|E^w X_n - nv|^2, on 400 fields x 500 walkers.
    n, fields, walkers = 16, 400, 500
    qvar = np.array([
        batch_quenched_positions(env_replica(env, i), n, np.arange(walkers), record_steps=[n])[1][0].var(ddof=1)
        for i in range(fields)
    ])
    curves = exact_mean_curves(env, n, derive_seeds_vec(env.master_seed, np.arange(fields)))
    sq = curves[:, n] ** 2  # the velocity is 0
    lhs, lhs_se = qvar.mean(), qvar.std(ddof=1) / math.sqrt(fields)
    rhs, rhs_se = n * env.family.averaged_cov[0, 0] - sq.mean(), sq.std(ddof=1) / math.sqrt(fields)
    assert abs(lhs - rhs) <= 4.0 * math.hypot(lhs_se, rhs_se)
    # on the level-correlated field V(n) = n * drift_variance, so the identity reads n * limit_variance
    if env is FC:
        assert abs(lhs - n * limit_variance(env, "quenched_mean")) <= 4.0 * lhs_se


def test_fclt_epsilon_validation():
    with pytest.raises(ValueError):
        fclt_check(MIX, 0.5, [1.0], 100, ["velocity"])


def test_fclt_unknown_centering_rejected():
    with pytest.raises(ValueError, match="unknown centering 'drift'"):
        fclt_check(MIX, 2.0**-7, [1.0], 100, ["velocity", "drift"])


def test_max_drift_deterministic_field_is_zero():
    env = make_dirac(3, 1, DiracSteps(((1.0,),), (1.0,)))
    rep = max_drift_check(env, 5, [4, 16, 64])
    assert np.all(rep.curves == 0.0)


def test_max_drift_mixing_decays_counterexample_does_not():
    # per-replica halving at this scale has probability near 0.68 for the
    # mixing field and near 0 for the level-correlated one
    rep = max_drift_check(MIX, 100, [2**6, 2**12])
    frac_mix = rep.decay_fraction(2**6, 2**12)
    rep_fc = max_drift_check(FC, 40, [2**6, 2**12])
    frac_fc = rep_fc.decay_fraction(2**6, 2**12)
    assert 0.5 <= frac_mix <= 0.9
    assert frac_fc <= 0.3
