"""Model-level estimators: drift correlations, quenched-mean variance,
the variance identity, rescaled-path Gaussianity, max-drift decay.

These are the quantities whose growth rates and limits separate the
environments where the environment-conditioned walk obeys a functional CLT
from those where it does not:

* ``estimate_phi``            -- spatial covariance of the local drift.
* ``variance_scan``           -- growth of E|quenched mean - n v|^2 and its
                                 exponent.
* ``variance_identity_check`` -- the two independent routes to that
                                 variance: exact propagation on one side,
                                 drift covariance summed along the
                                 difference chain on the other.
* ``fclt_check``              -- KS Gaussianity of the rescaled walk at
                                 fixed times plus Brownian increment
                                 covariance, under each centering.
* ``max_drift_check``         -- decay of n^{-1/2} max_k |quenched mean - kv|.

Every centering constant comes from the field: estimators center with its
family's closed-form velocity ``averaged_mean``, and :func:`limit_variance`
is the one place that says which variance each centering of the rescaled
walk converges to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffchain import SAME_ENV, batch_diff_positions
from .environments import FULLY_CORRELATED, Environment, env_replica, field_weights
from .families import DiracSteps, has_fixed_support, lattice_stride, row_drifts
from .stats import (
    GofTestResult,
    ScanCurve,
    bootstrap_se_mean,
    ks_gaussian_test,
    with_fit,
)
from .streams import (
    TAG_DITHER,
    derive_seeds_vec,
    lanes_for_cells,
    seed_lanes,
    uniforms_at,
)
from .walks import (
    batch_quenched_positions,
    exact_mean_curves,
    quenched_mean_mc,
)

__all__ = [
    "estimate_phi",
    "squared_deviations",
    "variance_curve",
    "variance_scan",
    "IdentityReport",
    "variance_identity_check",
    "CENTERINGS",
    "limit_variance",
    "FcltReport",
    "fclt_check",
    "MaxDriftReport",
    "max_drift_check",
]

BOOTSTRAP_RESAMPLES = 200  # bootstrap draws behind every variance-scan standard error
MC_WALKS = 1000  # walks per field behind a Monte Carlo quenched mean (mean_method = mc)
MARGINAL_ALPHA = 0.01  # KS level at which an FCLT marginal counts as Gaussian
CENTERINGS = ("velocity", "quenched_mean")


def _replica_drift_grid(env: Environment, seeds: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Local drifts at level 0 and ``points`` (shape (G, d)) of each seed's field, shape (m, G, d)."""
    base = seed_lanes(seeds)
    rows = field_weights(env, (base[0][:, None], base[1][:, None]), 0, points)
    return row_drifts(env.family, rows)


def estimate_phi(env_template: Environment, x_grid, replicas: int) -> ScanCurve:
    """Drift covariance phi(x) = E[g(field) . g(field shifted by x)].

    ``g`` is the local drift at the origin minus the velocity; the estimate
    pairs the drift at 0 with the drift at separation x (the point with
    every coordinate x) over fresh fields.  phi(0) is the drift variance;
    under spatial independence phi vanishes beyond the dependence range.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    m = replicas
    seeds = derive_seeds_vec(env_template.master_seed, np.arange(m))
    points = np.repeat(np.concatenate([[0.0], x_grid])[:, None], env_template.d, axis=1)
    g = _replica_drift_grid(env_template, seeds, points) - env_template.family.averaged_mean
    prods = (g[:, :1] * g[:, 1:]).sum(axis=-1)
    est = prods.mean(axis=0)
    ses = prods.std(axis=0, ddof=1) / math.sqrt(m)
    return ScanCurve(x_grid, est, ses)


def _exact_curves(env_template: Environment, n_max: int, replicas: np.ndarray) -> np.ndarray:
    """Exact quenched-mean curves of the given replica fields, shape (len(replicas), n_max+1); d=1."""
    return exact_mean_curves(env_template, n_max, derive_seeds_vec(env_template.master_seed, replicas))


def squared_deviations(env_template: Environment, n_grid, replicas: np.ndarray, mean_method: str = "exact") -> np.ndarray:
    """|E^w_0[X_n] - n v|^2 of each replica field in ``replicas`` at each n of ``n_grid``; d=1.

    The exact mean method propagates the full quenched law per replica
    field (no walk noise); the Monte Carlo method averages ``MC_WALKS``
    walks per field and subtracts the squared standard error of that mean,
    so the estimate stays unbiased.  Each row depends on its replica alone,
    so chunks of replicas can be computed apart and stacked in index order.
    """
    n_grid = np.asarray(n_grid, dtype=np.int64)
    vn = n_grid.astype(float) * env_template.family.averaged_mean[0]
    if mean_method == "exact":
        return (_exact_curves(env_template, int(n_grid.max()), replicas)[:, n_grid] - vn) ** 2
    if mean_method != "mc":
        raise ValueError(f"unknown mean_method {mean_method!r}")
    sq = np.empty((len(replicas), n_grid.size))
    for row, i in enumerate(replicas.tolist()):
        mc = quenched_mean_mc(env_replica(env_template, i), n_grid, MC_WALKS)
        sq[row] = (mc.means[:, 0] - vn) ** 2 - mc.standard_errors[:, 0] ** 2
    return sq


def variance_curve(env_template: Environment, n_grid, sq: np.ndarray) -> ScanCurve:
    """The scan curve of :func:`squared_deviations` ``sq`` of every replica, in index order.

    Standard errors come from a seeded bootstrap over replicas.
    """
    est = sq.mean(axis=0)
    ses = bootstrap_se_mean(sq, BOOTSTRAP_RESAMPLES, env_template.master_seed)
    return with_fit(ScanCurve(np.asarray(n_grid).astype(float), est, ses))


def variance_scan(env_template: Environment, n_grid, env_replicas: int, mean_method: str = "exact") -> ScanCurve:
    """E|E^w_0[X_n] - n v|^2 versus the sorted ``n_grid``, with its fitted growth exponent."""
    n_grid = np.sort(np.asarray(n_grid, dtype=np.int64))
    sq = squared_deviations(env_template, n_grid, np.arange(env_replicas), mean_method)
    return variance_curve(env_template, n_grid, sq)


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Both routes to the quenched-mean variance at one time n.

    ``lhs`` is exact propagation across fields; ``rhs`` sums the drift
    covariance along difference-chain visits.  ``residual`` should vanish
    within ``combined_se`` (and exactly at n=1, where both sides reduce to
    the same drift-variance estimator).
    """

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    residual: float
    combined_se: float


def variance_identity_check(
    env_template: Environment, n: int, env_replicas: int, y_replicas: int
) -> IdentityReport:
    """Cross-check E|E^w_0[X_n] - nv|^2 == sum_{k<n} E[phi(Y_k)].

    The two sides share no simulation machinery beyond the drift lookup:
    the left is a quenched-law propagation, the right composes the
    difference chain with the estimated drift covariance.
    """
    curves = _exact_curves(env_template, n, np.arange(env_replicas))
    dev = curves[:, n] - float(n) * env_template.family.averaged_mean[0]
    sq = dev * dev
    lhs, lhs_se = float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(env_replicas))

    _, y = batch_diff_positions(
        env_template, max(n - 1, 0), np.arange(y_replicas), x0=0, kind=SAME_ENV
    )
    # The sorted distinct values; np.unique's first call would import numpy.ma.
    ys = np.sort(y, axis=None)
    distinct = np.ones(ys.size, bool)
    distinct[1:] = ys[1:] != ys[:-1]
    xs = ys[distinct]
    phi = estimate_phi(env_template, xs.astype(float), env_replicas)
    idx = np.searchsorted(xs, y)
    phi_vals = np.asarray(phi.estimates)
    counts = np.bincount(idx.ravel(), minlength=xs.size) / y_replicas
    rhs = float(counts @ phi_vals)
    per_replica = phi_vals[idx].sum(axis=0)
    occ_noise = float(per_replica.std(ddof=1) / math.sqrt(y_replicas))
    phi_noise = float(np.sqrt(np.sum((counts * np.asarray(phi.standard_errors)) ** 2)))
    rhs_se = math.hypot(occ_noise, phi_noise)
    combined = math.hypot(lhs_se, rhs_se)
    return IdentityReport(lhs, lhs_se, rhs, rhs_se, lhs - rhs, combined)


@dataclass(frozen=True, eq=False)
class FcltReport:
    """Marginal Gaussianity and increment covariance of a rescaled walk."""

    centering: str
    tests: tuple[tuple[float, GofTestResult], ...]
    cov_rows: tuple[tuple[float, float, float, float, float], ...]

    def all_marginals_pass(self) -> bool:
        return all(res.p_value > MARGINAL_ALPHA for _, res in self.tests)


def limit_variance(env: Environment, centering: str) -> float:
    """Per-unit-time variance of the rescaled walk's Gaussian limit under ``centering``; d=1.

    Velocity centering keeps the drift fluctuations in the limit, so its
    variance is the annealed step variance.  Under quenched-mean centering
    the annealed identity E[Var^w X_n] = n * averaged_cov - V(n), with
    V(n) = E|E^w X_n - nv|^2, gives the limit.  Where every walker of one
    field collects the same drift (the level-correlated field, and every
    ``DiracSteps`` field, whose walkers share one path) V(n) = n *
    drift_variance; on the other fields V(n) = o(n).
    """
    if centering not in CENTERINGS:
        raise ValueError(f"unknown centering {centering!r}; known: {', '.join(CENTERINGS)}")
    fam = env.family
    if centering == "quenched_mean" and (env.kind == FULLY_CORRELATED or isinstance(fam, DiracSteps)):
        return float(fam.averaged_cov[0, 0] - fam.drift_variance)
    return float(fam.averaged_cov[0, 0])


def _centering(env: Environment, centering: str, ks: np.ndarray) -> tuple[np.ndarray, float]:
    """The curve B(t) subtracts at steps ``ks`` under ``centering``, and its limit variance."""
    dvar = limit_variance(env, centering)  # the one check of the word
    if centering == "velocity":
        return ks.astype(float) * env.family.averaged_mean[0], dvar
    curve = exact_mean_curves(env, int(ks.max()), np.asarray([env.master_seed], dtype=np.uint64))[0]
    return curve[ks], dvar


def fclt_check(
    env: Environment, epsilon: float, time_points, walk_replicas: int, centerings
) -> tuple[FcltReport, ...]:
    """Gaussianity checks of B(t) = sqrt(eps)(X_[t/eps] - centering) at fixed t.

    One batch of ``walk_replicas`` walks in the single fixed field serves
    every word of ``centerings`` (from :data:`CENTERINGS`), and the result
    holds one report per word, in the order given.  "velocity" subtracts
    [t/eps] * velocity, "quenched_mean" the field's exact quenched mean.
    For each requested t the marginal sample is KS-tested against
    Normal(0, t * limit_variance); all pairs (s, t) get an empirical
    Cov(B(s), B(t)) row against min(s, t) * limit_variance.

    Lattice walks put B(t) on a grid of spacing sqrt(eps) * span, which a
    KS test at large sample sizes resolves even when the law is as Gaussian
    as a lattice law can be; weak convergence is therefore checked after a
    deterministic uniform dither of +- half a lattice cell, the same draw
    under every centering.
    """
    times = np.sort(np.asarray(time_points, dtype=float))
    ks = np.floor(times / epsilon).astype(np.int64)
    if np.floor(1.0 / epsilon) < 64:
        raise ValueError("epsilon too coarse: need floor(1/eps) >= 64")
    centers = [_centering(env, c, ks) for c in centerings]
    _, pos, _ = batch_quenched_positions(env, int(ks.max()), np.arange(walk_replicas), record_steps=ks)
    lanes = lanes_for_cells(
        seed_lanes(env.master_seed), 0, TAG_DITHER, np.arange(walk_replicas)[:, None]
    )
    u = uniforms_at((lanes[0][None, :], lanes[1][None, :]), np.arange(len(ks))[:, None])
    # A law with a density puts B(t) on no lattice: a dither of width 0.
    width = lattice_stride(env.family) if has_fixed_support(env.family) else 0
    dither = math.sqrt(epsilon) * width * (u - 0.5)

    reports = []
    for centering, (center, dvar) in zip(centerings, centers):
        b = math.sqrt(epsilon) * (pos[..., 0].astype(float) - center[:, None]) + dither
        tests = tuple((float(t), ks_gaussian_test(b[j], 0.0, float(t) * dvar)) for j, t in enumerate(times))
        cov_rows = []
        centered = b - b.mean(axis=1, keepdims=True)
        for i in range(len(times)):
            for j in range(i + 1, len(times)):
                prods = centered[i] * centered[j]
                emp = float(prods.sum() / (walk_replicas - 1))
                se = float(prods.std(ddof=1) / math.sqrt(walk_replicas))
                expected = float(min(times[i], times[j]) * dvar)
                cov_rows.append((float(times[i]), float(times[j]), emp, expected, se))
        reports.append(FcltReport(centering, tests, tuple(cov_rows)))
    return tuple(reports)


@dataclass(frozen=True, eq=False)
class MaxDriftReport:
    """Per-replica n^{-1/2} max_{k<=n} |E^w_0[X_k] - kv| at the grid times."""

    n_grid: np.ndarray
    curves: np.ndarray

    def decay_fraction(self, n_lo: int, n_hi: int, factor: float = 0.5) -> float:
        """Fraction of replicas whose curve at n_hi is at most factor * its value at n_lo.

        A curve that is identically 0 (a nonrandom driftless field) counts as decayed.
        """
        grid = list(self.n_grid)
        i, j = grid.index(n_lo), grid.index(n_hi)
        return float((self.curves[:, j] <= factor * self.curves[:, i]).mean())


def max_drift_check(env_template: Environment, env_replicas: int, n_grid) -> MaxDriftReport:
    """The scaled running maximum of the quenched-mean drift, per replica.

    Vanishing of this curve as n grows is the almost-sure centering
    statement behind the velocity-centered FCLT; the no-mixing reference
    model keeps it of constant order.
    """
    n_grid = np.sort(np.asarray(n_grid, dtype=np.int64))
    curves = _exact_curves(env_template, int(n_grid.max()), np.arange(env_replicas))
    ks = np.arange(curves.shape[1], dtype=float)
    dev = np.abs(curves - ks[None, :] * env_template.family.averaged_mean[0])
    runmax = np.maximum.accumulate(dev, axis=1)
    out = runmax[:, n_grid] / np.sqrt(n_grid.astype(float))
    return MaxDriftReport(n_grid, out)
