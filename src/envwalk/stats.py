"""Statistical machinery: scan curves, power-law fits, KS tests, bootstrap.

Free of simulation imports (only streams, for the bootstrap's resample
indices and the compiled library) so every higher layer can use it.  No run
of a shipped config imports scipy: the KS tests take the normal CDF from the
compiled library (``envwalk_ndtr``, bit for bit ``scipy.special.ndtr``) and
the exponent fits take the t quantile from a table of
``scipy.special.stdtrit``.  Two cases
import ``scipy.special`` on first use and call it: the normal CDF when the
library is not loaded, and a fit on more than ``len(_T_975) + 2`` points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import streams
from .streams import TAG_BOOT, lanes_for_cells, seed_lanes, words_at

__all__ = [
    "InsufficientDataError",
    "ScanCurve",
    "ExponentFit",
    "GofTestResult",
    "fit_exponent",
    "fit_points",
    "with_fit",
    "ks_gaussian_test",
    "ks_two_sample_distance",
    "ks_two_sample_critical",
    "bootstrap_se_mean",
]

FIT_CONFIDENCE = 0.95  # coverage of every exponent fit's confidence interval
MIN_FIT_POINTS = 4  # usable grid points an exponent fit needs

# scipy.special.stdtrit(df, 0.5 + FIT_CONFIDENCE / 2) for df = 1 .. 64, as
# scipy 1.17 computes it.  Its values are not correctly rounded (df = 6 is
# 19 ulps off), so they are tabulated, not recomputed.  A doubling grid of
# int64 values has at most 63 points, so every such fit reads the table.
_T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284, 2.1603686564627913, 2.144786687917804,
    2.131449545559776, 2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795, 2.0738730679040254,
    2.0686576104190486, 2.0638985616280245, 2.0595385527532972, 2.0555294386428735,
    2.0518305164802846, 2.0484071417952454, 2.045229642132703, 2.0422724563012378,
    2.039513446396408, 2.0369333434601016, 2.0345152974493383, 2.0322445093177186,
    2.030107928250343, 2.0280940009804502, 2.0261924630291093, 2.0243941639119694,
    2.022690920036761, 2.021075390306273, 2.019540970441376, 2.0180817028184443, 2.016692199227824,
    2.0153675744437636, 2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688, 2.0057459953178687,
    2.0048792881880564, 2.0040447832891455, 2.003240718847872, 2.002465459291007,
    2.0017174841452356, 2.000995378088267, 2.0002978220142604, 1.999623584994939,
    1.9989715170333788, 1.998340542520741, 1.997729654317693,
)


def _t_quantile(df: int) -> float:
    """The Student-t quantile of a fit's interval, bit for bit ``scipy.special.stdtrit``."""
    if df <= len(_T_975):
        return _T_975[df - 1]
    from scipy import special

    return float(special.stdtrit(df, 0.5 + FIT_CONFIDENCE / 2.0))


def _ndtr(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF, bit for bit ``scipy.special.ndtr``."""
    z = np.ascontiguousarray(z, dtype=np.float64)
    if streams._LIB is None:
        from scipy import special

        return special.ndtr(z)
    out = np.empty_like(z)
    streams._LIB.envwalk_ndtr(z.size, z.ctypes.data, out.ctypes.data)
    return out


class InsufficientDataError(ValueError):
    """Raised when a scan or fit has too little usable data to report."""


@dataclass(frozen=True, eq=False)
class ExponentFit:
    """Least-squares slope of log(estimate) against log(grid)."""

    exponent: float
    ci_low: float
    ci_high: float
    n_points: int


@dataclass(frozen=True, eq=False)
class ScanCurve:
    """(grid value, estimate, standard error) table with an optional
    fitted log-log growth exponent."""

    grid: np.ndarray
    estimates: np.ndarray
    standard_errors: np.ndarray
    fit: ExponentFit | None = None


def fit_points(curve: ScanCurve) -> np.ndarray:
    """Which grid points an exponent fit uses: those with a positive, finite
    estimate exceeding three standard errors at a positive grid value."""
    grid = np.asarray(curve.grid, dtype=float)
    est = np.asarray(curve.estimates, dtype=float)
    se = np.asarray(curve.standard_errors, dtype=float)
    return np.isfinite(est) & (est > 3.0 * se) & (est > 0.0) & (grid > 0.0)


def fit_exponent(curve: ScanCurve) -> ExponentFit:
    """Fit the growth exponent of a scan curve on log-log scale.

    Uses only the :func:`fit_points`; needs at least ``MIN_FIT_POINTS`` of
    them.  The ``FIT_CONFIDENCE`` interval comes from the residual variance
    via the Student-t quantile.
    """
    grid = np.asarray(curve.grid, dtype=float)
    est = np.asarray(curve.estimates, dtype=float)
    usable = fit_points(curve)
    if usable.sum() < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"exponent fit needs >= {MIN_FIT_POINTS} usable grid points, found {int(usable.sum())}"
        )
    lx, ly = np.log(grid[usable]), np.log(est[usable])
    n = lx.size
    sxx = np.sum((lx - lx.mean()) ** 2)
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - intercept - slope * lx
    if n > 2:
        s2 = float(resid @ resid) / (n - 2)
        half = _t_quantile(n - 2) * math.sqrt(s2 / sxx)
    else:
        half = 0.0
    return ExponentFit(slope, slope - half, slope + half, n)


def with_fit(curve: ScanCurve) -> ScanCurve:
    """Curve with its exponent fit attached (None when unfittable)."""
    try:
        return replace(curve, fit=fit_exponent(curve))
    except InsufficientDataError:
        return replace(curve, fit=None)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery.
# ---------------------------------------------------------------------------

_KS_SERIES_TERMS = 100


def _ks_survival(x: float) -> float:
    """P(K > x) for the asymptotic Kolmogorov distribution (100-term series)."""
    if x <= 0.0:
        return 1.0
    j = np.arange(1, _KS_SERIES_TERMS + 1)
    terms = 2.0 * (-1.0) ** (j - 1) * np.exp(-2.0 * (j * x) ** 2)
    return float(min(1.0, max(0.0, terms.sum())))


@dataclass(frozen=True, eq=False)
class GofTestResult:
    """One-sample KS test of data against a reference Gaussian."""

    statistic: float
    p_value: float


def ks_gaussian_test(samples, mean: float, variance: float) -> GofTestResult:
    """KS distance of a 1-d sample from Normal(mean, variance).

    The p-value uses the asymptotic Kolmogorov distribution, adequate for
    sample sizes from a few dozen up; below 50 samples the test refuses.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 50:
        raise InsufficientDataError(f"KS test needs >= 50 samples, got {n}")
    if not variance > 0.0:
        raise ValueError("reference variance must be positive")
    cdf = _ndtr((x - mean) / math.sqrt(variance))
    i = np.arange(1, n + 1)
    d = float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))
    return GofTestResult(d, _ks_survival(math.sqrt(n) * d))


def ks_two_sample_distance(a, b) -> float:
    """Two-sample KS distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_two_sample_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical distance at level ``alpha``."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


# ---------------------------------------------------------------------------
# Deterministic bootstrap.
# ---------------------------------------------------------------------------


def bootstrap_se_mean(values: np.ndarray, resamples: int, seed: int) -> np.ndarray:
    """Bootstrap standard error of the mean along axis 0.

    Resample indices are a pure function of ``seed``, so the result is
    reproducible and independent of worker scheduling.  ``values`` may be
    (m,) or (m, k); returns per-column SEs.
    """
    v = np.asarray(values, dtype=float)
    m = v.shape[0]
    lanes = lanes_for_cells(seed_lanes(seed), 0, TAG_BOOT, np.arange(resamples)[:, None])
    words = words_at((lanes[0][:, None], lanes[1][:, None]), np.arange(m))
    idx = (words % np.uint64(m)).astype(np.int64)
    means = v[idx].mean(axis=1)
    return means.std(axis=0, ddof=1)
