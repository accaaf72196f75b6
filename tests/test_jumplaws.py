import numpy as np
import pytest

from envwalk.jumplaws import (
    Atomic,
    Gaussian,
    atomic_index,
    gaussian_factor,
    gaussian_step,
    law_mean,
    law_sample,
    sample_uniform_count,
)
from envwalk.streams import StreamKey


def key(seed=1, cell=0):
    return StreamKey(seed, 0, (cell,), 2)


def batch(law, u):
    """One draw per row of ``u`` (draws, uniforms per draw), shape (draws, d):
    what :func:`law_sample` makes of a key's first uniforms (checked below)."""
    if isinstance(law, Atomic):
        return np.asarray(law.points, dtype=float)[atomic_index(np.cumsum(law.weights), u[:, 0])]
    return gaussian_step(np.asarray(law.mean), gaussian_factor(law), u)


def draws(law, seed, n):
    """``n`` draws from consecutive uniforms of one stream."""
    per = sample_uniform_count(law)
    return batch(law, key(seed).uniforms(n * per).reshape(n, per))


def test_fair_pm1_moments():
    law = Atomic(((1.0,), (-1.0,)), (0.5, 0.5))
    assert law_mean(law) == 0.0


def test_dirac_moments():
    # A pointmass is a one-hot row; its mean is the hot atom, bit for bit.
    law = Atomic(((1.0, 3.0), (2.5, -1.0), (-4.0, 0.5)), (0.0, 1.0, 0.0))
    assert np.array_equal(law_mean(law), [2.5, -1.0])


def test_gaussian_moments():
    mu = (1.0, 2.0)
    sigma = ((2.0, 0.5), (0.5, 1.0))
    law = Gaussian(mu, sigma)
    assert np.array_equal(law_mean(law), mu)
    assert law.cov == sigma


def test_atomic_weight_validation():
    with pytest.raises(ValueError):
        Atomic(((1.0,), (-1.0,)), (0.6, 0.6))
    with pytest.raises(ValueError):
        Atomic(((1.0,), (-1.0,)), (1.2, -0.2))
    # within tolerance: renormalized silently
    law = Atomic(((1.0,), (-1.0,)), (0.5, 0.5 + 5e-13))
    assert abs(sum(law.weights) - 1.0) < 1e-15


def test_gaussian_cov_validation():
    with pytest.raises(ValueError):
        Gaussian((0.0, 0.0), ((1.0, 0.2), (0.3, 1.0)))
    with pytest.raises(ValueError):
        Gaussian((0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)))


def test_dirac_sampling_is_constant():
    # Any uniform in [0, 1) picks the hot atom of a one-hot row.
    law = Atomic(((-1.0,), (3.0,), (5.0,)), (0.0, 1.0, 0.0))
    for cell in range(5):
        assert law_sample(law, key(cell=cell)) == 3.0
    for hot in range(3):
        cum = np.cumsum(np.eye(3)[hot])
        assert np.all(atomic_index(cum, [0.0, 0.5, np.nextafter(1.0, 0.0)]) == hot)


def test_pm1_sample_mean_clt():
    law = Atomic(((1.0,), (-1.0,)), (0.5, 0.5))
    x = draws(law, 1, 100000)
    assert abs(x.mean()) <= 3.0 / np.sqrt(100000)


def test_gaussian_standard_sample_cov():
    law = Gaussian((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    cov = np.cov(draws(law, 7, 100000).T)
    assert np.all(np.abs(np.diag(cov) - 1.0) < 0.05)
    assert abs(cov[0, 1]) < 0.05


def test_batch_matches_sequential_sampling():
    for law in (
        Atomic(((1.0,), (0.0,), (-2.0,)), (0.3, 0.45, 0.25)),
        Gaussian((0.5,), ((2.0,),)),
        # d >= 2: one draw and a batch share gaussian_step's order of sums
        Gaussian((0.3, -0.2), ((1.5, 0.4), (0.4, 0.8))),
        Gaussian((0.1, 0.0, -0.4), ((1.0, 0.3, 0.1), (0.3, 0.7, 0.2), (0.1, 0.2, 0.9))),
        Atomic(((1.0,), (-1.0,)), (1.0, 0.0)),
    ):
        keys = [key(11, cell) for cell in range(16)]
        u = np.stack([k.uniforms(sample_uniform_count(law)) for k in keys])
        one_by_one = np.stack([law_sample(law, k) for k in keys])
        assert np.array_equal(batch(law, u), one_by_one)


@pytest.mark.parametrize(
    "law",
    [
        Atomic(((1.0,), (-1.0,)), (0.7, 0.3)),
        Atomic(((2.0, 0.0), (0.0, -1.0), (-1.0, 1.0)), (0.2, 0.5, 0.3)),
        Gaussian((0.3, -0.2), ((1.5, 0.4), (0.4, 0.8))),
        Atomic(((-2.0,), (4.0,)), (0.0, 1.0)),
    ],
)
def test_moment_consistency_of_sampler(law):
    # Empirical mean/cov of 1e5 draws within 4 standard errors of closed form.
    n = 100000
    x = draws(law, 5, n)
    mean = law_mean(law)
    if isinstance(law, Atomic):
        centered_atoms = np.asarray(law.points) - mean
        cov = (centered_atoms * np.asarray(law.weights)[:, None]).T @ centered_atoms
    else:
        cov = np.asarray(law.cov)
    se_mean = np.sqrt(np.maximum(np.diag(cov), 1e-30) / n)
    assert np.all(np.abs(x.mean(axis=0) - mean) <= 4 * se_mean + 1e-12)
    if np.any(cov):
        centered = x - mean
        for i in range(len(mean)):
            for j in range(len(mean)):
                prods = centered[:, i] * centered[:, j]
                se = prods.std(ddof=1) / np.sqrt(n)
                assert abs(prods.mean() - cov[i][j]) <= 4 * se


def test_second_moment_matches_samples():
    law = Gaussian((1.0, 1.0), ((1.0, 0.0), (0.0, 2.0)))
    x = draws(law, 9, 100000)
    emp = (x**2).sum(axis=1)
    se = emp.std(ddof=1) / np.sqrt(len(emp))
    # E|x|^2 = |mean|^2 + trace(cov) = 2 + 3
    assert abs(emp.mean() - 5.0) <= 4 * se
