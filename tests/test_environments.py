import numpy as np
import pytest

from envwalk.environments import (
    env_replica,
    field_weights,
    make_dirac,
    make_finite_range,
    make_fully_correlated,
    make_lattice_product,
    offset_vector,
    query,
)
from envwalk.families import DiracSteps, FixedAtomic, GaussianDrift, UniformPM1, row_drifts
from envwalk.jumplaws import Dirac, law_mean
from envwalk.streams import seed_lanes
from envwalk.walks import simulate_quenched_path


def mixing_env(seed=101):
    return make_lattice_product(seed, 1, UniformPM1())


def test_same_cell_same_law():
    env = mixing_env()
    u = offset_vector(env)[0]
    # two points inside one shifted unit cell
    base = 3.0 + (1.0 - u) / 2
    assert query(env, 0, base) == query(env, 0, base + 0.25 * (1 - u))


def test_quenched_consistency_requery():
    env = mixing_env(7)
    points = [(n, x) for n in range(5) for x in np.linspace(-3, 3, 10)]
    laws = [query(env, n, x) for n, x in points]
    for _ in range(20):
        again = [query(env, n, x) for n, x in points]
        assert again == laws


def test_deterministic_family_gives_nonrandom_field():
    env = make_lattice_product(5, 1, FixedAtomic(((1.0,), (-1.0,)), (0.5, 0.5)), uniform_offset=False)
    laws = {query(env, n, x) for n in range(4) for x in range(-5, 5)}
    assert len(laws) == 1


def test_fully_correlated_constant_in_space():
    env = make_fully_correlated(3, 1, UniformPM1())
    rng = np.random.default_rng(1)
    ref = query(env, 4, 0.0)
    for x in rng.uniform(-100, 100, size=100):
        assert query(env, 4, float(x)) == ref


def test_fully_correlated_drift_position_free():
    env = make_fully_correlated(9, 1, UniformPM1())
    drifts = {float(law_mean(query(env, 2, x))[0]) for x in (-7.3, 0.0, 12.5)}
    assert len(drifts) == 1


def test_dirac_env_every_law_pointmass_and_walks_coincide():
    env = make_dirac(31, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))
    for n in range(3):
        for x in range(-3, 4):
            assert isinstance(query(env, n, x), Dirac)
    p1 = simulate_quenched_path(env, 50, walk_seed=0)
    p2 = simulate_quenched_path(env, 50, walk_seed=1)
    assert np.array_equal(p1.positions, p2.positions)


def test_dirac_family_type_enforced():
    with pytest.raises(ValueError):
        make_dirac(1, 1, UniformPM1())


def test_finite_range_independence_beyond_range():
    r = 2.0
    env_t = make_finite_range(47, 1, r, UniformPM1())
    m = 10000
    d0 = np.empty(m)
    dfar = np.empty(m)
    for i in range(m):
        env = env_replica(env_t, i)
        d0[i] = law_mean(query(env, 0, 0.0))[0]
        dfar[i] = law_mean(query(env, 0, 2 * r + 1.0))[0]
    corr = np.corrcoef(d0, dfar)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(m)


def test_finite_range_constant_within_cell():
    env = make_finite_range(51, 1, 1.0, UniformPM1())
    # nearest-center rule: law constant on [c - 0.5, c + 0.5)
    ref = query(env, 0, 2.0)
    assert query(env, 0, 2.49) == ref
    assert query(env, 0, 1.51) == ref
    assert query(env, 0, 2.51) != ref


def test_finite_range_requires_positive_range():
    with pytest.raises(ValueError):
        make_finite_range(1, 1, 0.0, UniformPM1())
    # Finer grids would put the cells of positions below 2**43 outside int64.
    with pytest.raises(ValueError, match="dependence_range must be >= "):
        make_finite_range(1, 1, 1e-18, UniformPM1())
    make_finite_range(1, 1, 2.0**-20, UniformPM1())


def test_level_independence():
    # drifts at matching points on two distinct levels are uncorrelated
    env_t = mixing_env(61)
    m = 10000
    a = np.empty(m)
    b = np.empty(m)
    for i in range(m):
        env = env_replica(env_t, i)
        a[i] = law_mean(query(env, 0, 0.0))[0]
        b[i] = law_mean(query(env, 1, 0.0))[0]
    assert abs(np.corrcoef(a, b)[0, 1]) <= 4.0 / np.sqrt(m)


def test_env_replicas_differ_and_are_reproducible():
    env_t = mixing_env(71)
    r1, r2 = env_replica(env_t, 0), env_replica(env_t, 1)
    assert r1.master_seed != r2.master_seed
    assert env_replica(env_t, 0) == r1
    assert query(r1, 0, 0.0) != query(r2, 0, 0.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        make_lattice_product(1, 2, UniformPM1())
    env = make_lattice_product(1, 2, GaussianDrift(2, 0.5, ((1.0, 0.0), (0.0, 1.0))))
    law = query(env, 0, (0.3, -0.7))
    assert len(law.mean) == 2


_DIRAC2 = DiracSteps(((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)), (0.3, 0.3, 0.4))


@pytest.mark.parametrize(
    "env",
    [mixing_env(31), make_lattice_product(31, 2, _DIRAC2), make_finite_range(31, 2, 1.5, _DIRAC2)],
    ids=["lattice-d1", "dirac-d2", "finite-range-d2"],
)
def test_field_weights_of_one_point_match_query(env):
    # A (d,) position is one point: one table row, the law query gives there.
    n_atoms = len(env.family.support)
    for point in (np.zeros(env.d), np.full(env.d, 2.6), np.arange(env.d) - 1.4, np.arange(env.d) - 3):
        rows = field_weights(env, seed_lanes(env.master_seed), 3, point)
        assert rows.shape == (n_atoms,)
        assert np.array_equal(row_drifts(env.family, rows), law_mean(query(env, 3, point)))
