import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envwalk import streams, walks
from envwalk.analysis import _lattice_span
from envwalk.diffchain import SAME_ENV, batch_diff_positions, simulate_diff_chain
from envwalk.environments import (
    env_replica,
    make_dirac,
    make_finite_range,
    make_fully_correlated,
    make_lattice_product,
    query,
    shift,
)
from envwalk.families import ChoicePM1, DiracSteps, FixedAtomic, GaussianDrift, UniformPM1
from envwalk.jumplaws import law_mean
from envwalk.streams import StreamKey, derive_stream
from envwalk.walks import (
    _x1_samples,
    batch_averaged_positions,
    batch_quenched_positions,
    env_chain_observable,
    exact_mean_curves,
    local_drift,
    quenched_mean_exact,
    quenched_mean_mc,
    quenched_step,
    simulate_averaged_path,
    simulate_quenched_path,
    velocity_and_covariance,
)

MIX = make_lattice_product(404, 1, UniformPM1())
FAIR = make_lattice_product(404, 1, FixedAtomic(((1.0,), (-1.0,)), (0.5, 0.5)), uniform_offset=False)
DIRAC = make_dirac(404, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))
FC = make_fully_correlated(404, 1, UniformPM1())
FR = make_finite_range(404, 1, 2.0, UniformPM1())
# Shifted templates: the batched paths must read the field in the shifted frame.
SHIFTED = [shift(make_lattice_product(5, 1, UniformPM1()), 3, 5), shift(FR, 3, 5)]


def test_zero_step_path():
    p = simulate_quenched_path(MIX, 0, walk_seed=0)
    assert p.positions.shape == (1, 1)
    assert p.positions[0, 0] == 0.0


def test_path_replays():
    p1 = simulate_quenched_path(MIX, 32, walk_seed=5)
    p2 = simulate_quenched_path(MIX, 32, walk_seed=5)
    assert np.array_equal(p1.positions, p2.positions)
    p3 = simulate_quenched_path(MIX, 32, walk_seed=6)
    assert not np.array_equal(p1.positions, p3.positions)


def test_unit_steps_on_pm1_lattice():
    p = simulate_quenched_path(MIX, 100, walk_seed=1)
    steps = np.diff(p.positions[:, 0])
    assert set(np.abs(steps)) == {1.0}


def test_quenched_step_dirac_deterministic():
    s1 = derive_stream(StreamKey(1, 0, (0,), 2))
    s2 = derive_stream(StreamKey(2, 0, (9,), 2))
    assert quenched_step(DIRAC, 0, 0.0, s1) == quenched_step(DIRAC, 0, 0.0, s2)


@pytest.mark.parametrize("env", [MIX, FC, DIRAC, FAIR, FR, *SHIFTED, shift(MIX, 2, 0.5)])
def test_batch_quenched_matches_scalar(env):
    record, pos, _ = batch_quenched_positions(env, 24, np.arange(6))
    for w in range(6):
        p = simulate_quenched_path(env, 24, walk_seed=w)
        assert np.array_equal(p.positions, pos[:, w].astype(float))


@pytest.mark.parametrize("env", [MIX, FC, DIRAC, FAIR, FR])
def test_batch_averaged_matches_scalar(env):
    record, pos = batch_averaged_positions(env, 16, np.arange(5))
    for r in range(5):
        p = simulate_averaged_path(env, 16, replica=r)
        assert np.array_equal(p.positions, pos[:, r].astype(float))


@pytest.mark.parametrize("env", SHIFTED)
def test_x1_samples_match_scalar(env):
    fast = _x1_samples(env, 20, 3)
    for i in range(20):
        replica = env_replica(env, i)
        for j in range(3):
            assert fast[3 * i + j, 0] == simulate_quenched_path(replica, 1, walk_seed=j).positions[1, 0]


# Block-boundary parity: with the ``small_blocks`` budget each run below
# crosses several blocks of position-free draws.
BLOCK_FIELDS = [MIX, FC, DIRAC, *SHIFTED, shift(FC, 3, 5), shift(MIX, 2, 0.5)]


@pytest.mark.parametrize("env", BLOCK_FIELDS)
def test_blocked_quenched_matches_scalar(env, small_blocks):
    _, pos, drift = batch_quenched_positions(env, 25, np.arange(6), accumulate_drift=True)
    for w in range(6):
        p = simulate_quenched_path(env, 25, walk_seed=w)
        assert np.array_equal(p.positions, pos[:, w].astype(float))
        drifts = [law_mean(query(env, k, p.positions[k]))[0] for k in range(25)]
        assert drift[w, 0] == sum(drifts)


@pytest.mark.parametrize("env", BLOCK_FIELDS)
def test_blocked_averaged_matches_scalar(env, small_blocks):
    _, pos = batch_averaged_positions(env, 25, np.arange(5))
    for r in range(5):
        p = simulate_averaged_path(env, 25, replica=r)
        assert np.array_equal(p.positions, pos[:, r].astype(float))


# Every family in any dimension walks through the same batched walker.
_G2 = GaussianDrift(2, 0.4, ((1.0, 0.2), (0.2, 0.5)))
_LAT2 = FixedAtomic(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)), (0.4, 0.1, 0.3, 0.2))
D_FIELDS = {
    "gauss-d1": make_lattice_product(21, 1, GaussianDrift(1, 0.5, ((1.5,),))),
    "gauss-d2": make_lattice_product(21, 2, _G2),
    "gauss-d3": make_lattice_product(
        21, 3, GaussianDrift(3, 0.3, ((1.0, 0.2, 0.0), (0.2, 0.5, 0.1), (0.0, 0.1, 0.8)))
    ),
    "lattice-d2": make_lattice_product(21, 2, _LAT2),
    "lattice-d2-no-offset": make_lattice_product(21, 2, _LAT2, uniform_offset=False),
    "dirac-d2": make_dirac(21, 2, DiracSteps(((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)), (0.3, 0.3, 0.4))),
    "gauss-finite-range": make_finite_range(21, 2, 1.5, _G2),
    "gauss-level-correlated": make_fully_correlated(21, 2, _G2),
    "gauss-fractional-shift": shift(make_lattice_product(21, 2, _G2), 3, (0.5, -1.25)),
    "lattice-fractional-shift": shift(make_lattice_product(21, 2, _LAT2), 2, (0.25, 3.0)),
    # Atoms off the lattice: the walker keeps float positions, as the scalar path does.
    "non-integer-atoms-d1": make_lattice_product(21, 1, FixedAtomic(((0.5,), (-1.25,)), (0.6, 0.4))),
    "non-integer-atoms-d2": make_lattice_product(21, 2, FixedAtomic(((0.5, 0.0), (-0.5, 0.25)), (0.5, 0.5))),
    "non-integer-dirac-d2": make_dirac(21, 2, DiracSteps(((0.5, 0.0), (0.0, -1.5), (-0.5, 0.5)), (0.3, 0.3, 0.4))),
}


@pytest.fixture(params=["default-blocks", "small-blocks"])
def blocks(request):
    if request.param == "small-blocks":
        request.getfixturevalue("small_blocks")


@pytest.mark.parametrize("env", D_FIELDS.values(), ids=D_FIELDS)
def test_batched_paths_match_scalar_in_any_dimension(env, blocks):
    _, pos, drift = batch_quenched_positions(env, 17, np.arange(6), accumulate_drift=True)
    _, averaged = batch_averaged_positions(env, 17, np.arange(5))
    one_step = _x1_samples(env, 4, 3)
    assert pos.shape == (18, 6, env.d) and drift.shape == (6, env.d)
    for w in range(6):
        p = simulate_quenched_path(env, 17, walk_seed=w)
        assert np.array_equal(p.positions, pos[:, w])
        total = np.zeros(env.d)
        for k in range(17):
            total = total + law_mean(query(env, k, p.positions[k]))
        assert np.array_equal(drift[w], total)
    for r in range(5):
        assert np.array_equal(simulate_averaged_path(env, 17, replica=r).positions, averaged[:, r])
    for i in range(4):
        replica = env_replica(env, i)
        for j in range(3):
            assert np.array_equal(one_step[3 * i + j], simulate_quenched_path(replica, 1, walk_seed=j).positions[1])


def test_exact_paths_reject_non_integer_atoms():
    env = D_FIELDS["non-integer-atoms-d1"]
    with pytest.raises(ValueError, match="integer atoms"):
        exact_mean_curves(env, 4, np.arange(2, dtype=np.uint64))
    with pytest.raises(ValueError, match="integer atoms"):
        _lattice_span(env)


def test_quenched_mean_mc_and_env_chain_in_two_dimensions():
    env = D_FIELDS["gauss-d2"]
    curve = quenched_mean_mc(env, [1, 5, 9], 40)
    paths = np.stack([simulate_quenched_path(env, 9, walk_seed=w).positions[[1, 5, 9]] for w in range(40)], axis=1)
    assert curve.means.shape == curve.standard_errors.shape == (3, 2)
    assert np.allclose(curve.means, paths.mean(axis=1), rtol=0, atol=1e-12)
    assert np.allclose(curve.standard_errors, paths.std(axis=1, ddof=1) / np.sqrt(40), rtol=0, atol=1e-12)
    f = lambda law: float(law_mean(law) @ law_mean(law))
    est, _ = env_chain_observable(env, 4, f, 30)
    _, pos = batch_averaged_positions(env, 4, np.arange(30), record_steps=[4])
    seen = [shift(env_replica(env, i), 4, simulate_averaged_path(env, 4, replica=i).positions[4]) for i in range(30)]
    assert np.array_equal(pos[0], [s.shift_point for s in seen])
    assert est == float(np.mean([f(query(s, 0, np.zeros(2))) for s in seen]))


def test_level_correlated_curves_match_per_level_laws():
    # All levels are read in one call; each curve is the running sum of the
    # scalar per-level drifts, bit for bit, and the dictionary propagator
    # (which sums mass-weighted drifts over its support) agrees to rounding.
    seeds = np.asarray([404, 7, 2**63 + 5], dtype=np.uint64)
    fast = exact_mean_curves(FC, 40, seeds)
    for i, seed in enumerate(seeds.tolist()):
        env = make_fully_correlated(seed, 1, UniformPM1())
        drifts = [law_mean(query(env, k, 0.0))[0] for k in range(40)]
        assert np.array_equal(fast[i], np.concatenate([[0.0], np.cumsum(drifts)]))
        assert np.allclose(fast[i], quenched_mean_exact(env, 40).means[:, 0], rtol=0, atol=1e-12)


_PROPERTY_FIELDS = {
    "mixing": lambda fam: make_lattice_product(31, 1, fam),
    "mixing-no-offset": lambda fam: make_lattice_product(31, 1, fam, uniform_offset=False),
    "finite-range": lambda fam: make_finite_range(31, 1, 1.5, fam),
    "level-correlated": lambda fam: make_fully_correlated(31, 1, fam),
    "dirac": lambda fam: DIRAC,
}


@given(
    model=st.sampled_from(sorted(_PROPERTY_FIELDS)),
    p=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    level=st.integers(0, 6),
    point=st.one_of(st.integers(-6, 6), st.floats(-6.0, 6.0)),
    walkers=st.integers(1, 9),
    steps=st.integers(1, 20),
)
def test_batched_paths_match_scalar_property(model, p, level, point, walkers, steps):
    env = shift(_PROPERTY_FIELDS[model](UniformPM1(*p)), level, point)
    with pytest.MonkeyPatch.context() as mp:
        # 16 walker-steps per block: 1 to 16 steps a block, so the walks
        # straddle block boundaries at most walker and step counts.
        mp.setattr(walks, "_BLOCK_ELEMENTS", 16)
        _, quenched, _ = batch_quenched_positions(env, steps, np.arange(walkers))
        _, averaged = batch_averaged_positions(env, steps, np.arange(walkers))
        _, y = batch_diff_positions(env, steps, np.arange(walkers), x0=1, kind=SAME_ENV)
    for w in range(walkers):
        assert np.array_equal(simulate_quenched_path(env, steps, walk_seed=w).positions, quenched[:, w])
        assert np.array_equal(simulate_averaged_path(env, steps, replica=w).positions, averaged[:, w])
        assert np.array_equal(simulate_diff_chain(env, 1, steps, SAME_ENV, replica=w).values[:, 0], y[:, w])


def test_local_drift_values():
    p = query(MIX, 0, 0.0).weights[0]
    assert local_drift(MIX) == pytest.approx(2 * p - 1)
    g_env = make_lattice_product(11, 2, GaussianDrift(2, 0.5, ((1.0, 0.0), (0.0, 1.0))))
    law = query(g_env, 0, (0.0, 0.0))
    assert np.array_equal(local_drift(g_env), law.mean)


def test_local_drift_after_shift_is_step_conditional_mean():
    env = MIX
    p = simulate_quenched_path(env, 10, walk_seed=3)
    k, xk = 4, p.positions[4, 0]
    seen = shift(env, k, xk)
    step_law = query(env, k, xk)
    assert np.array_equal(local_drift(seen), law_mean(step_law))


def test_quenched_mean_mc_dirac_zero_se():
    curve = quenched_mean_mc(DIRAC, [1, 4, 8], 200)
    assert np.all(curve.standard_errors == 0.0)
    path = simulate_quenched_path(DIRAC, 8, walk_seed=0)
    assert np.array_equal(curve.means[:, 0], path.positions[[1, 4, 8], 0])


def test_exact_vs_mc_agreement():
    env = env_replica(MIX, 12)
    grid = np.array([1, 4, 16, 32])
    mc = quenched_mean_mc(env, grid, 20000)
    exact = quenched_mean_exact(env, 32)
    dev = np.abs(mc.means[:, 0] - exact.means[grid, 0]) / mc.standard_errors[:, 0]
    assert dev.max() <= 4.0


@pytest.mark.parametrize("env", [MIX, FC, DIRAC])
def test_fast_curves_match_generic_exact(env):
    seeds = np.asarray([env.master_seed], dtype=np.uint64)
    fast = exact_mean_curves(env, 64, seeds)[0]
    generic = quenched_mean_exact(env, 64).means[:, 0]
    assert np.allclose(fast, generic, atol=1e-10)


needs_kernel = pytest.mark.skipif(streams._LIB is None, reason="no compiled kernel: the numpy step serves every call")


def each_step_path(monkeypatch):
    """Yield on the compiled propagation step (where it loads), then on the numpy fall-back."""
    for lib in dict.fromkeys([streams._LIB, None]):
        monkeypatch.setattr(streams, "_LIB", lib)
        yield


def test_drifting_field_window_drop_raises(monkeypatch):
    # v = 0.5: the law leaves the window at step 80, where the window first
    # binds (|x| <= 79), while the dictionary propagator keeps all of it.
    # Both steps raise with the same message.
    env = make_lattice_product(404, 1, UniformPM1(0.6, 0.9))
    seeds = np.asarray([env.master_seed], dtype=np.uint64)
    for _ in each_step_path(monkeypatch):
        assert np.allclose(exact_mean_curves(env, 79, seeds)[0], quenched_mean_exact(env, 79).means[:, 0], atol=1e-10)
        with pytest.raises(ValueError, match=r"^exact propagation: step 80 drops mass 2\.08e-11 outside the window \|x\| <= 79"):
            exact_mean_curves(env, 80, seeds)


@pytest.mark.parametrize("atom", [-10.0, 10.0])
def test_law_leaving_the_window_whole_raises(atom, monkeypatch):
    # A pointmass moving 10 sites a step leaves the window in one step at
    # step 77; the window then lies wholly on one side of the support.
    env = make_lattice_product(404, 1, FixedAtomic(((atom,),), (1.0,)), uniform_offset=False)
    for _ in each_step_path(monkeypatch):
        with pytest.raises(ValueError, match=r"^exact propagation: step 77 drops mass 1 outside the window \|x\| <= 766"):
            exact_mean_curves(env, 100, np.arange(3, dtype=np.uint64))


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# Fields for the compiled step: each d=1 fixed-support family, on the
# parity-2 grid (odd atoms) and the step-1 grid with broadcast weight rows
# (a 3-atom FixedAtomic; the drifting one makes the atom order of the drift
# sum show in its last bits).  n_max is where the rows have passed 256 sites,
# so the pairwise row sums split at least twice.
_STEP_FIELDS = {
    "mixing": (MIX, 1000),
    "choice": (make_lattice_product(404, 1, ChoicePM1((0.2, 0.5, 0.8))), 1000),
    "finite-range": (FR, 1000),
    "fixed-lattice": (FAIR, 1000),
    "dirac": (DIRAC, 1000),
    "three-atom": (make_lattice_product(404, 1, FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (1 / 3, 1 / 3, 1 / 3))), 300),
    "three-atom-drift": (make_lattice_product(404, 1, FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (0.3, 0.2, 0.5))), 300),
}


@needs_kernel
@pytest.mark.parametrize("name", sorted(_STEP_FIELDS))
def test_compiled_step_matches_numpy_step(name, monkeypatch):
    env, n_max = _STEP_FIELDS[name]
    seeds = np.asarray([3, 2**63 + 5], dtype=np.uint64)
    compiled = exact_mean_curves(env, n_max, seeds)
    monkeypatch.setattr(streams, "_LIB", None)
    assert_same_bits(compiled, exact_mean_curves(env, n_max, seeds))


@needs_kernel
def test_compiled_step_matches_numpy_step_on_every_row_length():
    # Random laws and weight rows, some sites below PRUNE_MASS, a window
    # cut on either side, and a non-contiguous law: the mean, the next law
    # and the dropped mass agree bit for bit at every row length.
    rng = np.random.default_rng(15)
    fam = FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (1 / 3, 1 / 3, 1 / 3))
    offsets = np.array([3, 0, 0])
    for n_pos in [*range(1, 600), 1024, 2000, 4097]:
        mass = (rng.random((3, n_pos + 2)) * 10.0 ** rng.integers(-18, 0, (3, n_pos + 2)))[:, 1:-1]
        w = rng.random((3, n_pos, 3))
        i0, i1 = int(rng.integers(0, 3)), n_pos + 3 - int(rng.integers(0, 3))
        start = rng.random((3, 2))
        means = [start.copy(), start.copy()]
        with np.errstate(invalid="ignore"):  # a short row can be pruned to 0 / 0, on both paths
            want = walks._numpy_step(fam, mass, w, offsets, 3, i0, i1, means[0])
        got = walks._kernel_step(fam, mass, w, offsets, 3, i0, i1, means[1])
        assert_same_bits(means[1], means[0])
        assert_same_bits(got[0], want[0])
        assert got[1] == want[1]


def test_nonrandom_fair_env_has_zero_quenched_mean():
    exact = quenched_mean_exact(FAIR, 16)
    assert np.allclose(exact.means, 0.0, atol=1e-15)


def test_exact_rejects_gaussian_laws():
    env = make_lattice_product(9, 1, GaussianDrift(1, 0.5, ((1.0,),)))
    with pytest.raises(ValueError):
        quenched_mean_exact(env, 4)


def test_exact_support_cap():
    with pytest.raises(ValueError):
        quenched_mean_exact(MIX, 12, support_cap=3)


def test_velocity_and_covariance_uniform_model():
    v, v_se, cov, cov_se = velocity_and_covariance(MIX, 100000)
    assert abs(v[0]) <= 4 * v_se[0]
    assert abs(cov[0, 0] - 1.0) <= 4 * cov_se[0, 0]


def test_velocity_and_covariance_dirac_field():
    v, v_se, cov, cov_se = velocity_and_covariance(DIRAC, 50000)
    assert abs(v[0]) <= 4 * v_se[0]
    assert abs(cov[0, 0] - 1.0) <= 4 * cov_se[0, 0]


def test_velocity_and_covariance_fixed_gaussian():
    env = make_lattice_product(3, 1, GaussianDrift(1, 0.0, ((2.0,),)))
    v, v_se, cov, cov_se = velocity_and_covariance(env, 400, 25)
    assert abs(v[0]) <= 4 * v_se[0]
    assert abs(cov[0, 0] - 2.0) <= 4 * cov_se[0, 0]


def test_env_chain_observable_constant_function():
    est, se = env_chain_observable(MIX, 3, lambda law: 2.5, 200)
    assert est == 2.5 and se == 0.0


@pytest.mark.parametrize("env", [MIX, FC])
def test_env_chain_stationarity(env):
    # f depends on the current level only; its mean is n-free under refresh.
    f = lambda law: float(law_mean(law)[0] ** 2)
    results = {n: env_chain_observable(env, n, f, 8000) for n in (0, 4, 16)}
    for a in (0, 4):
        for b in (4, 16):
            if a >= b:
                continue
            (ea, sa), (eb, sb) = results[a], results[b]
            assert abs(ea - eb) <= 4 * np.hypot(sa, sb)


def test_martingale_property():
    # X_N - sum of local drifts along the path is mean-zero for fixed field.
    env = env_replica(MIX, 77)
    n, m = 32, 100000
    _, pos, drift = batch_quenched_positions(env, n, np.arange(m), record_steps=[n], accumulate_drift=True)
    mart = pos[0].astype(float) - drift
    se = mart.std(ddof=1) / np.sqrt(m)
    assert abs(mart.mean()) <= 4 * se


def test_averaged_walk_increment_independence():
    # classical-walk check: increment autocorrelation at lags 1..5
    n, m = 40, 10000
    _, pos = batch_averaged_positions(MIX, n, np.arange(m))
    inc = np.diff(pos.astype(float), axis=0)
    for lag in range(1, 6):
        a, b = inc[:-lag].ravel(), inc[lag:].ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(a.size)


def test_two_dimensional_gaussian_walk():
    env = make_lattice_product(13, 2, GaussianDrift(2, 0.4, ((1.0, 0.2), (0.2, 0.5))))
    p = simulate_quenched_path(env, 12, walk_seed=0)
    assert p.positions.shape == (13, 2)
    assert np.array_equal(p.positions, simulate_quenched_path(env, 12, walk_seed=0).positions)
    v, v_se, cov, cov_se = velocity_and_covariance(env, 300, 10)
    d_true = np.asarray(env.family.averaged_cov)
    assert np.all(np.abs(v) <= 4 * v_se)
    assert np.all(np.abs(cov - d_true) <= 4 * cov_se)
