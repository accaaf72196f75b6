import numpy as np
import pytest

from envwalk import diffchain, streams
from envwalk.diffchain import (
    INDEPENDENT_ENV,
    SAME_ENV,
    batch_diff_positions,
    excursion_record,
    excursion_scan,
    exit_time_scan,
    occupation_time,
    simulate_diff_chain,
)
from envwalk.environments import (
    env_replica,
    make_dirac,
    make_finite_range,
    make_fully_correlated,
    make_lattice_product,
)
from envwalk.families import DiracSteps, FixedAtomic, GaussianDrift, UniformPM1
from envwalk.stats import InsufficientDataError, ks_two_sample_critical, ks_two_sample_distance
from envwalk.walks import simulate_quenched_path

MIX = make_lattice_product(606, 1, UniformPM1())
FC = make_fully_correlated(606, 1, UniformPM1())
DIRAC = make_dirac(606, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))
FAIR = make_lattice_product(606, 1, FixedAtomic(((1.0,), (-1.0,)), (0.5, 0.5)), uniform_offset=False)
FR = make_finite_range(606, 1, 2.0, UniformPM1())


def exact_exit_mean(r: int) -> float:
    """Absorption oracle for the annealed difference chain of the p~U(0,1)
    +-1 lattice model: even states, sticky at 0 (stay 2/3), lazy elsewhere
    (stay 1/2, +-2 with 1/4)."""
    states = np.arange(-(r // 2) * 2, (r // 2) * 2 + 1, 2)
    index = {s: i for i, s in enumerate(states)}
    a = np.eye(len(states))
    for i, s in enumerate(states):
        stay, move = (2 / 3, 1 / 6) if s == 0 else (1 / 2, 1 / 4)
        a[i, i] -= stay
        for tgt in (s - 2, s + 2):
            if tgt in index:
                a[i, index[tgt]] -= move
    return float(np.linalg.solve(a, np.ones(len(states)))[index[0]])


@pytest.mark.parametrize("env", [MIX, FC, DIRAC, FAIR, FR])
def test_scalar_matches_batch(env):
    for kind in (SAME_ENV, INDEPENDENT_ENV):
        _, y = batch_diff_positions(env, 12, np.arange(4), x0=2, kind=kind)
        for rep in range(4):
            p = simulate_diff_chain(env, 2, 12, kind, replica=rep)
            assert np.array_equal(p[:, 0], y[:, rep].astype(float))


@pytest.mark.parametrize("env", [MIX, FC, DIRAC, FR])
def test_blocked_pairs_match_scalar(env, small_blocks, monkeypatch):
    # Pairs from x0 = 2 on the compiled walker (where it loads) and on the numpy one.
    for lib in dict.fromkeys([streams._LIB, None]):
        monkeypatch.setattr(streams, "_LIB", lib)
        for kind in (SAME_ENV, INDEPENDENT_ENV):
            _, y = batch_diff_positions(env, 23, np.arange(4), x0=2, kind=kind)
            for rep in range(4):
                p = simulate_diff_chain(env, 2, 23, kind, replica=rep)
                assert np.array_equal(p[:, 0], y[:, rep].astype(float))


# Six pairs take 3-step blocks under ``small_blocks``, so ``retire`` drops
# settled pairs mid-block: the scans must still follow every scalar chain.
@pytest.mark.parametrize("env", [MIX, FC])
@pytest.mark.parametrize("kind", [SAME_ENV, INDEPENDENT_ENV])
def test_blocked_exit_scan_matches_scalar(env, kind, small_blocks):
    # Pairs leave the widest box between steps 16 and 278, or not by the cap.
    r_grid = [2.0, 5.0, 12.0]
    scan = exit_time_scan(env, r_grid, 6, step_cap=400, kind=kind, x0=1)
    for rep in range(6):
        y = np.abs(simulate_diff_chain(env, 1, 400, kind, replica=rep)[:, 0])
        for j, r in enumerate(r_grid):
            out = np.flatnonzero(y > r)
            assert scan.exit_steps[j, rep] == (out[0] if out.size else -1)


# Pair fields for the compiled walker: each family kind of the compiled field
# read (affine, threshold as a 3-point DiracSteps on the lattice and as a
# Dirac field, constant with 3 atoms), the lattice with and without the
# offset, finite-range grids of spacing 1.5 and 2 and the level-correlated
# field.
PAIR_FIELDS = {
    "mixing": MIX,
    "level-correlated": FC,
    "mixing-no-offset": make_lattice_product(606, 1, UniformPM1(0.2, 0.9), uniform_offset=False),
    "dirac-lattice": make_lattice_product(606, 1, DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.5, 0.2, 0.3))),
    "three-atom": make_lattice_product(606, 1, FixedAtomic(((2.0,), (-1.0,), (0.0,)), (0.3, 0.2, 0.5))),
    "finite-range-1.5": make_finite_range(606, 1, 1.5, UniformPM1()),
    "finite-range-2": FR,
    "dirac": DIRAC,
}


def outcome(scan, *args, **kwargs):
    """The arrays of a scan's result, or the error it raised."""
    try:
        result = scan(*args, **kwargs)
    except InsufficientDataError as e:
        return (str(e),)
    if isinstance(result, (tuple, np.ndarray)):
        return tuple(result) if isinstance(result, tuple) else (result,)
    return tuple(v for v in vars(result).values() if isinstance(v, np.ndarray))


def every_scan(env, kind):
    return [
        *outcome(batch_diff_positions, env, 40, np.arange(5), x0=3, kind=kind, return_components=True),
        *outcome(exit_time_scan, env, [2.0, 5.0, 12.0], 6, step_cap=300, kind=kind, x0=1),
        *outcome(excursion_scan, env, 200, 0.2, 6, kind=kind),
        *outcome(lambda: occupation_time(env, [1, 5, 9, 23], 0.3, 6, kind=kind).estimates),
    ]


@pytest.mark.skipif(streams._LIB is None, reason="no compiled kernel: the numpy walker serves every pair")
@pytest.mark.parametrize("kind", [SAME_ENV, INDEPENDENT_ENV])
@pytest.mark.parametrize("name", sorted(PAIR_FIELDS))
def test_compiled_pairs_match_numpy_pairs(name, kind, small_blocks, monkeypatch):
    # Six pairs take 3-step blocks under small_blocks: blocks end inside
    # every scan, and the exit scan retires pairs mid-block.
    env = PAIR_FIELDS[name]
    assert diffchain._PairWalker(env, np.arange(2), 0, kind, 1).compiled
    compiled = every_scan(env, kind)
    monkeypatch.setattr(streams, "_LIB", None)
    want = every_scan(env, kind)
    assert len(compiled) == len(want)
    for got, expected in zip(compiled, want):
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got, expected, equal_nan=got.dtype.kind == "f")


def test_excursion_lengths_in_return_order(small_blocks):
    # Lengths come in (return step, pair) order, as a step-by-step scan finds them.
    horizon, m = 300, 6
    scan = excursion_scan(MIX, horizon, 0.2, m)
    _, y = batch_diff_positions(MIX, horizon, np.arange(m))
    outside = np.abs(y) > scan.box_radius
    want, left = [], np.zeros(m, dtype=np.int64)
    for k in range(1, horizon + 1):
        want.extend((k - left)[outside[k - 1] & ~outside[k]].tolist())
        left = np.where(outside[k] & ~outside[k - 1], k, left)
    assert scan.lengths.tolist() == want


def test_pairs_reject_fields_beyond_one_dimension():
    env = make_lattice_product(606, 2, FixedAtomic(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5)))
    with pytest.raises(ValueError, match="difference chains are one-dimensional; the field has d=2"):
        batch_diff_positions(env, 4, np.arange(3))


def test_dirac_same_env_coincides():
    p = simulate_diff_chain(DIRAC, 0, 30, SAME_ENV, replica=1)
    assert np.all(p == 0.0)


def test_coupling_identity_same_walk_noise():
    env = env_replica(MIX, 9)
    a = simulate_quenched_path(env, 25, walk_seed=4, subcell=(0,))
    b = simulate_quenched_path(env, 25, walk_seed=4, subcell=(0,))
    assert np.array_equal(a, b)


def test_fully_correlated_same_env_increments_symmetric():
    m = 10000
    _, y = batch_diff_positions(FC, 1, np.arange(m), 0, SAME_ENV, record_steps=[1])
    d = ks_two_sample_distance(y[0], -y[0])
    assert d < ks_two_sample_critical(m, m, 0.01)


def test_independent_env_first_step_moments():
    # difference of two independent annealed steps: mean 0, variance 2*D
    m = 40000
    _, y = batch_diff_positions(MIX, 1, np.arange(m), 0, INDEPENDENT_ENV, record_steps=[1])
    step = y[0].astype(float)
    se_mean = step.std(ddof=1) / np.sqrt(m)
    assert abs(step.mean()) <= 4 * se_mean
    sq = step**2
    se_var = sq.std(ddof=1) / np.sqrt(m)
    assert abs(sq.mean() - 2.0) <= 4 * se_var


def test_independent_env_increments_uncorrelated():
    m, n = 4000, 30
    _, y = batch_diff_positions(MIX, n, np.arange(m), 0, INDEPENDENT_ENV)
    inc = np.diff(y.astype(float), axis=0)
    for lag in range(1, 6):
        a, b = inc[:-lag].ravel(), inc[lag:].ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) <= 4.0 / np.sqrt(a.size)


def test_same_env_walks_share_level_law_when_fully_correlated():
    # negative control: the two walks' simultaneous increments correlate
    # through the shared level law at every distance.
    m, n = 8000, 10
    _, y, comps = batch_diff_positions(FC, n, np.arange(m), 5, SAME_ENV, return_components=True)
    inc = np.diff(comps.astype(float), axis=0)  # (n, m, 2)
    a, b = inc[:, :, 0].ravel(), inc[:, :, 1].ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert corr > 4.0 / np.sqrt(a.size)


def test_exit_times_match_absorption_oracle():
    scan = exit_time_scan(MIX, [2, 4, 8], 4000)
    for j, r in enumerate(scan.curve.grid):
        oracle = exact_exit_mean(int(r))
        dev = abs(scan.curve.estimates[j] - oracle) / scan.curve.standard_errors[j]
        assert dev <= 4.0, (r, scan.curve.estimates[j], oracle)
    assert np.all(scan.capped_fraction == 0.0)


def test_exit_scan_slope_within_polynomial_envelope():
    scan = exit_time_scan(MIX, [4, 8, 16, 32], 2000)
    assert scan.curve.fit is not None
    assert scan.curve.fit.exponent <= 13.0


def test_exit_scan_dirac_all_capped():
    scan = exit_time_scan(DIRAC, [2, 4], 50, step_cap=64)
    assert np.all(scan.capped_fraction == 1.0)
    assert np.all(np.isnan(scan.curve.estimates))
    assert scan.curve.fit is None
    assert np.all(scan.exit_steps < 0)


def test_exit_records_start_inside():
    scan = exit_time_scan(MIX, [4], 100, step_cap=10**5)
    steps = scan.exit_steps[0]
    assert np.all(steps[steps >= 0] >= 1)


def test_excursion_record_interleaving():
    for rep in range(5):
        p = simulate_diff_chain(MIX, 0, 400, SAME_ENV, replica=rep)
        rec = excursion_record(p, 2.0)
        assert rec.entries[0] == 0
        k = min(len(rec.entries) - 1, len(rec.exits))
        merged = np.empty(2 * k + 1, dtype=np.int64)
        merged[0::2] = rec.entries[: k + 1]
        merged[1::2] = rec.exits[:k]
        assert np.all(np.diff(merged) > 0)
        assert np.all(rec.lengths >= 1)


def test_excursion_scan_matches_per_path_records():
    horizon, eps, m = 512, 0.2, 40
    scan = excursion_scan(MIX, horizon, eps, m)
    _, y = batch_diff_positions(MIX, horizon, np.arange(m))
    lengths = [excursion_record(y[:, rep], scan.box_radius).lengths for rep in range(m)]
    expected = np.sort(np.concatenate(lengths))
    assert np.array_equal(np.sort(scan.lengths), expected)


def test_long_scalar_chains_match_batch():
    _, y = batch_diff_positions(MIX, 512, np.arange(2))
    for rep in range(2):
        p = simulate_diff_chain(MIX, 0, 512, SAME_ENV, replica=rep)
        assert np.array_equal(p[:, 0], y[:, rep].astype(float))


def test_excursion_scan_dirac_insufficient():
    with pytest.raises(InsufficientDataError):
        excursion_scan(DIRAC, 256, 0.2, 20)


def test_occupation_first_step():
    curve = occupation_time(MIX, [1], 0.2, 50)
    assert curve.estimates[0] == 1.0  # Y_0 = 0 is inside any box


_RNG = np.random.default_rng(11)
# Unsorted grids with repeated points; at eps = 0.5 the radii 1 .. 5 are
# integers, so some |Y| sit on a box's edge.
OCCUPATION_GRIDS = [
    ([1, 5, 9, 23], 0.3),
    ([25, 4, 9, 9, 16, 1, 4], 0.5),
    *((_RNG.integers(1, 30, size=8), _RNG.uniform(0.05, 1.2)) for _ in range(4)),
]


@pytest.mark.parametrize("kind", [SAME_ENV, INDEPENDENT_ENV])
def test_blocked_occupation_matches_chains(kind, small_blocks, monkeypatch):
    # The scan's counts against the broadcast count over (grid, step, pair).
    # Y_0 .. Y_{n-1} are counted for grid point n, so the walker steps n_max - 1 times.
    m, steps, step = 6, [], diffchain._PairWalker.step

    def recorded_step(walker):
        k0, y = walker.k, step(walker)
        steps.extend(range(k0, walker.k))
        return y

    monkeypatch.setattr(diffchain._PairWalker, "step", recorded_step)
    for n_grid, eps in OCCUPATION_GRIDS:
        steps.clear()
        curve = occupation_time(MIX, n_grid, eps, m, kind=kind)
        n_grid = np.sort(n_grid)
        assert steps == list(range(n_grid.max() - 1))
        _, y = batch_diff_positions(MIX, int(n_grid.max()), np.arange(m), kind=kind)
        inside = np.abs(y) <= n_grid[:, None, None] ** eps  # (grid, step, replica)
        counts = [inside[j, :n].sum(axis=0) for j, n in enumerate(n_grid)]
        assert np.array_equal(curve.estimates, np.mean(counts, axis=1))
        assert np.array_equal(curve.standard_errors, np.std(counts, axis=1, ddof=1) / np.sqrt(m))


@pytest.mark.parametrize(
    "env",
    [
        make_lattice_product(606, 1, GaussianDrift(1, 0.5, ((1.0,),))),
        make_lattice_product(606, 1, FixedAtomic(((0.5,), (-0.5,)), (0.5, 0.5))),
    ],
    ids=["gaussian", "half-integer-atoms"],
)
def test_occupation_with_float_differences_matches_chains(env):
    # Y off the integers: the scan's counts against the broadcast count.
    n_grid, m = np.asarray([4, 8, 16, 32]), 20
    curve = occupation_time(env, n_grid, 0.5, m)
    _, y = batch_diff_positions(env, int(n_grid.max()), np.arange(m))
    assert y.dtype == np.float64
    inside = np.abs(y) <= n_grid[:, None, None] ** 0.5  # (grid, step, replica)
    counts = [inside[j, :n].sum(axis=0) for j, n in enumerate(n_grid)]
    assert np.array_equal(curve.estimates, np.mean(counts, axis=1))
    assert np.array_equal(curve.standard_errors, np.std(counts, axis=1, ddof=1) / np.sqrt(m))


def test_occupation_sublinear_exponent():
    curve = occupation_time(MIX, 2 ** np.arange(4, 13), 0.2, 400)
    assert curve.fit is not None
    assert curve.fit.exponent < 1.0


def test_occupation_fully_correlated_near_half_plus_eps():
    # spatially constant laws make Y itself a symmetric walk, whose local
    # time in the slowly growing box scales like n^(1/2 + eps-correction)
    curve = occupation_time(FC, 2 ** np.arange(4, 13), 0.2, 400)
    assert 0.45 <= curve.fit.exponent < 1.0
