import ctypes
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envwalk import streams, walks
from envwalk.analysis import _lattice_span
from envwalk.diffchain import SAME_ENV, batch_diff_positions, simulate_diff_chain
from envwalk.environments import (
    env_replica,
    field_read,
    field_weights,
    make_dirac,
    make_finite_range,
    make_fully_correlated,
    make_lattice_product,
    query,
)
from envwalk.families import ChoicePM1, DiracSteps, FixedAtomic, GaussianDrift, UniformPM1
from envwalk.jumplaws import law_mean
from envwalk.streams import TAG_ENV, TAG_WALK, StreamKey, derive_stream, seed_lanes, seed_lanes_vec
from envwalk.walks import (
    _x1_samples,
    batch_averaged_positions,
    batch_quenched_positions,
    exact_mean_curves,
    quenched_mean_exact,
    quenched_mean_mc,
    quenched_step,
    simulate_quenched_path,
    velocity_and_covariance,
)

MIX = make_lattice_product(404, 1, UniformPM1())
FAIR = make_lattice_product(404, 1, FixedAtomic(((1.0,), (-1.0,)), (0.5, 0.5)), uniform_offset=False)
DIRAC = make_dirac(404, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))
FC = make_fully_correlated(404, 1, UniformPM1())
FR = make_finite_range(404, 1, 2.0, UniformPM1())
OTHER = [make_lattice_product(5, 1, UniformPM1()), make_finite_range(5, 1, 1.5, UniformPM1())]
# Float positions on an offset lattice: the walkers hash floor(x + U), as query does.
GAUSS = make_lattice_product(5, 1, GaussianDrift(1, 0.5, ((1.5,),)))
HALF = make_lattice_product(5, 1, FixedAtomic(((0.5,), (-1.0,)), (0.5, 0.5)))


def averaged_path(env, n_steps, replica):
    """The scalar averaged walk: replica ``replica`` walks in its own fresh field."""
    return simulate_quenched_path(env_replica(env, replica), n_steps, walk_seed=replica)


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


@pytest.mark.parametrize("env", [MIX, FC, DIRAC, FAIR, FR, *OTHER, HALF])
def test_batch_quenched_matches_scalar(env):
    record, pos, _ = batch_quenched_positions(env, 24, np.arange(6))
    for w in range(6):
        p = simulate_quenched_path(env, 24, walk_seed=w)
        assert np.array_equal(p.positions, pos[:, w].astype(float))


@pytest.mark.parametrize("env", [MIX, FC, DIRAC, FAIR, FR])
def test_batch_averaged_matches_scalar(env):
    record, pos = batch_averaged_positions(env, 16, np.arange(5))
    for r in range(5):
        p = averaged_path(env, 16, r)
        assert np.array_equal(p.positions, pos[:, r].astype(float))


@pytest.mark.parametrize("env", OTHER)
def test_x1_samples_match_scalar(env):
    fast = _x1_samples(env, 20, 3)
    for i in range(20):
        replica = env_replica(env, i)
        for j in range(3):
            assert fast[3 * i + j, 0] == simulate_quenched_path(replica, 1, walk_seed=j).positions[1, 0]


# Block-boundary parity: with the ``small_blocks`` budget each run below
# crosses several blocks of position-free draws.
BLOCK_FIELDS = [MIX, FC, DIRAC, *OTHER, GAUSS, HALF]


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
        p = averaged_path(env, 25, r)
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
        assert np.array_equal(averaged_path(env, 17, r).positions, averaged[:, r])
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


def test_quenched_mean_mc_in_two_dimensions():
    env = D_FIELDS["gauss-d2"]
    curve = quenched_mean_mc(env, [1, 5, 9], 40)
    paths = np.stack([simulate_quenched_path(env, 9, walk_seed=w).positions[[1, 5, 9]] for w in range(40)], axis=1)
    assert curve.means.shape == curve.standard_errors.shape == (3, 2)
    assert np.allclose(curve.means, paths.mean(axis=1), rtol=0, atol=1e-12)
    assert np.allclose(curve.standard_errors, paths.std(axis=1, ddof=1) / np.sqrt(40), rtol=0, atol=1e-12)


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
    x0=st.integers(-6, 6),
    walkers=st.integers(1, 9),
    steps=st.integers(1, 20),
)
def test_batched_paths_match_scalar_property(model, p, x0, walkers, steps):
    env = _PROPERTY_FIELDS[model](UniformPM1(*p))
    with pytest.MonkeyPatch.context() as mp:
        # 16 walker-steps per block: 1 to 16 steps a block, so the walks
        # straddle block boundaries at most walker and step counts.
        mp.setattr(walks, "_BLOCK_ELEMENTS", 16)
        _, quenched, _ = batch_quenched_positions(env, steps, np.arange(walkers), x0=x0)
        _, averaged = batch_averaged_positions(env, steps, np.arange(walkers))
        _, y = batch_diff_positions(env, steps, np.arange(walkers), x0=x0, kind=SAME_ENV)
    for w in range(walkers):
        assert np.array_equal(simulate_quenched_path(env, steps, walk_seed=w, x0=x0).positions, quenched[:, w])
        assert np.array_equal(averaged_path(env, steps, w).positions, averaged[:, w])
        assert np.array_equal(simulate_diff_chain(env, x0, steps, SAME_ENV, replica=w).values[:, 0], y[:, w])


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
# parity-2 grid (odd atoms) and the step-1 grid (a 3-atom FixedAtomic; the
# drifting one makes the atom order of the drift sum show in its last bits).
# Each family kind of the compiled field read is here: affine (UniformPM1,
# also with p_low == p_high), threshold (ChoicePM1 with uniform and with
# weighted probs, 2- and 3-point DiracSteps) and constant (FixedAtomic).
# n_max is where the rows have passed 256 sites, so the pairwise row sums
# split at least twice.
_STEP_FIELDS = {
    "mixing": (MIX, 1000),
    "mixing-flat": (make_lattice_product(404, 1, UniformPM1(0.5, 0.5)), 1000),
    "choice": (make_lattice_product(404, 1, ChoicePM1((0.2, 0.5, 0.8))), 1000),
    "choice-weighted": (make_lattice_product(404, 1, ChoicePM1((0.2, 0.5, 0.8), (0.25, 0.5, 0.25))), 1000),
    "finite-range": (FR, 1000),
    "fixed-lattice": (FAIR, 1000),
    "dirac": (DIRAC, 1000),
    "dirac-three": (make_dirac(404, 1, DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.25, 0.625, 0.125))), 1000),
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
@pytest.mark.parametrize("name", ["mixing", "choice", "finite-range", "dirac", "fixed-lattice"])
def test_compiled_propagation_reads_the_field_itself(name, monkeypatch):
    # The compiled step forms its weight rows in C: a silent fall-back to
    # field_weights would fail here, and the bits stay those of the numpy path.
    env, _ = _STEP_FIELDS[name]
    seeds = np.asarray([3, 2**63 + 5], dtype=np.uint64)
    lib = streams._LIB
    monkeypatch.setattr(streams, "_LIB", None)
    want = exact_mean_curves(env, 200, seeds)

    def no_field_weights(*args, **kwargs):
        raise AssertionError("the compiled propagation read the field through field_weights")

    monkeypatch.setattr(streams, "_LIB", lib)
    monkeypatch.setattr(walks, "field_weights", no_field_weights)
    assert_same_bits(exact_mean_curves(env, 200, seeds), want)


def compiled_field_weights(env, seeds, level, lo, st, n):
    """The compiled field read (``envwalk_field_weights``) at the sites lo + st * j."""
    read = field_read(env, seed_lanes_vec(seeds))
    out = np.empty((len(seeds), n, len(env.family.support)))
    streams._LIB.envwalk_field_weights(ctypes.addressof(read), level, lo, st, len(seeds), n, out.ctypes.data)
    return out


_TIE = float(derive_stream(StreamKey(3, 0, (0,), TAG_ENV)).take(1)[0])
_READ_FAMILIES = {
    "affine": UniformPM1(0.25, 0.75),
    "threshold": ChoicePM1((0.2, 0.5, 0.9), (0.5, 0.2, 0.3)),
    "threshold-dirac": DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.3, 0.5, 0.2)),
    "constant": FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (0.3, 0.2, 0.5)),
}
# Each family kind on the lattice with and without the uniform offset and on
# finite-range grids of spacing 1.5 and 2; the Dirac field with 2 and 3 points.
_READ_FIELDS = {
    **{
        f"{kind}-{name}": make(fam)
        for kind, fam in _READ_FAMILIES.items()
        for name, make in {
            "lattice": lambda fam: make_lattice_product(11, 1, fam, uniform_offset=False),
            "lattice-offset": lambda fam: make_lattice_product(11, 1, fam, uniform_offset=True),
            "finite-range-1.5": lambda fam: make_finite_range(11, 1, 1.5, fam),
            "finite-range-2": lambda fam: make_finite_range(11, 1, 2.0, fam),
        }.items()
    },
    "dirac": make_dirac(11, 1, DiracSteps(((1.0,), (-1.0,)), (0.4, 0.6))),
    "dirac-three": make_dirac(11, 1, DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.4, 0.3, 0.3))),
    # A threshold equal to the uniform of seed 3's cell 0 at level 0, which the
    # row from cell -2500 reads: a tie picks the next row (side="right").
    "threshold-tie": make_lattice_product(11, 1, ChoicePM1((0.2, 0.8), (_TIE, 1.0 - _TIE)), uniform_offset=False),
}


@needs_kernel
@pytest.mark.parametrize("name", sorted(_READ_FIELDS))
def test_compiled_field_read_matches_field_weights(name):
    env = _READ_FIELDS[name]
    seeds = np.asarray([3, 2**63 + 5], dtype=np.uint64)
    base = seed_lanes_vec(seeds)
    for level in (0, 1, 2**40):
        # one site, a row of 4 001 sites from cell -3999 on the parity grid, and the step-1 grid
        for lo, st, n in ((-7, 2, 1), (-3999, 2, 4001), (-2500, 1, 4096)):
            want = field_weights(env, (base[0][:, None], base[1][:, None]), level, (lo + st * np.arange(n))[:, None])
            assert_same_bits(compiled_field_weights(env, seeds, level, lo, st, n), want)


@needs_kernel
def test_compiled_step_matches_numpy_step_on_every_row_length():
    # Random laws, some sites below PRUNE_MASS, a window cut on either side,
    # and a non-contiguous law, on one field of each family kind: the mean,
    # the next law and the dropped mass agree bit for bit at every row
    # length.  The compiled step reads its weight rows from the field; the
    # numpy step is handed them by field_weights.
    rng = np.random.default_rng(15)
    fields = [  # (field, grid step, atom offsets, span)
        (make_lattice_product(404, 1, FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (0.3, 0.2, 0.5))), 1, [3, 0, 0], 3),
        (make_lattice_product(404, 1, UniformPM1()), 2, [1, 0], 1),
        (make_finite_range(404, 1, 1.5, ChoicePM1((0.2, 0.5, 0.8), (0.25, 0.5, 0.25))), 2, [1, 0], 1),
        (make_dirac(404, 1, DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.25, 0.625, 0.125))), 2, [1, 0, 2], 2),
    ]
    seeds = np.asarray([3, 2**63 + 5, 17], dtype=np.uint64)
    base = seed_lanes_vec(seeds)
    for env, st, offsets, span in fields:
        offsets = np.asarray(offsets)
        kernel = walks._KernelSteps(env, base, st, offsets, span, np.zeros((3, 1)), 4097)
        for n_pos in [*range(1, 600), 1024, 2000, 4097]:
            mass = (rng.random((3, n_pos + 2)) * 10.0 ** rng.integers(-18, 0, (3, n_pos + 2)))[:, 1:-1]
            k, lo = int(rng.choice([0, 5, 2**40])), int(rng.integers(-3000, 3000))
            w = field_weights(env, (base[0][:, None], base[1][:, None]), k, (lo + st * np.arange(n_pos))[:, None])
            i0, i1 = int(rng.integers(0, span + 1)), n_pos + span - int(rng.integers(0, span + 1))
            start = rng.random((3, 2))
            means = [start.copy(), start.copy()]
            full = np.empty((3, n_pos + span))
            with np.errstate(invalid="ignore"):  # a short row can be pruned to 0 / 0, on both paths
                want = walks._numpy_step(env.family, mass, w, offsets, span, i0, i1, means[0])
                dropped = kernel.run(
                    k, lo, n_pos, mass.ctypes.data, mass.strides[0] // 8, i0, i1, full.ctypes.data,
                    means[1].ctypes.data, 2,
                )
            assert_same_bits(means[1], means[0])
            assert_same_bits(full[:, i0:i1], want[0])
            assert dropped == want[1]


# Walkers for the compiled walker (envwalk_walk): each family kind of the
# compiled field read on the lattice with and without the offset, on
# finite-range grids of spacing 1.5 and 2, and on 2- and 3-point Dirac
# fields (_READ_FIELDS); a ChoicePM1 threshold tie at the walkers' first
# read (seed 3, cell 0, level 0); a step weight equal to walker 0's first
# walk uniform, which the inverse CDF breaks to the next atom.
_WALK_TIE = float(derive_stream(StreamKey(3, 0, (0,), TAG_WALK)).take(1)[0])
_WALK_FIELDS = {
    **_READ_FIELDS,
    "threshold-tie": replace(_READ_FIELDS["threshold-tie"], master_seed=3),
    "step-tie": make_lattice_product(3, 1, FixedAtomic(((1.0,), (-1.0,)), (_WALK_TIE, 1.0 - _WALK_TIE))),
}


def every_walker(env, x0):
    """Quenched walks (with drift sums), averaged walks and one-step samples of ``env``."""
    _, quenched, drift = batch_quenched_positions(env, 30, np.arange(7), x0=x0, accumulate_drift=True)
    _, averaged = batch_averaged_positions(env, 30, np.arange(5))
    return quenched, drift, averaged, _x1_samples(env, 4, 3)


@needs_kernel
@pytest.mark.parametrize("x0", [0, -3])
@pytest.mark.parametrize("name", sorted(_WALK_FIELDS))
def test_compiled_walker_matches_numpy_walker(name, x0, small_blocks, monkeypatch):
    # Under small_blocks every walk crosses several blocks.  The compiled
    # walker hashes in C: a silent fall-back to the numpy steps would call
    # field_weights or lanes_for_cells and fail here.
    env = _WALK_FIELDS[name]
    assert walks._Walker(env, seed_lanes(env.master_seed), np.zeros((1, 1, 1), np.int64), x0, 1).compiled
    lib = streams._LIB
    monkeypatch.setattr(streams, "_LIB", None)
    want = every_walker(env, x0)

    def numpy_step(*args, **kwargs):
        raise AssertionError("the compiled walker ran a numpy step")

    monkeypatch.setattr(streams, "_LIB", lib)
    monkeypatch.setattr(walks, "field_weights", numpy_step)
    monkeypatch.setattr(walks, "lanes_for_cells", numpy_step)
    for got, expected in zip(every_walker(env, x0), want):
        assert_same_bits(got, expected)


def test_walkers_that_stay_on_the_numpy_steps():
    # Gaussian laws, d >= 2, float positions (atoms off the lattice) and the
    # level-correlated field.
    for env in [*D_FIELDS.values(), FC, GAUSS, HALF]:
        cells = np.zeros((1, 1, 1), np.int64)
        assert not walks._Walker(env, seed_lanes(env.master_seed), cells, 0, 1).compiled


def test_empty_batches_on_both_paths(monkeypatch):
    # No replicas and no walkers: empty curves and positions, the same on
    # the compiled paths and the numpy fall-back.
    for _ in each_step_path(monkeypatch):
        curves = exact_mean_curves(MIX, 10, np.arange(0, dtype=np.uint64))
        assert curves.shape == (0, 11) and curves.dtype == np.float64
        walker = walks._Walker(MIX, seed_lanes(MIX.master_seed), np.zeros((0, 1, 1), np.int64), 0, 10, True)
        assert walker.compiled == (streams._LIB is not None)
        assert list(walker) == []
        _, pos, drift = batch_quenched_positions(MIX, 10, np.arange(0), accumulate_drift=True)
        assert pos.shape == (11, 0, 1) and pos.dtype == np.int64
        assert drift.shape == (0, 1)


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
