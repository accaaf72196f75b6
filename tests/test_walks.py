import ctypes
import shutil
import subprocess
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from envwalk import streams, walks
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
from envwalk.families import DiracSteps, FixedAtomic, GaussianDrift, UniformPM1, lattice_stride
from envwalk.jumplaws import law_mean
from envwalk.streams import TAG_ENV, TAG_WALK, StreamKey, seed_lanes
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
    assert p.shape == (1, 1)
    assert p[0, 0] == 0.0


def test_path_replays():
    p1 = simulate_quenched_path(MIX, 32, walk_seed=5)
    p2 = simulate_quenched_path(MIX, 32, walk_seed=5)
    assert np.array_equal(p1, p2)
    p3 = simulate_quenched_path(MIX, 32, walk_seed=6)
    assert not np.array_equal(p1, p3)


def test_unit_steps_on_pm1_lattice():
    p = simulate_quenched_path(MIX, 100, walk_seed=1)
    steps = np.diff(p[:, 0])
    assert set(np.abs(steps)) == {1.0}


def test_quenched_step_dirac_deterministic():
    k1, k2 = StreamKey(1, 0, (0,), 2), StreamKey(2, 0, (9,), 2)
    assert quenched_step(DIRAC, 0, 0.0, k1) == quenched_step(DIRAC, 0, 0.0, k2)


@pytest.mark.parametrize("env", [MIX, FC, DIRAC, FAIR, FR, *OTHER, HALF])
def test_batch_quenched_matches_scalar(env):
    record, pos, _ = batch_quenched_positions(env, 24, np.arange(6))
    for w in range(6):
        p = simulate_quenched_path(env, 24, walk_seed=w)
        assert np.array_equal(p, pos[:, w].astype(float))


@pytest.mark.parametrize("env", [MIX, FC, DIRAC, FAIR, FR])
def test_batch_averaged_matches_scalar(env):
    record, pos = batch_averaged_positions(env, 16, np.arange(5))
    for r in range(5):
        p = averaged_path(env, 16, r)
        assert np.array_equal(p, pos[:, r].astype(float))


@pytest.mark.parametrize("env", OTHER)
def test_x1_samples_match_scalar(env):
    fast = _x1_samples(env, 20, 3)
    for i in range(20):
        replica = env_replica(env, i)
        for j in range(3):
            assert fast[3 * i + j, 0] == simulate_quenched_path(replica, 1, walk_seed=j)[1, 0]


# Block-boundary parity: with the ``small_blocks`` budget (7 steps a block
# for 6 walkers, 9 for 5) each walk below records every step across several
# blocks of position-free draws, on the compiled and on the numpy path.
# The same walks also record unsorted and repeated steps, 0 and the last
# step among them, or one early step, or runs of consecutive steps
# (9 .. 24, longer than a block, and 3 .. 5) that end before the last: the
# walker steps to each stop in one call (numpy: across blocks), writes each
# run a block at a time and walks on to the last step, so the drift sums
# cover every step.
BLOCK_FIELDS = [MIX, FC, DIRAC, *OTHER, GAUSS, HALF]
BLOCK_STOPS = (None, [11, 0, 25, 3, 11, 25, 0], [3], [*range(24, 8, -1), 5, 3, 4, 3])


def recorded(steps, n_steps):
    """The steps a walk records: every step by default."""
    return list(range(n_steps + 1)) if steps is None else steps


@pytest.mark.parametrize("env", BLOCK_FIELDS)
def test_blocked_quenched_matches_scalar(env, small_blocks, monkeypatch):
    paths = [simulate_quenched_path(env, 25, walk_seed=w) for w in range(6)]
    drifts = [sum(law_mean(query(env, k, p[k]))[0] for k in range(25)) for p in paths]
    for _ in each_step_path(monkeypatch):
        for stops in BLOCK_STOPS:
            record, pos, drift = batch_quenched_positions(env, 25, np.arange(6), record_steps=stops,
                                                          accumulate_drift=True)
            assert record.tolist() == recorded(stops, 25)
            for w, p in enumerate(paths):
                assert np.array_equal(p[record], pos[:, w].astype(float))
                assert drift[w, 0] == drifts[w]


@pytest.mark.parametrize("env", BLOCK_FIELDS)
def test_blocked_averaged_matches_scalar(env, small_blocks, monkeypatch):
    paths = [averaged_path(env, 25, r) for r in range(5)]
    for _ in each_step_path(monkeypatch):
        for stops in BLOCK_STOPS:
            record, pos = batch_averaged_positions(env, 25, np.arange(5), record_steps=stops)
            assert record.tolist() == recorded(stops, 25)
            for r, p in enumerate(paths):
                assert np.array_equal(p[record], pos[:, r].astype(float))


def test_recorded_steps_lie_in_the_walk(monkeypatch):
    for _ in each_step_path(monkeypatch):
        for bad in ([26], [3, -1]):
            with pytest.raises(ValueError, match="recorded steps lie in 0 .. 25"):
                batch_quenched_positions(MIX, 25, np.arange(6), record_steps=bad)


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
        assert np.array_equal(p, pos[:, w])
        total = np.zeros(env.d)
        for k in range(17):
            total = total + law_mean(query(env, k, p[k]))
        assert np.array_equal(drift[w], total)
    for r in range(5):
        assert np.array_equal(averaged_path(env, 17, r), averaged[:, r])
    for i in range(4):
        replica = env_replica(env, i)
        for j in range(3):
            assert np.array_equal(one_step[3 * i + j], simulate_quenched_path(replica, 1, walk_seed=j)[1])


def test_exact_paths_reject_non_integer_atoms():
    env = D_FIELDS["non-integer-atoms-d1"]
    with pytest.raises(ValueError, match="integer atoms"):
        exact_mean_curves(env, 4, np.arange(2, dtype=np.uint64))
    with pytest.raises(ValueError, match="integer atoms"):
        exact_mean_curves(GAUSS, 4, np.arange(2, dtype=np.uint64))
    with pytest.raises(ValueError, match="integer atoms"):
        lattice_stride(env.family)


# An atom a hair off the lattice: a relative tolerance would round it onto 2.
NEAR_INTEGER = make_lattice_product(404, 1, FixedAtomic(((2.00001,), (-1.0,)), (0.5, 0.5)), uniform_offset=False)


def test_near_integer_atoms_stay_floats():
    support = NEAR_INTEGER.family.support
    assert support.dtype == np.float64 and np.array_equal(support[:, 0], [2.00001, -1.0])
    _, pos, _ = batch_quenched_positions(NEAR_INTEGER, 6, np.arange(5))
    for w in range(5):
        assert np.array_equal(pos[:, w], simulate_quenched_path(NEAR_INTEGER, 6, walk_seed=w))
    assert not np.array_equal(pos, np.round(pos))


def test_exact_propagators_reject_near_integer_atoms():
    with pytest.raises(ValueError, match="integer atoms"):
        quenched_mean_exact(NEAR_INTEGER, 2)
    with pytest.raises(ValueError, match="integer atoms"):
        exact_mean_curves(NEAR_INTEGER, 2, np.arange(2, dtype=np.uint64))


@pytest.mark.parametrize(
    "points, stride",
    [([1, -1], 2), ([1, -1, 3], 2), ([2, -1, -1], 3), ([2, -1, 0], 1), ([4, -2], 6), ([1], 1), ([-10], 1)],
)
def test_lattice_stride_is_the_gcd_of_the_atom_gaps(points, stride):
    fam = FixedAtomic(tuple((float(p),) for p in points), (1.0 / len(points),) * len(points))
    assert fam.support.dtype == np.int64
    assert lattice_stride(fam) == stride
    # a walk from 0 is at step k on k * min(atoms) + stride * Z
    env = make_lattice_product(404, 1, fam, uniform_offset=False)
    _, pos, _ = batch_quenched_positions(env, 12, np.arange(20))
    k = np.arange(13)[:, None]
    assert np.all((pos[..., 0] - k * min(points)) % stride == 0)


def test_gcd_stride_curves_match_the_dictionary_oracle(monkeypatch):
    # Atoms {2, -1, -1} live on a stride-3 lattice; the dense curves on it agree
    # with the dictionary propagator, on the compiled and the numpy step.
    env = make_lattice_product(404, 1, FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (0.3, 0.2, 0.5)))
    seeds = np.asarray([env.master_seed], dtype=np.uint64)
    want = quenched_mean_exact(env, 60).means[:, 0]
    for _ in each_step_path(monkeypatch):
        assert np.allclose(exact_mean_curves(env, 60, seeds)[0], want, rtol=0, atol=1e-12)


def test_quenched_mean_mc_in_two_dimensions():
    env = D_FIELDS["gauss-d2"]
    curve = quenched_mean_mc(env, [1, 5, 9], 40)
    paths = np.stack([simulate_quenched_path(env, 9, walk_seed=w)[[1, 5, 9]] for w in range(40)], axis=1)
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
    stops=st.lists(st.integers(0, 20), max_size=5),
)
def test_batched_paths_match_scalar_property(model, p, x0, walkers, steps, stops):
    env = _PROPERTY_FIELDS[model](UniformPM1(*p))
    stops = [min(k, steps) for k in stops]
    with pytest.MonkeyPatch.context() as mp:
        # 16 walker-steps per block: 1 to 16 steps a block, so the walks
        # straddle block boundaries at most walker and step counts.  The
        # quenched and averaged walks also record a drawn list of steps, so
        # they step on in stretches of 0 to 20 steps: one compiled call
        # each, or numpy blocks, which the stretches straddle too.
        mp.setattr(walks, "_BLOCK_ELEMENTS", 16)
        _, quenched, _ = batch_quenched_positions(env, steps, np.arange(walkers), x0=x0)
        _, averaged = batch_averaged_positions(env, steps, np.arange(walkers))
        _, quenched_at, _ = batch_quenched_positions(env, steps, np.arange(walkers), x0=x0, record_steps=stops)
        _, averaged_at = batch_averaged_positions(env, steps, np.arange(walkers), record_steps=stops)
        _, y = batch_diff_positions(env, steps, np.arange(walkers), x0=x0, kind=SAME_ENV)
    for w in range(walkers):
        path, averaged_w = simulate_quenched_path(env, steps, walk_seed=w, x0=x0), averaged_path(env, steps, w)
        assert np.array_equal(path, quenched[:, w])
        assert np.array_equal(averaged_w, averaged[:, w])
        assert np.array_equal(path[stops], quenched_at[:, w])
        assert np.array_equal(averaged_w[stops], averaged_at[:, w])
        assert np.array_equal(simulate_diff_chain(env, x0, steps, SAME_ENV, replica=w)[:, 0], y[:, w])


def test_quenched_mean_mc_dirac_zero_se():
    curve = quenched_mean_mc(DIRAC, [1, 4, 8], 200)
    assert np.all(curve.standard_errors == 0.0)
    path = simulate_quenched_path(DIRAC, 8, walk_seed=0)
    assert np.array_equal(curve.means[:, 0], path[[1, 4, 8], 0])


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


@pytest.mark.parametrize(
    "env",
    [
        MIX,
        make_lattice_product(404, 1, FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (0.3, 0.2, 0.5))),
        FR,
        make_dirac(404, 1, DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.25, 0.625, 0.125))),
    ],
    ids=["mixing", "three-atom-drift", "finite-range", "dirac-three"],
)
def test_propagated_law_is_a_law_with_the_propagated_mean(env, monkeypatch):
    # After every step the yielded law sums to 1 on each replica row, and its
    # mean over the sites lo + st * j is the mean the step wrote, on the
    # compiled and the numpy step.
    seeds = np.asarray([3, 2**63 + 5, 17], dtype=np.uint64)
    base = seed_lanes(seeds)
    st = lattice_stride(env.family)
    for _ in each_step_path(monkeypatch):
        means = np.zeros((3, 121))
        steps = 0
        for k, lo, law in walks._propagate(env, base, field_read(env, base), means):
            assert k == steps and law.shape[0] == 3
            assert np.allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.allclose(law @ (lo + st * np.arange(law.shape[1])), means[:, k + 1], rtol=0, atol=1e-9)
            steps += 1
        assert steps == 120


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# Fields for the compiled step: each d=1 fixed-support family, on the
# stride-2 grid (odd atoms) and the stride-3 grid (a 3-atom FixedAtomic on
# {2, -1, -1}; the drifting one makes the atom order of the drift sum show in
# its last bits).
# Each family kind of the compiled field read is here: affine (UniformPM1,
# also with p_low == p_high), threshold (DiracSteps on the lattice with
# uniform and with weighted probs, and on 2- and 3-point Dirac fields) and
# constant (FixedAtomic).
# n_max is where the rows have passed 256 sites, so the pairwise row sums
# split at least twice.
_STEP_FIELDS = {
    "mixing": (MIX, 1000),
    "mixing-flat": (make_lattice_product(404, 1, UniformPM1(0.5, 0.5)), 1000),
    "dirac-lattice": (make_lattice_product(404, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5))), 1000),
    "dirac-lattice-weighted": (make_lattice_product(404, 1, DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.3, 0.6, 0.1))), 1000),
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
@pytest.mark.parametrize("name", ["mixing", "dirac-lattice", "finite-range", "dirac", "fixed-lattice"])
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


def compiled_field_weights(env, seeds, levels, sites):
    """The compiled field read (``envwalk_field_weights``) of each field in ``seeds`` at
    each of ``sites`` and the consecutive ``levels``, shape (levels, fields, sites, atoms)."""
    read = field_read(env, seed_lanes(np.repeat(seeds, len(sites))))
    x = np.tile(np.asarray(sites, dtype=np.int64), len(seeds))
    out = np.empty((len(levels), len(x), len(env.family.support)))
    streams._LIB.envwalk_field_weights(ctypes.addressof(read), levels[0], len(levels), len(x), x.ctypes.data, out.ctypes.data)
    return out.reshape(len(levels), len(seeds), len(sites), -1)


_TIE = float(StreamKey(3, 0, (0,), TAG_ENV).uniforms(1)[0])
_READ_FAMILIES = {
    "affine": UniformPM1(0.25, 0.75),
    "threshold": DiracSteps(((1.0,), (-1.0,), (3.0,), (-3.0,)), (0.5, 0.2, 0.2, 0.1)),
    "threshold-dirac": DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.3, 0.5, 0.2)),
    "constant": FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (0.3, 0.2, 0.5)),
}
# Each family kind (the threshold kind as a 4-point and a 3-point DiracSteps)
# on the lattice with and without the uniform offset, on finite-range grids
# of spacing 1.5 and 2 and on the level-correlated field (no cell word); the
# Dirac field with 2 and 3 points.
_READ_FIELDS = {
    **{
        f"{kind}-{name}": make(fam)
        for kind, fam in _READ_FAMILIES.items()
        for name, make in {
            "lattice": lambda fam: make_lattice_product(11, 1, fam, uniform_offset=False),
            "lattice-offset": lambda fam: make_lattice_product(11, 1, fam, uniform_offset=True),
            "finite-range-1.5": lambda fam: make_finite_range(11, 1, 1.5, fam),
            "finite-range-2": lambda fam: make_finite_range(11, 1, 2.0, fam),
            "level-correlated": lambda fam: make_fully_correlated(11, 1, fam),
        }.items()
    },
    "dirac": make_dirac(11, 1, DiracSteps(((1.0,), (-1.0,)), (0.4, 0.6))),
    "dirac-three": make_dirac(11, 1, DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.4, 0.3, 0.3))),
    # A threshold equal to the uniform of seed 3's cell 0 at level 0, which the
    # row from cell -2500 reads: a tie picks the next row (side="right").
    "threshold-tie": make_lattice_product(
        11, 1, DiracSteps(((1.0,), (-1.0,)), (_TIE, 1.0 - _TIE)), uniform_offset=False
    ),
}


@needs_kernel
@pytest.mark.parametrize("name", sorted(_READ_FIELDS))
def test_compiled_field_read_matches_field_weights(name):
    env = _READ_FIELDS[name]
    seeds = np.asarray([3, 2**63 + 5], dtype=np.uint64)
    base = seed_lanes(seeds)
    for levels in (range(2), range(2**40, 2**40 + 1)):
        # one site, a row of 4 001 sites from cell -3999 on the parity grid, and the step-1 grid
        for lo, st, n in ((-7, 2, 1), (-3999, 2, 4001), (-2500, 1, 4096)):
            sites = lo + st * np.arange(n)
            got = compiled_field_weights(env, seeds, levels, sites)
            for i, level in enumerate(levels):
                want = field_weights(env, (base[0][:, None], base[1][:, None]), level, sites[:, None])
                assert_same_bits(got[i], want)


@needs_kernel
@pytest.mark.parametrize("kind", sorted(_READ_FAMILIES))
def test_compiled_level_correlated_curves_match_numpy_curves(kind, monkeypatch):
    # The closed form reads its per-level rows in C (a fall-back to
    # field_weights would fail here) for 300 replicas, more than one tile of
    # 256 fields, with the bits of the numpy read.
    env = make_fully_correlated(11, 1, _READ_FAMILIES[kind])
    seeds = np.arange(300, dtype=np.uint64) * np.uint64(2**61 + 3)
    lib = streams._LIB
    monkeypatch.setattr(streams, "_LIB", None)
    want = exact_mean_curves(env, 60, seeds)

    def no_field_weights(*args, **kwargs):
        raise AssertionError("the compiled closed form read the field through field_weights")

    monkeypatch.setattr(streams, "_LIB", lib)
    monkeypatch.setattr(walks, "field_weights", no_field_weights)
    assert_same_bits(exact_mean_curves(env, 60, seeds), want)


def assert_step_bits(lib, env, base, st, offsets, mass, k, lo, i0, i1, start):
    """One propagation step of the law ``mass`` (m, n_pos) on the sites lo +
    st * j at level k, atom a landing ``offsets[a]`` sites on, from the means
    ``start`` (m, 2), on the numpy step and through ``lib.envwalk_propagate``
    with the weight-row room the call documents: the means, the law in
    [i0, i1) and the dropped mass agree bit for bit.  The numpy step is
    handed its weight rows by field_weights; the compiled step reads them
    from the field."""
    support = np.ascontiguousarray(env.family.support[:, 0], dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    (m, n_pos), n_full = mass.shape, mass.shape[1] + int(offsets.max())
    w = field_weights(env, (base[0][:, None], base[1][:, None]), k, (lo + st * np.arange(n_pos))[:, None])
    read = field_read(env, base)
    means = [start.copy(), start.copy()]
    full = [np.empty((m, n_full)), np.empty((m, n_full))]
    row_weights = np.empty(n_pos * len(support))
    with np.errstate(invalid="ignore"):  # a row pruned to 0 is 0 / 0, on both paths
        want = walks._numpy_step(env.family, mass, w, offsets, i0, i1, means[0], full[0])
        dropped = lib.envwalk_propagate(
            ctypes.addressof(read), k, lo, st, m, n_pos, mass.ctypes.data, mass.strides[0] // 8, support.ctypes.data,
            offsets.ctypes.data, n_full, i0, i1, walks.PRUNE_MASS, full[1].ctypes.data, means[1].ctypes.data, 2,
            row_weights.ctypes.data,
        )
    assert_same_bits(means[1], means[0])
    assert_same_bits(full[1][:, i0:i1], full[0][:, i0:i1])
    assert dropped == want


@needs_kernel
def test_compiled_step_matches_numpy_step_on_every_row_length():
    # Random laws, some sites below PRUNE_MASS, a window cut on either side,
    # and a non-contiguous law, on one field of each family kind, at every
    # row length; the 3-atom field on the unit grid, where its atoms land up
    # to 3 sites on.
    rng = np.random.default_rng(15)
    fields = [  # (field, grid step, atom offsets, span)
        (make_lattice_product(404, 1, FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (0.3, 0.2, 0.5))), 1, [3, 0, 0], 3),
        (make_lattice_product(404, 1, UniformPM1()), 2, [1, 0], 1),
        (make_finite_range(404, 1, 1.5, DiracSteps(((1.0,), (-1.0,)), (0.25, 0.75))), 2, [1, 0], 1),
        (make_dirac(404, 1, DiracSteps(((1.0,), (-1.0,), (3.0,)), (0.25, 0.625, 0.125))), 2, [1, 0, 2], 2),
    ]
    base = seed_lanes(np.asarray([3, 2**63 + 5, 17], dtype=np.uint64))
    for env, st, offsets, span in fields:
        for n_pos in [*range(1, 600), 1024, 2000, 4097]:
            mass = (rng.random((3, n_pos + 2)) * 10.0 ** rng.integers(-18, 0, (3, n_pos + 2)))[:, 1:-1]
            k, lo = int(rng.choice([0, 5, 2**40])), int(rng.integers(-3000, 3000))
            i0, i1 = int(rng.integers(0, span + 1)), n_pos + span - int(rng.integers(0, span + 1))
            assert_step_bits(streams._LIB, env, base, st, offsets, mass, k, lo, i0, i1, rng.random((3, 2)))


# Fields for the edge rows: 2-atom supports in both orders, [1, -1] (atom
# offsets [1, 0]: UniformPM1, and a FixedAtomic and a DiracSteps pair) and
# [-1, 1] (offsets [0, 1]), a finite-range field and a 3-atom field.  The
# constant and threshold rows are dyadic, so a dyadic law's next law sums
# to exactly 1 when the window keeps all of it.
_EDGE_FIELDS = {
    "affine": MIX,
    "affine-finite-range": FR,
    "constant": FAIR,
    "constant-reversed": make_lattice_product(404, 1, FixedAtomic(((-1.0,), (1.0,)), (0.5, 0.5)), uniform_offset=False),
    "threshold": make_lattice_product(404, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)), uniform_offset=False),
    "threshold-reversed": make_lattice_product(404, 1, DiracSteps(((-1.0,), (1.0,)), (0.5, 0.5)), uniform_offset=False),
    "three-atom": make_lattice_product(404, 1, FixedAtomic(((2.0,), (-1.0,), (-1.0,)), (0.25, 0.25, 0.5))),
}


def edge_laws(rng, n_pos):
    """Laws of 6 rows on n_pos sites: random masses between exact-zero runs of
    random length at either edge; a lone live site first, and last; a dyadic
    law summing to exactly 1 between zero runs; random masses with some below
    PRUNE_MASS; and no mass at all."""
    mass = np.zeros((6, n_pos))
    a, b = sorted(rng.integers(0, n_pos + 1, 2))
    mass[0, a:b] = rng.random(b - a)
    mass[1, 0] = mass[2, -1] = 0.375
    a = int(rng.integers(0, n_pos))
    b = int(rng.integers(a + 1, n_pos + 1))
    mass[3, a:b] = rng.multinomial(2**10, np.full(b - a, 1.0 / (b - a))) / 2**10
    mass[4] = rng.random(n_pos) * 10.0 ** rng.integers(-18, 0, n_pos)
    assert mass[3].sum() == 1.0
    return mass


def assert_edge_rows_match(lib):
    """Every edge law, at row lengths on both sides of the pairwise sum's
    blocks, with the window whole and cut, at two levels, through ``lib``."""
    rng = np.random.default_rng(29)
    base = seed_lanes(np.arange(6, dtype=np.uint64) * np.uint64(2**61 + 3))
    for env in _EDGE_FIELDS.values():
        st, support = lattice_stride(env.family), env.family.support[:, 0]
        offsets = (support - support.min()).astype(np.intp) // st
        span = int(offsets.max())
        for n_pos in [1, 2, 3, 5, 8, 17, 127, 130, 300]:
            mass = edge_laws(rng, n_pos)
            for k in (0, 2**40):
                lo = int(rng.integers(-3000, 3000))
                cut = int(rng.integers(0, span + 1)), n_pos + int(rng.integers(0, span + 1))
                for i0, i1 in ((0, n_pos + span), cut):
                    assert_step_bits(lib, env, base, st, offsets, mass, k, lo, i0, i1, rng.random((6, 2)))


@needs_kernel
def test_compiled_step_matches_numpy_step_on_edge_rows():
    # The compiled step hashes only the live sites (from the first to the
    # last mass that is not an exact zero), gathers the next law with the
    # sites within span of either end guarded, and divides only a row that
    # does not sum to exactly 1: each of these meets its edge here.
    assert_edge_rows_match(streams._LIB)


# Walkers for the compiled walker (envwalk_walk): each family kind of the
# compiled field read on the lattice with and without the offset, on
# finite-range grids of spacing 1.5 and 2 and on the level-correlated
# field, and on 2- and 3-point Dirac fields (_READ_FIELDS); a DiracSteps
# threshold tie at the walkers' first read (seed 3, cell 0, level 0); a step weight equal to walker 0's first
# walk uniform, which the inverse CDF breaks to the next atom.
_WALK_TIE = float(StreamKey(3, 0, (0,), TAG_WALK).uniforms(1)[0])
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


# Fields of g walkers each.  A compiled tile holds at most 256 walkers, all
# of one field: at g = 2 and 3 a tile a field, at g = 255 and 256 one tile
# one walker short of full and full, at 257 and 300 a full tile and a tile
# of 1 and of 44.
_SHARED_FIELDS = [(101, 2), (101, 3), (3, 255), (3, 256), (3, 257), (3, 300)]


def shared_field_walks(env, n_fields, g):
    """Walkers in ``n_fields`` fields of g walkers each (lanes of shape
    (n_fields, 1) against walkers (n_fields, g)): the steps, positions and
    drift sums of a walker recorded at unsorted and repeated steps, then every
    step's positions and the drift sums of one that iterates its blocks."""
    lanes = walks._per_row(seed_lanes(np.arange(n_fields, dtype=np.uint64) * np.uint64(2**61 + 3)))
    cells = np.arange(n_fields * g).reshape(n_fields, g, 1)
    assert walks._field_groups(lanes, (n_fields, g))[1] == g
    walker = walks._Walker(env, lanes, cells, 2, 30, accumulate_drift=True)
    record = walker.record([17, 0, 30, 5, 17])
    blocks = walks._Walker(env, lanes, cells, 2, 30, accumulate_drift=True)
    steps = np.concatenate([block for _, block in blocks])
    return (*record, walker.drift, steps, blocks.drift)


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


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_clone_free_build_matches_numpy(tmp_path, small_blocks, monkeypatch):
    # -DVECTOR_CLONES= builds the baseline code alone, which hosts without
    # AVX-512 (and compilers without target clones) run, while the loader
    # picks the AVX-512 clone wherever the CPU has it.  That build gives the
    # numpy paths' bits on the step fields' curves, the edge rows and walkers.
    target = tmp_path / "_hash_baseline.so"
    subprocess.run(["cc", *streams._CFLAGS, "-DVECTOR_CLONES=", "-o", str(target), str(streams._KERNEL_SOURCE),
                    *streams._LDLIBS], check=True, capture_output=True, timeout=600)
    assert b"arch_x86_64_v4" not in target.read_bytes()
    lib = streams._declare(ctypes.CDLL(str(target)))
    seeds = np.asarray([3, 2**63 + 5], dtype=np.uint64)
    walkers = [_WALK_FIELDS[name] for name in ("affine-finite-range-1.5", "threshold-lattice-offset", "constant-level-correlated")]
    monkeypatch.setattr(streams, "_LIB", None)
    want = [exact_mean_curves(env, n_max, seeds) for env, n_max in _STEP_FIELDS.values()]
    want_walks = [every_walker(env, -3) for env in walkers]
    want_shared = [[shared_field_walks(env, *case) for case in _SHARED_FIELDS] for env in walkers]
    monkeypatch.setattr(streams, "_LIB", lib)
    for (env, n_max), expected in zip(_STEP_FIELDS.values(), want):
        assert_same_bits(exact_mean_curves(env, n_max, seeds), expected)
    for env, expected in zip(walkers, want_walks):
        assert walks._Walker(env, seed_lanes(env.master_seed), np.zeros((1, 1, 1), np.int64), 0, 1).compiled
        for got, exp in zip(every_walker(env, -3), expected):
            assert_same_bits(got, exp)
    for env, expected in zip(walkers, want_shared):
        for case, exp_case in zip(_SHARED_FIELDS, expected):
            for got, exp in zip(shared_field_walks(env, *case), exp_case):
                assert_same_bits(got, exp)
    assert_edge_rows_match(lib)


@needs_kernel
@pytest.mark.parametrize("n", [1, 255, 257, 1000])
@pytest.mark.parametrize("name", sorted(_READ_FIELDS))
def test_shared_field_block_matches_numpy_and_per_walker_copies(name, n, monkeypatch):
    # A batch in one field hashes each key prefix once per field and step
    # (g = n walkers a field); the same walkers given n copies of the field's
    # lane pair hash it once per walker (g = 1).  Both give the numpy steps'
    # positions and drift sums, with partial tiles of 256 walkers at 255 and
    # 257, and 4 tiles of which the last is partial at 1 000.
    env = _READ_FIELDS[name]
    shared = seed_lanes(env.master_seed)
    copies = tuple(np.full((n, 1), h) for h in shared)
    cells = np.stack([np.arange(n) * 3 - 7, np.ones(n, np.int64)], axis=-1)[:, None, :]
    assert walks._field_groups(shared, (n, 1))[1] == n and walks._field_groups(copies, (n, 1))[1] == 1

    def walk(lanes):
        walker = walks._Walker(env, lanes, cells, -3, 40, accumulate_drift=True)
        assert walker.compiled == (streams._LIB is not None)
        return (*walker.record(), walker.drift)

    lib = streams._LIB
    monkeypatch.setattr(streams, "_LIB", None)
    want = walk(shared)
    monkeypatch.setattr(streams, "_LIB", lib)
    for lanes in (shared, copies):
        for got, expected in zip(walk(lanes), want):
            assert_same_bits(got, expected)


@needs_kernel
@pytest.mark.parametrize("n_fields, g", _SHARED_FIELDS, ids=["2", "3", "3x255", "3x256", "3x257", "3x300"])
@pytest.mark.parametrize("name", sorted(_READ_FIELDS))
def test_fields_of_several_walkers_across_tiles(name, n_fields, g, monkeypatch):
    # Each tile reads one field's key prefix, and on the level-correlated
    # field (no cell word) its one weight row, in place; the compiled walker
    # gives the numpy steps' bits, recorded and block by block.
    env = _READ_FIELDS[name]
    lib = streams._LIB
    monkeypatch.setattr(streams, "_LIB", None)
    want = shared_field_walks(env, n_fields, g)
    monkeypatch.setattr(streams, "_LIB", lib)
    for got, expected in zip(shared_field_walks(env, n_fields, g), want):
        assert_same_bits(got, expected)


def test_walkers_that_stay_on_the_numpy_steps():
    # Gaussian laws, d >= 2 and float positions (atoms off the lattice).
    for env in [*D_FIELDS.values(), GAUSS, HALF]:
        cells = np.zeros((1, 1, 1), np.int64)
        assert not walks._Walker(env, seed_lanes(env.master_seed), cells, 0, 1).compiled


def test_walkers_reject_a_start_their_positions_cannot_hold():
    # Positions on an integer support are integers: a start of 1.7 (or a pair
    # start of 2.5) would be truncated, while the scalar paths start there.
    with pytest.raises(ValueError, match="int64 positions cannot start at 1.7"):
        batch_quenched_positions(MIX, 3, [0], x0=1.7)
    with pytest.raises(ValueError, match="int64 positions cannot start at 2.5"):
        batch_diff_positions(MIX, 3, np.arange(2), x0=2.5)
    # A walk key's cell starts with the walk seed, which the compiled walker reads.
    with pytest.raises(ValueError, match="at least the walk seed"):
        walks._Walker(MIX, seed_lanes(MIX.master_seed), np.zeros((2, 1, 0), np.int64), 0, 3)
    # A start the positions hold exactly walks as the scalar path does:
    # 2.0 on an integer support, 2.5 on atoms off the lattice.
    _, pos, _ = batch_quenched_positions(MIX, 3, [0], x0=2.0)
    assert np.array_equal(pos[:, 0].astype(float), simulate_quenched_path(MIX, 3, walk_seed=0, x0=2.0))
    _, y = batch_diff_positions(HALF, 5, np.arange(3), x0=2.5)
    for r in range(3):
        assert np.array_equal(y[:, r], simulate_diff_chain(HALF, 2.5, 5, SAME_ENV, replica=r)[:, 0])


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
    assert p.shape == (13, 2)
    assert np.array_equal(p, simulate_quenched_path(env, 12, walk_seed=0))
    v, v_se, cov, cov_se = velocity_and_covariance(env, 300, 10)
    d_true = np.asarray(env.family.averaged_cov)
    assert np.all(np.abs(v) <= 4 * v_se)
    assert np.all(np.abs(cov - d_true) <= 4 * cov_se)
