import shutil

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from envwalk import streams
from envwalk.streams import (
    TAG_BOOT,
    TAG_DERIVE,
    TAG_DITHER,
    TAG_ENV,
    TAG_OFFSET,
    TAG_WALK,
    StreamKey,
    _mix1,
    _mix2,
    _u64,
    absorb,
    derive_seed,
    derive_seeds_vec,
    derive_stream,
    lanes_for_cells,
    seed_lanes,
    seed_lanes_vec,
    uniforms_at,
    words_at,
)


def test_same_key_replays_identically():
    key = StreamKey(12345, -3, (7, -2), 0)
    a = derive_stream(key).take(8)
    b = derive_stream(key).take(8)
    assert np.array_equal(a, b)


def test_order_independence_across_streams():
    k1 = StreamKey(9, 0, (1,), 0)
    k2 = StreamKey(9, 0, (2,), 0)
    s1, s2 = derive_stream(k1), derive_stream(k2)
    interleaved = [s1.take(1)[0], s2.take(1)[0], s1.take(1)[0], s2.take(1)[0]]
    fresh1 = derive_stream(k1).take(2)
    fresh2 = derive_stream(k2).take(2)
    assert interleaved == [fresh1[0], fresh2[0], fresh1[1], fresh2[1]]


def test_any_single_field_change_changes_stream():
    base = StreamKey(42, 5, (1, 2), 1)
    variants = [
        StreamKey(43, 5, (1, 2), 1),
        StreamKey(42, 6, (1, 2), 1),
        StreamKey(42, 5, (1, 3), 1),
        StreamKey(42, 5, (1, 2), 2),
        StreamKey(42, 5, (1,), 1),
    ]
    head = derive_stream(base).take(4)
    for other in variants:
        assert not np.array_equal(head, derive_stream(other).take(4))


def test_vectorized_lanes_match_scalar_keys():
    cells = np.array([[-5, 7], [0, 0], [123, -456]])
    lanes = lanes_for_cells(seed_lanes(77), 3, 0, cells)
    u = uniforms_at((lanes[0][:, None], lanes[1][:, None]), np.arange(6))
    for i, cell in enumerate(cells):
        expected = derive_stream(StreamKey(77, 3, tuple(int(c) for c in cell), 0)).take(6)
        assert np.array_equal(u[i], expected)


def test_per_row_seeds_match_scalar_keys():
    seeds = derive_seeds_vec(5, np.arange(4))
    base = seed_lanes_vec(seeds)
    cells = np.array([[10], [11], [12], [13]])
    lanes = lanes_for_cells(base, 2, 0, cells)
    u = uniforms_at(lanes, 0)
    for i in range(4):
        expected = derive_stream(StreamKey(int(seeds[i]), 2, (10 + i,), 0)).take(1)[0]
        assert u[i] == expected


def test_derive_seed_scalar_vs_vector():
    vec = derive_seeds_vec(99, np.arange(10))
    for i in range(10):
        assert int(vec[i]) == derive_seed(99, i)


def test_first_variates_uniform_chi_square():
    # 10^4 distinct cells, first variate each: chi-square GOF at level 0.001.
    lanes = lanes_for_cells(seed_lanes(2718), 0, 0, np.arange(10000)[:, None])
    u = uniforms_at(lanes, 0)
    counts, _ = np.histogram(u, bins=50, range=(0.0, 1.0))
    stat = ((counts - 200.0) ** 2 / 200.0).sum()
    p = sps.chi2.sf(stat, df=49)
    assert p > 0.001


def test_tag_streams_decorrelated():
    # first 10^3 variates of two streams differing only in the tag field
    a = derive_stream(StreamKey(101, 0, (5,), 0)).take(1000)
    b = derive_stream(StreamKey(101, 0, (5,), 1)).take(1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_uniforms_in_unit_interval():
    s = derive_stream(StreamKey(0, 0, (), 0))
    u = s.take(1000)
    assert u.min() >= 0.0 and u.max() < 1.0


# -- the compiled kernel against the numpy mixers -------------------------------

TAGS = (TAG_ENV, TAG_OFFSET, TAG_WALK, TAG_DERIVE, TAG_BOOT, TAG_DITHER)


def reference_lanes(base, level, tag, cells):
    """lanes_for_cells, absorbed word by word with the numpy mixers."""
    cells = np.asarray(cells)
    lanes = absorb(absorb(absorb(base, tag), level), cells.shape[-1])
    for j in range(cells.shape[-1]):
        lanes = absorb(lanes, cells[..., j])
    return lanes


def reference_words(lanes, index):
    i = _u64(index) + np.uint64(1)
    with np.errstate(over="ignore"):
        return _mix1(lanes[0] + i * np.uint64(0x9E3779B97F4A7C15)) ^ _mix2(lanes[1] + i * np.uint64(0xC2B2AE3D27D4EB4F))


def reference_uniforms(lanes, index):
    return (reference_words(lanes, index) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def assert_same_bits(got, want):
    """Same type (a 0-d result is a numpy scalar either way), shape, dtype and values."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


def assert_kernel_matches(base, level, tag, cells, index):
    lanes = lanes_for_cells(base, level, tag, cells)
    want = reference_lanes(base, level, tag, cells)
    assert_same_bits(lanes[0], want[0])
    assert_same_bits(lanes[1], want[1])
    assert_same_bits(words_at(lanes, index), reference_words(want, index))
    assert_same_bits(uniforms_at(lanes, index), reference_uniforms(want, index))


def test_kernel_loaded_where_a_compiler_exists():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the numpy mixers serve every call")
    assert streams._LIB is not None
    assert hasattr(streams._LIB, "envwalk_propagate")
    assert hasattr(streams._LIB, "envwalk_field_weights")
    assert hasattr(streams._LIB, "envwalk_walk")


def _per_row(seeds):
    lanes = seed_lanes_vec(np.asarray(seeds, dtype=np.uint64))
    return lanes[0][:, None], lanes[1][:, None]


CELLS = np.array([[-(10**9), 10**9, -1], [0, 7, -123456789], [10**9, -(10**9), 5], [3, 2, 1]])


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_kernel_matches_mixers_on_shared_lanes(tag, d):
    for seed in (0, 2**64 - 1, 0x9E3779B97F4A7C15):
        for level in (0, -5, 2**63 + 11, 2**64 - 1, -(2**63)):
            assert_kernel_matches(seed_lanes(seed), level, tag, CELLS[:, :d], np.arange(3)[:, None, None])
            assert_kernel_matches(seed_lanes(seed), level, tag, CELLS[0, :d], 0)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_kernel_matches_mixers_on_per_row_lanes_and_block_levels(d):
    seeds = [0, 2**64 - 1, 12345, 2**63]
    # Per-row lanes against per-row cells, as exact propagation reads a field.
    rows = _per_row(seeds)
    cells = np.broadcast_to(CELLS[:, :d], (4, 4, d))
    assert_kernel_matches(rows, 9, TAG_ENV, cells, np.arange(3)[:, None, None])
    # Pair-walker lanes (m, 2) broadcast against block levels (b, 1, 1) and walk cells (m, 2, d).
    pairs = tuple(np.stack([lane, lane[::-1]], axis=1) for lane in seed_lanes_vec(np.asarray(seeds, np.uint64)))
    levels = np.array([-3, 0, 2**40, 7])[:, None, None]
    walk_cells = np.stack([CELLS[:, :d], -CELLS[:, :d]], axis=1)
    assert_kernel_matches(pairs, levels, TAG_WALK, walk_cells, np.arange(2)[:, None, None, None])
    # Levels on their own axis, against lanes and cells on others.
    assert_kernel_matches(rows, np.arange(5)[:, None, None], TAG_WALK, CELLS[None, :, None, :d], 4)


def test_kernel_matches_mixers_on_non_contiguous_inputs():
    lanes = seed_lanes_vec(np.arange(12, dtype=np.uint64) * np.uint64(2**60 + 3))
    strided = (lanes[0][::2], lanes[1][::2])  # (6,)
    transposed = (lanes[0].reshape(2, 6).T, lanes[1].reshape(2, 6).T)  # (6, 2)
    cells = np.arange(-36, 36).reshape(6, 4, 3)[:, ::-2, :]  # (6, 2, 3)
    levels = np.arange(12).reshape(6, 2)[:, ::-1]
    assert_kernel_matches(transposed, levels, TAG_WALK, cells, np.arange(4)[::2])
    assert_kernel_matches(strided, 3, TAG_ENV, cells[:, 0, ::2], np.arange(6)[::-1])
    assert_kernel_matches(strided, levels.T[:, None, :1], TAG_DITHER, cells[:, :1, :1], np.arange(6)[:, None, None][::3])


@pytest.mark.parametrize("index", [0, 2**63, np.arange(4), np.arange(3)[:, None], np.arange(4)[::-2], np.empty(0, int)])
def test_words_match_mixers_on_every_index_shape(index):
    row = _per_row(range(3))
    for lanes in (seed_lanes(7), row, (row[0].T, row[1].T), (row[0][:0], row[1][:0])):
        try:
            np.broadcast_shapes(np.shape(lanes[0]), np.shape(index))
        except ValueError:
            for fn in (words_at, uniforms_at):
                with pytest.raises(ValueError):
                    fn(lanes, index)
            continue
        assert_same_bits(words_at(lanes, index), reference_words(lanes, index))
        assert_same_bits(uniforms_at(lanes, index), reference_uniforms(lanes, index))


def test_kernel_matches_mixers_on_empty_batches():
    base = seed_lanes(3)
    for cells in (np.empty((0, 1), int), np.empty((0, 3), int), np.empty((2, 0, 2), int)):
        assert_kernel_matches(base, 1, TAG_ENV, cells, np.arange(2)[:, None])
    assert_kernel_matches(_per_row([1, 2]), np.empty((0, 1, 1), int), TAG_WALK, CELLS[:2, None, :1], 0)


@given(
    data=st.data(),
    shapes=hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=4, max_side=3),
    d=st.integers(0, 3),
    tag=st.sampled_from(TAGS),
)
def test_kernel_matches_mixers_on_any_broadcast(data, shapes, d, tag):
    base_shape, level_shape, cell_shape = shapes.input_shapes
    words = st.integers(0, 2**64 - 1)
    base = seed_lanes_vec(data.draw(hnp.arrays(np.uint64, base_shape, elements=words)))
    level = data.draw(hnp.arrays(np.int64, level_shape, elements=st.integers(-(2**63), 2**63 - 1)))
    cells = data.draw(hnp.arrays(np.int64, cell_shape + (d,), elements=st.integers(-(10**12), 10**12)))
    lanes_shape = np.broadcast_shapes(base_shape, level_shape, *([cell_shape] if d else []))
    index_shape = data.draw(hnp.broadcastable_shapes(lanes_shape, max_dims=4, max_side=3))
    index = data.draw(hnp.arrays(np.int64, index_shape, elements=st.integers(0, 2**40)))
    assert_kernel_matches(base, level, tag, cells, index)

