import ctypes
import re
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
    derive_seeds_vec,
    lanes_for_cells,
    seed_lanes,
    uniforms_at,
    words_at,
)


def test_same_key_replays_identically():
    key = StreamKey(12345, -3, (7, -2), 0)
    a = key.uniforms(8)
    b = StreamKey(12345, -3, (7, -2), 0).uniforms(8)
    assert np.array_equal(a, b)
    # a longer read starts with the shorter one: draw i depends on i alone
    assert np.array_equal(key.uniforms(20)[:8], a)


def test_order_independence_across_streams():
    k1 = StreamKey(9, 0, (1,), 0)
    k2 = StreamKey(9, 0, (2,), 0)
    l1, l2 = k1.lanes(), k2.lanes()
    interleaved = [uniforms_at(l1, 0), uniforms_at(l2, 0), uniforms_at(l1, 1), uniforms_at(l2, 1)]
    fresh1 = k1.uniforms(2)
    fresh2 = k2.uniforms(2)
    assert interleaved == [fresh1[0], fresh2[0], fresh1[1], fresh2[1]]


def test_key_lanes_absorb_the_key_word_by_word():
    # Any int is a seed (taken mod 2**64), as is a cell word; negative
    # words are absorbed in two's complement.
    for seed, level, cell, tag in ((0, 0, (), TAG_ENV), (2**64 + 5, -3, (-1, 2**63 + 1), TAG_WALK),
                                   (-1, 2**63, (7,), TAG_OFFSET)):
        lanes = absorb(absorb(absorb(seed_lanes(seed % 2**64), tag), level), len(cell))
        for c in cell:
            lanes = absorb(lanes, c)
        got = StreamKey(seed, level, cell, tag).lanes()
        assert_same_bits(got[0], lanes[0])
        assert_same_bits(got[1], lanes[1])


# Known answers: draws 0..2 of three keys and three derived seeds, as words
# and as uniforms.  The other tests compare the API with itself; these pin
# the key schema and the mixers, so a change to either shows here.
KNOWN_KEYS = {
    "empty-cell": (StreamKey(0, 0, (), TAG_ENV), (0x574F1FF8D84A4FF5, 0xCC8C514BD3771FA9, 0x1BF5A1D66A34223A)),
    "negative-words": (StreamKey(20100308, -3, (7, -2), TAG_WALK), (0x5936913F1B2781DE, 0xD25BA79ED51F45FE, 0x50F5B1408BE7D32D)),
    "wide-words": (
        StreamKey(2**64 - 1, 2**40, (10**9, -(10**9), 5), TAG_OFFSET),
        (0xD0D91778AE3B7CAE, 0xB363459CD78A1454, 0x398C6B28EB77D5A7),
    ),
}


@pytest.mark.parametrize("name", sorted(KNOWN_KEYS))
def test_stream_keys_give_known_words(name):
    key, words = KNOWN_KEYS[name]
    lanes = key.lanes()
    assert all(type(lane) is np.uint64 for lane in lanes)
    assert words_at(lanes, np.arange(3)).tolist() == list(words)
    assert key.uniforms(3).tolist() == [(w >> 11) * 2.0**-53 for w in words]
    assert key.uniforms(0).shape == (0,)


def test_derived_seeds_give_known_words():
    assert int(derive_seeds_vec(20100308, 4)) == 0x345720C1D24EBB8D
    assert int(derive_seeds_vec(20100308, 1, 2)) == 0xFD4DBB5C45708DBF
    assert int(derive_seeds_vec(0)) == 0x3FE90D47CC52213


def test_any_single_field_change_changes_stream():
    base = StreamKey(42, 5, (1, 2), 1)
    variants = [
        StreamKey(43, 5, (1, 2), 1),
        StreamKey(42, 6, (1, 2), 1),
        StreamKey(42, 5, (1, 3), 1),
        StreamKey(42, 5, (1, 2), 2),
        StreamKey(42, 5, (1,), 1),
    ]
    head = base.uniforms(4)
    for other in variants:
        assert not np.array_equal(head, other.uniforms(4))


def test_vectorized_lanes_match_scalar_keys():
    cells = np.array([[-5, 7], [0, 0], [123, -456]])
    lanes = lanes_for_cells(seed_lanes(77), 3, 0, cells)
    u = uniforms_at((lanes[0][:, None], lanes[1][:, None]), np.arange(6))
    for i, cell in enumerate(cells):
        expected = StreamKey(77, 3, tuple(int(c) for c in cell), 0).uniforms(6)
        assert np.array_equal(u[i], expected)


def test_per_row_seeds_match_scalar_keys():
    seeds = derive_seeds_vec(5, np.arange(4))
    base = seed_lanes(seeds)
    cells = np.array([[10], [11], [12], [13]])
    lanes = lanes_for_cells(base, 2, 0, cells)
    u = uniforms_at(lanes, 0)
    for i in range(4):
        expected = StreamKey(int(seeds[i]), 2, (10 + i,), 0).uniforms(1)[0]
        assert u[i] == expected


def test_seed_lanes_of_one_seed_and_of_an_array_agree():
    seeds = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    rows = seed_lanes(seeds)
    for i, seed in enumerate(seeds.tolist()):
        for one in (seed_lanes(seed), seed_lanes(seed - 2**64), seed_lanes(seed + 2**64), seed_lanes(seeds[i])):
            assert one[0] == rows[0][i] and one[1] == rows[1][i]
    # int64 seeds are read in two's complement
    signed = seed_lanes(np.array([-1, 5], dtype=np.int64))
    assert signed[0][0] == rows[0][3] and signed[1][1] == seed_lanes(5)[1]


def test_derived_seeds_of_scalars_and_of_arrays_agree():
    vec = derive_seeds_vec(99, np.arange(10))
    for i in range(10):
        assert int(vec[i]) == int(derive_seeds_vec(99, i))
    assert int(derive_seeds_vec(99, 3, 1)) == int(derive_seeds_vec(99, np.arange(5), 1)[3])


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
    a = StreamKey(101, 0, (5,), 0).uniforms(1000)
    b = StreamKey(101, 0, (5,), 1).uniforms(1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_uniforms_in_unit_interval():
    u = StreamKey(0, 0, (), 0).uniforms(1000)
    assert u.min() >= 0.0 and u.max() < 1.0


# -- the batched mixers against word-by-word references ----------------------------
#
# lanes_for_cells, words_at and uniforms_at broadcast their operands as numpy
# does; the tests below pin that, shapes, dtypes and 0-d results included,
# against references that absorb and draw one word at a time.

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


def assert_mixers_match(base, level, tag, cells, index):
    """lanes_for_cells, words_at and uniforms_at against the references, bit for bit."""
    lanes = lanes_for_cells(base, level, tag, cells)
    want = reference_lanes(base, level, tag, cells)
    assert_same_bits(lanes[0], want[0])
    assert_same_bits(lanes[1], want[1])
    assert_same_bits(words_at(lanes, index), reference_words(want, index))
    assert_same_bits(uniforms_at(lanes, index), reference_uniforms(want, index))


ENTRY_POINTS = {"envwalk_propagate", "envwalk_walk", "envwalk_field_weights", "envwalk_ndtr"}


def test_kernel_loaded_where_a_compiler_exists():
    # _hash.c defines exactly these entry points (every other function is
    # static), and the library loads them where a compiler exists.
    source = streams._KERNEL_SOURCE.read_text()
    assert set(re.findall(r"^(?!static )[a-z]\w* \**(\w+)\(", source, flags=re.M)) == ENTRY_POINTS
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the numpy paths serve every call")
    assert streams._LIB is not None
    assert all(hasattr(streams._LIB, name) for name in ENTRY_POINTS)


# The ctypes type that declares each C type of _hash.c; every pointer is c_void_p.
_CTYPES = {
    "size_t": ctypes.c_size_t,
    "stride_t": ctypes.c_ssize_t,
    "u64": ctypes.c_uint64,
    "int64_t": ctypes.c_int64,
    "double": ctypes.c_double,
    "int": ctypes.c_int,
}


def _declared(decl):
    """(name, ctypes type) of each declarator of one C declaration: a parameter
    ("const double *a") or a struct member ("const u64 *b1, *b2")."""
    base, declarators = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*)", decl, flags=re.S).groups()
    for d in declarators.split(","):
        yield d.strip().lstrip("*").strip(), ctypes.c_void_p if "*" in d else _CTYPES[base]


def test_ctypes_declarations_match_the_c_source():
    # A ctypes declaration that disagrees with its C definition passes
    # garbage silently, so each entry point's restype and argtypes, and
    # FieldRead's members, are compared with _hash.c one by one.
    source = re.sub(r"/\*.*?\*/", "", streams._KERNEL_SOURCE.read_text(), flags=re.S)
    body = re.search(r"^struct field \{(.*?)\};", source, flags=re.M | re.S).group(1)
    members = [m for decl in body.split(";")[:-1] for m in _declared(decl)]
    assert list(streams.FieldRead._fields_) == members
    prototypes = re.findall(r"^(?!static )([a-z]\w*) (\w+)\(([^)]*)\)", source, flags=re.M)
    assert {name for _, name, _ in prototypes} == ENTRY_POINTS
    if streams._LIB is None:
        pytest.skip("no compiled kernel: nothing declares the entry points")
    for restype, name, params in prototypes:
        fn = getattr(streams._LIB, name)
        assert fn.restype is {"void": None, **_CTYPES}[restype], name
        assert list(fn.argtypes) == [t for p in params.split(",") for _, t in _declared(p)], name


def _per_row(seeds):
    lanes = seed_lanes(np.asarray(seeds, dtype=np.uint64))
    return lanes[0][:, None], lanes[1][:, None]


CELLS = np.array([[-(10**9), 10**9, -1], [0, 7, -123456789], [10**9, -(10**9), 5], [3, 2, 1]])


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_mixers_broadcast_on_shared_lanes(tag, d):
    for seed in (0, 2**64 - 1, 0x9E3779B97F4A7C15):
        for level in (0, -5, 2**63 + 11, 2**64 - 1, -(2**63)):
            assert_mixers_match(seed_lanes(seed), level, tag, CELLS[:, :d], np.arange(3)[:, None, None])
            assert_mixers_match(seed_lanes(seed), level, tag, CELLS[0, :d], 0)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_mixers_broadcast_on_per_row_lanes_and_block_levels(d):
    seeds = [0, 2**64 - 1, 12345, 2**63]
    # Per-row lanes against per-row cells, as exact propagation reads a field.
    rows = _per_row(seeds)
    cells = np.broadcast_to(CELLS[:, :d], (4, 4, d))
    assert_mixers_match(rows, 9, TAG_ENV, cells, np.arange(3)[:, None, None])
    # Pair-walker lanes (m, 2) broadcast against block levels (b, 1, 1) and walk cells (m, 2, d).
    pairs = tuple(np.stack([lane, lane[::-1]], axis=1) for lane in seed_lanes(np.asarray(seeds, np.uint64)))
    levels = np.array([-3, 0, 2**40, 7])[:, None, None]
    walk_cells = np.stack([CELLS[:, :d], -CELLS[:, :d]], axis=1)
    assert_mixers_match(pairs, levels, TAG_WALK, walk_cells, np.arange(2)[:, None, None, None])
    # Levels on their own axis, against lanes and cells on others.
    assert_mixers_match(rows, np.arange(5)[:, None, None], TAG_WALK, CELLS[None, :, None, :d], 4)


def test_mixers_broadcast_on_non_contiguous_inputs():
    lanes = seed_lanes(np.arange(12, dtype=np.uint64) * np.uint64(2**60 + 3))
    strided = (lanes[0][::2], lanes[1][::2])  # (6,)
    transposed = (lanes[0].reshape(2, 6).T, lanes[1].reshape(2, 6).T)  # (6, 2)
    cells = np.arange(-36, 36).reshape(6, 4, 3)[:, ::-2, :]  # (6, 2, 3)
    levels = np.arange(12).reshape(6, 2)[:, ::-1]
    assert_mixers_match(transposed, levels, TAG_WALK, cells, np.arange(4)[::2])
    assert_mixers_match(strided, 3, TAG_ENV, cells[:, 0, ::2], np.arange(6)[::-1])
    assert_mixers_match(strided, levels.T[:, None, :1], TAG_DITHER, cells[:, :1, :1], np.arange(6)[:, None, None][::3])


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


def test_mixers_broadcast_on_empty_batches():
    base = seed_lanes(3)
    for cells in (np.empty((0, 1), int), np.empty((0, 3), int), np.empty((2, 0, 2), int)):
        assert_mixers_match(base, 1, TAG_ENV, cells, np.arange(2)[:, None])
    assert_mixers_match(_per_row([1, 2]), np.empty((0, 1, 1), int), TAG_WALK, CELLS[:2, None, :1], 0)


@given(
    data=st.data(),
    shapes=hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=4, max_side=3),
    d=st.integers(0, 3),
    tag=st.sampled_from(TAGS),
)
def test_mixers_broadcast_on_any_broadcast(data, shapes, d, tag):
    base_shape, level_shape, cell_shape = shapes.input_shapes
    words = st.integers(0, 2**64 - 1)
    base = seed_lanes(data.draw(hnp.arrays(np.uint64, base_shape, elements=words)))
    level = data.draw(hnp.arrays(np.int64, level_shape, elements=st.integers(-(2**63), 2**63 - 1)))
    cells = data.draw(hnp.arrays(np.int64, cell_shape + (d,), elements=st.integers(-(10**12), 10**12)))
    lanes_shape = np.broadcast_shapes(base_shape, level_shape, *([cell_shape] if d else []))
    index_shape = data.draw(hnp.broadcastable_shapes(lanes_shape, max_dims=4, max_side=3))
    index = data.draw(hnp.arrays(np.int64, index_shape, elements=st.integers(0, 2**40)))
    assert_mixers_match(base, level, tag, cells, index)

