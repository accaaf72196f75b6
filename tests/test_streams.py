import numpy as np
from scipy import stats as sps

from envwalk.streams import (
    StreamKey,
    derive_seed,
    derive_seeds_vec,
    derive_stream,
    key_lanes,
    lanes_for_cells,
    seed_lanes_vec,
    uniforms_at,
)


def test_same_key_replays_identically():
    key = StreamKey(12345, -3, (7, -2), 0)
    a = derive_stream(key).take(8)
    b = derive_stream(key).take(8)
    assert np.array_equal(a, b)


def test_reset_and_positional_reads():
    s = derive_stream(StreamKey(1, 0, (0,), 2))
    head = s.take(5)
    s.reset()
    assert np.array_equal(s.take(5), head)
    assert np.array_equal(s.at(2, 3), head[2:])


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
    lanes = key_lanes(77, 3, 0, cells)
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
    lanes = key_lanes(2718, 0, 0, np.arange(10000)[:, None])
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
