"""Keyed counter-based streams: the randomness substrate.

Every variate in this package is addressed by a (master seed, level, cell,
tag) key plus a draw index, so nothing depends on execution order, caching
or worker layout.  This script shows replay, order independence, key
sensitivity, and the statistical quality of the first variates across a
large block of cells.
"""

import numpy as np

from envwalk.streams import StreamKey, derive_stream, lanes_for_cells, seed_lanes, uniforms_at

# Replay: the same key always yields the same stream.
key = StreamKey(master_seed=2024, level=3, cell=(-5, 7), tag=0)
print("first four uniforms:", derive_stream(key).take(4))
print("replayed:           ", derive_stream(key).take(4))

# Order independence: interleaving two streams changes nothing.
k1, k2 = StreamKey(2024, 0, (1,), 0), StreamKey(2024, 0, (2,), 0)
s1, s2 = derive_stream(k1), derive_stream(k2)
mixed = [float(s1.take(1)[0]), float(s2.take(1)[0]), float(s1.take(1)[0])]
print("interleaved reads:  ", mixed)
print("isolated reads:     ", [float(derive_stream(k1).take(2)[0]),
                               float(derive_stream(k2).take(2)[0]),
                               float(derive_stream(k1).take(2)[1])])

# Any single key-field difference decorrelates the stream completely.
a = derive_stream(StreamKey(2024, 0, (5,), 0)).take(1000)
b = derive_stream(StreamKey(2024, 0, (5,), 1)).take(1000)  # tag differs
print(f"corr across tags over 1000 variates: {np.corrcoef(a, b)[0, 1]:+.4f}")

# First variates across 100k cells: flat histogram, mean 1/2, sd 1/sqrt(12).
lanes = lanes_for_cells(seed_lanes(2024), 0, 0, np.arange(100000)[:, None])
u = uniforms_at(lanes, 0)
print(f"100k cells, first variate: mean={u.mean():.5f} (1/2), sd={u.std():.5f} "
      f"({1/np.sqrt(12):.5f})")
counts, _ = np.histogram(u, bins=10, range=(0, 1))
print("decile counts:", counts)
