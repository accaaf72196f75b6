"""Quenched walks and the two routes to their conditional means.

Fixing one field realization ("quenched") and walking in it repeatedly is
the basic experiment.  The walker's conditional mean E[X_n | field] can be
estimated by Monte Carlo over walks, or computed exactly by propagating the
full quenched law over the lattice; the two must agree, and the exact route
is what the variance experiments build on.
"""

import numpy as np

from envwalk.environments import env_replica, make_lattice_product
from envwalk.families import UniformPM1
from envwalk.walks import (
    batch_averaged_positions,
    batch_quenched_positions,
    quenched_mean_exact,
    quenched_mean_mc,
    simulate_quenched_path,
)

env = env_replica(make_lattice_product(11, 1, UniformPM1()), 4)

# Single paths replay exactly; different walk seeds are independent walks.
p0 = simulate_quenched_path(env, 16, walk_seed=0)
print("one quenched path:", p0[:, 0].astype(int))
print("replays exactly:  ", np.array_equal(p0, simulate_quenched_path(env, 16, 0)))

# Monte Carlo quenched means vs exact propagation of the quenched law.
grid = np.array([1, 4, 16, 32])
mc = quenched_mean_mc(env, grid, 50000)
exact = quenched_mean_exact(env, 32)
print("\n  n   MC mean      (SE)        exact")
for j, n in enumerate(grid):
    print(f"{n:4d}  {mc.means[j,0]:+.4f}  ({mc.standard_errors[j,0]:.4f})   {exact.means[n,0]:+.6f}")

# The martingale structure: subtracting the local drift along the path
# centers the walk exactly, for this one fixed field.
m = 50000
_, pos, drift = batch_quenched_positions(env, 32, np.arange(m), record_steps=[32], accumulate_drift=True)
centered = pos[0] - drift
print(f"\nmean of X_32 - accumulated drift over {m} walks: "
      f"{centered.mean():+.5f} (SE {centered.std(ddof=1)/np.sqrt(m):.5f})")

# Averaged walks (fresh field per replica) behave as a classical walk.
_, averaged = batch_averaged_positions(env, 20, np.arange(2000))
inc = np.diff(averaged[:, :, 0].T.astype(float), axis=1)
lag1 = np.corrcoef(inc[:, :-1].ravel(), inc[:, 1:].ravel())[0, 1]
print(f"averaged-walk increment lag-1 autocorrelation: {lag1:+.4f}")
