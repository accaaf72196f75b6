"""The two-walk difference chain and its geometry near coincidence.

Run two independent walkers in ONE field and track their difference Y.
Because nearby walkers see correlated laws, Y is a Markov chain that is
sticky near 0; two walkers in INDEPENDENT fields give the free-walk
comparison object.  The chain's exit times, excursion lengths and box
occupation quantify how fast it forgets the coincidence set, which is
exactly what drives the subdiffusive variance in demo 04.
"""

import numpy as np

from envwalk.diffchain import (
    INDEPENDENT_ENV,
    SAME_ENV,
    batch_diff_positions,
    excursion_scan,
    exit_time_scan,
    occupation_time,
    simulate_diff_chain,
)
from envwalk.environments import make_lattice_product
from envwalk.families import UniformPM1

env = make_lattice_product(20100308, 1, UniformPM1())

p = simulate_diff_chain(env, 0, 20, SAME_ENV, replica=0)
print("one difference-chain path:", p[:, 0].astype(int))

# First-step law: same-field pairs stall at 0 more often than free pairs.
for kind in (SAME_ENV, INDEPENDENT_ENV):
    _, y1 = batch_diff_positions(env, 1, np.arange(20000), 0, kind, record_steps=[1])
    frac0 = (y1[0] == 0).mean()
    print(f"{kind:16s} P(Y_1 = 0) = {frac0:.4f}")
print("(2/3 when the walkers share a cell's law, 1/2 when they do not)")

# Exit times from nested boxes grow roughly like r^2 (diffusive escape).
scan = exit_time_scan(env, [4, 8, 16, 32], 3000)
print("\n  r   mean exit steps (SE)")
for j, r in enumerate(scan.curve.grid):
    print(f"{int(r):4d}  {scan.curve.estimates[j]:8.1f} ({scan.curve.standard_errors[j]:.1f})")
print(f"log-log slope: {scan.curve.fit.exponent:.3f}")

# Excursions away from a slowly growing box have a heavy sqrt tail.
exc = excursion_scan(env, 2**13, 0.2, 800)
print(f"\nexcursions outside radius {exc.box_radius:.2f}: {exc.lengths.size} complete, "
      f"{exc.n_incomplete} still open")
print(f"survival tail exponent: {exc.tail_exponent:.3f} "
      f"CI ({exc.tail_ci[0]:.3f}, {exc.tail_ci[1]:.3f})  [compare 1/2]")

# Occupation of the growing box is sublinear in the horizon.
occ = occupation_time(env, 2 ** np.arange(4, 13), 0.2, 500)
print(f"occupation growth exponent: {occ.fit.exponent:.3f} (< 1)")
