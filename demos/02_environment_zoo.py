"""The environment zoo: four random fields of jump laws.

A field maps (time level, point) to a probability law for the next jump.
Time levels are always independent (the field refreshes each step); the
models differ in their spatial structure:

  mixing lattice   i.i.d. law per unit cell        -> spatially mixing
  finite range     i.i.d. law per cell of size R   -> mixing beyond R
  level correlated one law per level, all of space -> no mixing at all
  pointmass field  a Dirac law per cell            -> walk frozen by field
"""

import numpy as np

from envwalk.environments import (
    make_dirac,
    make_finite_range,
    make_fully_correlated,
    make_lattice_product,
    query,
)
from envwalk.families import DiracSteps, UniformPM1
from envwalk.jumplaws import law_mean

SEED = 7

mixing = make_lattice_product(SEED, 1, UniformPM1())
finite = make_finite_range(SEED, 1, 3.0, UniformPM1())
level = make_fully_correlated(SEED, 1, UniformPM1())
frozen = make_dirac(SEED, 1, DiracSteps(((1.0,), (-1.0,)), (0.5, 0.5)))

print("law at (n=0, x=0.2) in the mixing field:", query(mixing, 0, 0.2))
print("same query again (fields are pure functions):", query(mixing, 0, 0.2) == query(mixing, 0, 0.2))

# Local drift profiles along x reveal each model's spatial structure.
xs = np.arange(-4.0, 5.0)
for name, env in [("mixing", mixing), ("finite-range R=3", finite), ("level-correlated", level)]:
    drifts = [float(law_mean(query(env, 0, x))[0]) for x in xs]
    print(f"{name:18s} drift at x=-4..4:", np.round(drifts, 3))

# The pointmass field produces Dirac laws everywhere: no walk randomness.
print("pointmass field law at (0, 0):", query(frozen, 0, 0.0))
print("pointmass field law at (0, 3):", query(frozen, 0, 3.0))
