"""Direct Gaussianity checks of the diffusively rescaled quenched walk.

B(t) = sqrt(eps) * (X_[t/eps] - [t/eps] v) sampled over many walks in one
fixed field should look like a centered Gaussian with the averaged-walk
variance -- when the field mixes in space.  The level-correlated field
breaks exactly this: the quenched mean wanders on the CLT scale, so
velocity centering fails while centering by the quenched mean itself
restores a (different-variance) Gaussian limit.  One batch of walks per
field serves both centerings; each centering's limit variance comes from
the field's law family.
"""

import numpy as np

from envwalk.analysis import fclt_check
from envwalk.environments import env_replica, make_fully_correlated, make_lattice_product
from envwalk.families import UniformPM1

EPS = 2.0**-10
TIMES = [0.25, 0.5, 1.0]
WALKS = 8000

fam = UniformPM1(0.49, 0.51)  # weak disorder: CLT asymptotics visible at this eps
mixing = make_lattice_product(20100308, 1, fam)

print(f"mixing field, eps = 2^-10, {WALKS} walks per field, 5 fields:")
for s in range(5):
    (rep,) = fclt_check(env_replica(mixing, s), EPS, TIMES, WALKS, ["velocity"])
    ps = " ".join(f"p({t})={r.p_value:.3f}" for t, r in rep.tests)
    print(f"  field {s}: {ps}")

(rep,) = fclt_check(env_replica(mixing, 0), EPS, TIMES, WALKS, ["velocity"])
print("\nincrement covariance vs Brownian min(s,t):")
for s, t, emp, expected, se in rep.cov_rows:
    print(f"  Cov(B({s}), B({t})) = {emp:+.4f}  expect {expected:.4f}  (SE {se:.4f})")

correlated = make_fully_correlated(20100308, 1, UniformPM1())
print("\nlevel-correlated field (the no-mixing regime), 3 fields:")
for s in range(3):
    b, bt = fclt_check(env_replica(correlated, s), EPS, TIMES, WALKS, ["velocity", "quenched_mean"])
    print(f"  field {s}: velocity-centered worst p = {min(r.p_value for _, r in b.tests):.2e}; "
          f"mean-centered worst p = {min(r.p_value for _, r in bt.tests):.3f}")
print("(velocity centering rejected, quenched-mean centering accepted)")
