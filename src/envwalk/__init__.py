"""envwalk: a deterministic Monte Carlo laboratory for random walks in
time-refreshed random environments.

The package simulates walks whose jump law at (time, point) is a random
field refreshed independently at every time step, and measures the
quantities that decide whether the environment-conditioned walk satisfies a
functional central limit theorem: one-step moments, spatial drift
correlations, the growth of the variance of the quenched mean, the
two-walk difference chain's exit and excursion structure, and direct
Gaussianity checks of the rescaled paths.

Everything is a pure function of (configuration, master seed): streams are
counter-based, so results are independent of query order and worker count.
"""

from .diffchain import (
    INDEPENDENT_ENV,
    SAME_ENV,
    ExcursionRecord,
    excursion_record,
    excursion_scan,
    exit_time_scan,
    occupation_time,
    simulate_diff_chain,
)
from .environments import (
    Environment,
    env_replica,
    make_dirac,
    make_finite_range,
    make_fully_correlated,
    make_lattice_product,
    query,
)
from .families import DiracSteps, FixedAtomic, GaussianDrift, UniformPM1
from .jumplaws import (
    Atomic,
    Gaussian,
    JumpLaw,
    law_mean,
    law_sample,
)
from .analysis import (
    FcltReport,
    IdentityReport,
    MaxDriftReport,
    estimate_phi,
    fclt_check,
    max_drift_check,
    variance_identity_check,
    variance_scan,
)
from .stats import (
    ExponentFit,
    GofTestResult,
    InsufficientDataError,
    ScanCurve,
    fit_exponent,
    ks_gaussian_test,
    ks_two_sample_critical,
    ks_two_sample_distance,
)
from .streams import StreamKey
from .walks import (
    QuenchedMeanCurve,
    quenched_mean_exact,
    quenched_mean_mc,
    quenched_step,
    simulate_quenched_path,
    velocity_and_covariance,
)

__version__ = "0.1.0"
