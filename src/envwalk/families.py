"""Law families: how per-cell uniforms turn into jump laws.

A family is the measurable map from a cell's uniform variates to the
jump law stored there.  ``make`` is the scalar constructor; families whose
laws share one fixed atom support additionally expose ``support`` /
``weight_table`` so that walking, drift lookup and exact distribution
propagation can run vectorized over many cells at once; ``GaussianDrift``
exposes its drift vectors the same way through ``mean_table``.  ``make`` is built
from ``weight_table`` wherever both exist, so scalar and batched code see
bit-identical laws.

Families also carry their closed-form one-step moments (annealed mean and
covariance, drift variance, mean quenched step covariance) when these exist;
estimators use them as centering constants and tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jumplaws import Atomic, Dirac, Gaussian, JumpLaw, atomic_index, atomic_mean

__all__ = [
    "UniformPM1",
    "ChoicePM1",
    "FixedAtomic",
    "DiracSteps",
    "GaussianDrift",
    "LawFamily",
    "has_fixed_support",
    "row_drifts",
]


@dataclass(frozen=True)
class UniformPM1:
    """d=1 steps to +-1; the +1 probability is Uniform(p_low, p_high) per cell."""

    p_low: float = 0.0
    p_high: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p_low <= self.p_high <= 1.0):
            raise ValueError("need 0 <= p_low <= p_high <= 1")

    d = 1
    n_uniforms = 1

    @property
    def support(self) -> np.ndarray:
        return np.array([[1], [-1]])

    def weight_table(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)[..., 0]
        out = np.empty(u.shape + (2,))
        p = np.multiply(u, self.p_high - self.p_low, out=out[..., 0])
        np.add(p, self.p_low, out=p)
        np.subtract(1.0, p, out=out[..., 1])
        return out

    def make(self, u: np.ndarray) -> JumpLaw:
        return Atomic(((1.0,), (-1.0,)), self.weight_table(u))

    # One-step moments, integrating the cell randomness analytically.
    @property
    def averaged_mean(self) -> np.ndarray:
        return np.array([self.p_low + self.p_high - 1.0])

    @property
    def averaged_cov(self) -> np.ndarray:
        v = self.p_low + self.p_high - 1.0
        return np.array([[1.0 - v * v]])

    @property
    def drift_variance(self) -> float:
        # Var(2p - 1) for p uniform on [p_low, p_high].
        return (self.p_high - self.p_low) ** 2 / 3.0

    @property
    def mean_step_cov(self) -> np.ndarray:
        v = self.p_low + self.p_high - 1.0
        return np.array([[1.0 - v * v - self.drift_variance]])


@dataclass(frozen=True)
class ChoicePM1:
    """d=1 steps to +-1; the +1 probability is drawn from a finite table.

    Small enough state space to enumerate every environment realization on a
    few levels, which is what the exact cross-checks need.
    """

    p_values: tuple[float, ...]
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        k = len(self.p_values)
        probs = self.probs if self.probs is not None else tuple([1.0 / k] * k)
        if len(probs) != k or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probs must match p_values and sum to 1")
        if any(not 0.0 <= p <= 1.0 for p in self.p_values):
            raise ValueError("p_values must lie in [0,1]")
        object.__setattr__(self, "probs", probs)

    d = 1
    n_uniforms = 1

    @property
    def support(self) -> np.ndarray:
        return np.array([[1], [-1]])

    def weight_table(self, u: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.probs)
        idx = atomic_index(cum, np.asarray(u)[..., 0])
        p = np.take(np.asarray(self.p_values, dtype=float), idx)
        out = np.empty(idx.shape + (2,))
        out[..., 0] = p
        np.subtract(1.0, p, out=out[..., 1])
        return out

    def make(self, u: np.ndarray) -> JumpLaw:
        return Atomic(((1.0,), (-1.0,)), self.weight_table(u))

    @property
    def averaged_mean(self) -> np.ndarray:
        p_bar = float(np.dot(self.probs, self.p_values))
        return np.array([2.0 * p_bar - 1.0])

    @property
    def averaged_cov(self) -> np.ndarray:
        v = self.averaged_mean[0]
        return np.array([[1.0 - v * v]])

    @property
    def drift_variance(self) -> float:
        drifts = 2.0 * np.asarray(self.p_values) - 1.0
        mean = float(np.dot(self.probs, drifts))
        return float(np.dot(self.probs, (drifts - mean) ** 2))

    @property
    def mean_step_cov(self) -> np.ndarray:
        v = self.averaged_mean[0]
        return np.array([[1.0 - v * v - self.drift_variance]])


def _support(points) -> np.ndarray:
    """Atoms as rows: integers when every atom is a lattice point, floats otherwise."""
    pts = np.asarray(points, dtype=float)
    return np.round(pts).astype(int) if np.allclose(pts, np.round(pts)) else pts


@dataclass(frozen=True)
class FixedAtomic:
    """The same atomic law in every cell: a nonrandom environment."""

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        law = Atomic(self.points, self.weights)  # validates
        object.__setattr__(self, "points", law.points)
        object.__setattr__(self, "weights", law.weights)

    @property
    def d(self) -> int:
        return len(self.points[0])

    n_uniforms = 0

    @property
    def support(self) -> np.ndarray:
        return _support(self.points)

    def weight_table(self, u: np.ndarray) -> np.ndarray:
        shape = np.asarray(u).shape[:-1] + (len(self.weights),)
        return np.broadcast_to(np.asarray(self.weights), shape)

    def make(self, u: np.ndarray) -> JumpLaw:
        return Atomic(self.points, self.weights)

    @property
    def averaged_mean(self) -> np.ndarray:
        return np.asarray(self.weights) @ np.asarray(self.points)

    @property
    def averaged_cov(self) -> np.ndarray:
        pts = np.asarray(self.points)
        m = self.averaged_mean
        c = pts - m
        return (c * np.asarray(self.weights)[:, None]).T @ c

    drift_variance = 0.0

    @property
    def mean_step_cov(self) -> np.ndarray:
        return self.averaged_cov


@dataclass(frozen=True)
class DiracSteps:
    """Per-cell pointmass displacement picked from a finite table.

    Every produced law is a Dirac measure: given the environment the walk is
    deterministic (the regularity-failure regime).
    """

    points: tuple[tuple[float, ...], ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        Atomic(self.points, self.probs)  # reuse validation
        pts = tuple(tuple(float(v) for v in np.atleast_1d(p)) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", tuple(float(w) for w in self.probs))

    @property
    def d(self) -> int:
        return len(self.points[0])

    n_uniforms = 1

    @property
    def support(self) -> np.ndarray:
        return _support(self.points)

    def weight_table(self, u: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.probs)
        idx = atomic_index(cum, np.asarray(u)[..., 0])
        return np.eye(len(self.points))[idx]

    def make(self, u: np.ndarray) -> JumpLaw:
        cum = np.cumsum(self.probs)
        idx = int(atomic_index(cum, np.asarray(u)[..., 0]))
        return Dirac(self.points[idx])

    @property
    def averaged_mean(self) -> np.ndarray:
        return np.asarray(self.probs) @ np.asarray(self.points)

    @property
    def averaged_cov(self) -> np.ndarray:
        pts = np.asarray(self.points)
        m = self.averaged_mean
        c = pts - m
        return (c * np.asarray(self.probs)[:, None]).T @ c

    @property
    def drift_variance(self) -> float:
        # The local drift IS the displacement, so all annealed step variance
        # is drift variance.
        return float(np.trace(self.averaged_cov))

    @property
    def mean_step_cov(self) -> np.ndarray:
        return np.zeros((self.d, self.d))


@dataclass(frozen=True)
class GaussianDrift:
    """Gaussian law with a random mean, uniform on [-drift_scale, drift_scale]^d."""

    dim: int
    drift_scale: float
    cov: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if c.shape != (self.dim, self.dim):
            raise ValueError("covariance shape must be (dim, dim)")
        Gaussian(np.zeros(self.dim), c)  # validates symmetry / PSD
        object.__setattr__(self, "cov", tuple(tuple(float(v) for v in r) for r in c))

    @property
    def d(self) -> int:
        return self.dim

    @property
    def n_uniforms(self) -> int:
        return self.dim

    def mean_table(self, u: np.ndarray) -> np.ndarray:
        return self.drift_scale * (2.0 * np.asarray(u) - 1.0)

    def make(self, u: np.ndarray) -> JumpLaw:
        return Gaussian(self.mean_table(u), self.cov)

    @property
    def averaged_mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    @property
    def averaged_cov(self) -> np.ndarray:
        return np.asarray(self.cov) + (self.drift_scale**2 / 3.0) * np.eye(self.dim)

    @property
    def drift_variance(self) -> float:
        return self.dim * self.drift_scale**2 / 3.0

    @property
    def mean_step_cov(self) -> np.ndarray:
        return np.asarray(self.cov)


LawFamily = UniformPM1 | ChoicePM1 | FixedAtomic | DiracSteps | GaussianDrift


def has_fixed_support(family) -> bool:
    """Whether the family supports vectorized weight-table evaluation."""
    return hasattr(family, "support") and hasattr(family, "weight_table")


def row_drifts(family, rows: np.ndarray) -> np.ndarray:
    """Local drift vectors, shape (..., d), from the family's table rows: atom
    weights (``weight_table``) or drift vectors (``mean_table``)."""
    return atomic_mean(rows, family.support) if has_fixed_support(family) else rows
