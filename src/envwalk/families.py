"""Law families: how per-cell uniforms turn into jump laws.

A family is the measurable map from a cell's uniform variates to the
jump law stored there, and a cell's law is its row of the family's table:
:func:`cell_law` builds it from that row, so the scalar reference and the
batched and compiled paths, which read the rows themselves, see
bit-identical laws.  Families whose laws share one fixed atom support
(``_AtomTable``: ``points``, ``support``) give their atom weights through
``weight_table``; ``GaussianDrift`` gives its drift vectors through
``mean_table``.  Four families: ``UniformPM1`` (a uniform +1 probability
per cell), ``FixedAtomic`` (one law everywhere), ``DiracSteps`` (one atom
picked per cell from a finite table, its row one-hot) and
``GaussianDrift``.

The lattice a walk lives on is decided here, once per family: its atoms
are integers when each equals its rounding exactly (``support`` is then
int64; :func:`integer_support`), and a d=1 walk's lattice has the gcd of
the gaps between atoms as its stride (:func:`lattice_stride`).

Families also carry their closed-form one-step moments (annealed mean and
covariance, drift variance, mean quenched step covariance) when these exist;
estimators use them as centering constants and tests as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jumplaws import Atomic, Gaussian, JumpLaw, atomic_index, atomic_mean

__all__ = [
    "UniformPM1",
    "FixedAtomic",
    "DiracSteps",
    "GaussianDrift",
    "LawFamily",
    "cell_law",
    "has_fixed_support",
    "integer_support",
    "lattice_stride",
    "row_drifts",
]


class _AtomTable:
    """The core of the fixed-support families: atoms ``points``, weighted in
    each cell by its ``weight_table`` row.  ``FixedAtomic`` and
    ``DiracSteps`` draw them with probabilities ``_probs``."""

    @property
    def d(self) -> int:
        return len(self.points[0])

    @cached_property
    def support(self) -> np.ndarray:
        """Atoms as rows: int64 when every atom equals its rounding and fits, floats
        otherwise.  Built once per family and read-only, as every walker and
        field read asks for it."""
        pts = np.asarray(self.points)
        integer = np.array_equal(pts, np.round(pts)) and np.abs(pts).max() < 2.0**63
        support = pts.astype(np.int64) if integer else pts
        support.flags.writeable = False
        return support

    @property
    def averaged_mean(self) -> np.ndarray:
        return np.asarray(self._probs) @ np.asarray(self.points)

    @property
    def averaged_cov(self) -> np.ndarray:
        c = np.asarray(self.points) - self.averaged_mean
        return (c * np.asarray(self._probs)[:, None]).T @ c


@dataclass(frozen=True)
class UniformPM1(_AtomTable):
    """d=1 steps to +-1; the +1 probability is Uniform(p_low, p_high) per cell."""

    p_low: float = 0.0
    p_high: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p_low <= self.p_high <= 1.0):
            raise ValueError("need 0 <= p_low <= p_high <= 1")

    points = ((1.0,), (-1.0,))
    n_uniforms = 1

    def weight_table(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)[..., 0]
        out = np.empty(u.shape + (2,))
        p = np.multiply(u, self.p_high - self.p_low, out=out[..., 0])
        np.add(p, self.p_low, out=p)
        np.subtract(1.0, p, out=out[..., 1])
        return out

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
class FixedAtomic(_AtomTable):
    """The same atomic law in every cell: a nonrandom environment."""

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        law = Atomic(self.points, self.weights)  # validates
        object.__setattr__(self, "points", law.points)
        object.__setattr__(self, "weights", law.weights)

    n_uniforms = 0
    _probs = property(lambda self: self.weights)

    def weight_table(self, u: np.ndarray) -> np.ndarray:
        shape = np.asarray(u).shape[:-1] + (len(self.weights),)
        return np.broadcast_to(np.asarray(self.weights), shape)

    drift_variance = 0.0

    @property
    def mean_step_cov(self) -> np.ndarray:
        return self.averaged_cov


@dataclass(frozen=True)
class DiracSteps(_AtomTable):
    """Per-cell displacement picked from a finite table.

    Every cell's row is one-hot, its law a single atom: given the environment
    the walk is deterministic (the regularity-failure regime).
    """

    points: tuple[tuple[float, ...], ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        Atomic(self.points, self.probs)  # reuse validation
        pts = tuple(tuple(float(v) for v in np.atleast_1d(p)) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", tuple(float(w) for w in self.probs))

    n_uniforms = 1
    _probs = property(lambda self: self.probs)

    def weight_table(self, u: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.probs)
        idx = atomic_index(cum, np.asarray(u)[..., 0])
        return np.eye(len(self.points))[idx]

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


LawFamily = UniformPM1 | FixedAtomic | DiracSteps | GaussianDrift


def has_fixed_support(family) -> bool:
    """Whether the family's laws share one atom support, their rows atom weights."""
    return isinstance(family, _AtomTable)


def cell_law(family, u: np.ndarray) -> JumpLaw:
    """The law of a cell whose uniforms are ``u``: its row of the family's table."""
    if has_fixed_support(family):
        return Atomic(family.points, family.weight_table(u))
    return Gaussian(family.mean_table(u), family.cov)


def integer_support(family) -> np.ndarray:
    """The family's atoms as int64 rows; ``ValueError`` unless it has a fixed
    support of integer atoms."""
    if not has_fixed_support(family) or family.support.dtype.kind != "i":
        raise ValueError("exact lattice paths need a fixed-support family with integer atoms")
    return family.support


def lattice_stride(family) -> int:
    """The stride of the lattice a d=1 walk on the family's integer atoms
    lives on: the gcd of the gaps between atoms (1 for a single atom).  From
    0, the walk is at step k on k * min(atoms) + stride * Z."""
    support = integer_support(family)
    if support.shape[1] != 1:
        raise ValueError(f"the lattice stride needs d=1 atoms, got d={support.shape[1]}")
    gaps = support[:, 0] - support.min()
    return math.gcd(*gaps.tolist()) or 1


def row_drifts(family, rows: np.ndarray) -> np.ndarray:
    """Local drift vectors, shape (..., d), from the family's table rows: atom
    weights (``weight_table``) or drift vectors (``mean_table``)."""
    return atomic_mean(rows, family.support) if has_fixed_support(family) else rows
