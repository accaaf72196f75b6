"""Jump laws: the probability-measure values stored in an environment.

Three variants, each with a closed-form mean and bit-reproducible sampling:

* ``Atomic``   -- finitely many atoms; sampled by inverse CDF over the stored
                  atom order (the order is part of the value).
* ``Gaussian`` -- mean + covariance; sampled by Box-Muller pairs pushed
                  through the lower-Cholesky factor, never a ziggurat, so the
                  draw is a fixed function of the consumed uniforms.
* ``Dirac``    -- a pointmass; consumes no randomness.

Fields are stored as plain tuples so that equality is exact bit equality:
two queries of one field at one address give equal laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .streams import UniformStream

__all__ = [
    "Atomic",
    "Gaussian",
    "Dirac",
    "JumpLaw",
    "law_mean",
    "law_sample",
    "sample_uniform_count",
]

WEIGHT_TOL = 1e-12


def _point(p) -> tuple[float, ...]:
    a = np.atleast_1d(np.asarray(p, dtype=float))
    return tuple(float(v) for v in a)


@dataclass(frozen=True)
class Atomic:
    """Finite atomic measure; weights nonnegative, summing to 1.

    Constructors renormalize when the total is within ``WEIGHT_TOL`` of 1
    and reject otherwise; atom order is preserved and significant.
    """

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __init__(self, points, weights):
        pts = tuple(_point(p) for p in points)
        w = np.asarray(weights, dtype=float)
        if len(pts) == 0 or len(pts) != w.size:
            raise ValueError("atoms and weights must be non-empty and matched")
        if np.any(w < -WEIGHT_TOL):
            raise ValueError("negative atom weight")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        if total != 1.0:
            w = w / total
        w = np.clip(w, 0.0, None)
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise ValueError("atoms have inconsistent dimension")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", tuple(float(v) for v in w))

    @property
    def d(self) -> int:
        return len(self.points[0])


@dataclass(frozen=True)
class Gaussian:
    """Gaussian measure with symmetric PSD covariance."""

    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]

    def __init__(self, mean, cov):
        m = _point(mean)
        c = np.atleast_2d(np.asarray(cov, dtype=float))
        if c.shape != (len(m), len(m)):
            raise ValueError("covariance shape does not match mean dimension")
        if not np.allclose(c, c.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        eigs = np.linalg.eigvalsh(c)
        if eigs.min() < -1e-10 * max(1.0, eigs.max()):
            raise ValueError("covariance must be positive semi-definite")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", tuple(tuple(float(v) for v in row) for row in c))

    @property
    def d(self) -> int:
        return len(self.mean)


@dataclass(frozen=True)
class Dirac:
    """Pointmass at ``point``."""

    point: tuple[float, ...]

    def __init__(self, point):
        object.__setattr__(self, "point", _point(point))

    @property
    def d(self) -> int:
        return len(self.point)


JumpLaw = Union[Atomic, Gaussian, Dirac]


def atomic_mean(weights, points) -> np.ndarray:
    """Mean of the atoms ``points`` (n_atoms, d) under weight rows (..., n_atoms), shape (..., d).

    Summed atom by atom in one fixed order, so one law and a batch of rows
    give the same bits (a BLAS ``w @ points`` need not off the lattice).
    """
    weights, points = np.asarray(weights), np.asarray(points, dtype=float)
    total = weights[..., :1] * points[0]
    for a in range(1, len(points)):
        total = total + weights[..., a : a + 1] * points[a]
    return total


def law_mean(law: JumpLaw) -> np.ndarray:
    if isinstance(law, Atomic):
        return atomic_mean(law.weights, law.points)
    if isinstance(law, Gaussian):
        return np.asarray(law.mean, dtype=float)
    return np.asarray(law.point, dtype=float)


def sample_uniform_count(law: JumpLaw) -> int:
    """Number of uniforms one draw consumes (fixed per variant)."""
    if isinstance(law, Atomic):
        return 1
    if isinstance(law, Gaussian):
        return 2 * ((law.d + 1) // 2)
    return 0


def gaussian_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniform pairs via Box-Muller, along the last axis.

    The last axis of ``u`` has even length 2m; the result has u's shape,
    entries 2i and 2i+1 being the cosine and sine normals of pair i.
    log1p(-u) keeps u=0 safe since uniforms live in [0,1).
    """
    u = np.asarray(u, dtype=float)
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    theta = 2.0 * math.pi * u[..., 1::2]
    out = np.empty(u.shape)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


def atomic_index(cum_weights: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF atom index; shared by scalar and batched samplers."""
    return np.minimum(
        np.searchsorted(cum_weights, u, side="right"), len(cum_weights) - 1
    )


def gaussian_factor(law: Gaussian) -> np.ndarray:
    """Deterministic matrix square root used for sampling (chol, eigh fallback)."""
    c = np.asarray(law.cov)
    if not np.any(c):
        return np.zeros_like(c)
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(c)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def gaussian_step(mean, factor: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draws ``mean + factor @ z``, z the Box-Muller normals of each draw's uniforms (last axis of ``u``).

    Summed column by column in one fixed order, so one draw and a batch give
    the same bits (a BLAS ``L @ z`` and a batched ``Z @ L.T`` need not).
    """
    z = gaussian_from_uniforms(u)
    noise = z[..., :1] * factor[:, 0]
    for j in range(1, factor.shape[1]):
        noise = noise + z[..., j : j + 1] * factor[:, j]
    return mean + noise


def law_sample(law: JumpLaw, stream: UniformStream) -> np.ndarray:
    """One draw from the measure, consuming uniforms from ``stream``."""
    if isinstance(law, Atomic):
        u = stream.take(1)[0]
        idx = int(atomic_index(np.cumsum(law.weights), u))
        return np.asarray(law.points[idx], dtype=float)
    if isinstance(law, Gaussian):
        return gaussian_step(np.asarray(law.mean), gaussian_factor(law), stream.take(sample_uniform_count(law)))
    return np.asarray(law.point, dtype=float)
