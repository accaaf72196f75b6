"""Environment models: queryable random fields of jump laws.

An :class:`Environment` is an immutable value ``(kind, family, master_seed,
d, dependence_range, uniform_offset)``; ``query(env, n, x)`` is a pure
function of that value and (n, x), so the same field can be re-queried and
shared across workers with no caching and no order sensitivity.  Three
constructions:

* ``lattice_product``    -- i.i.d. law per (level, unit cell), with an
                            optional one-per-field uniform offset of the cell
                            grid, so laws are constant on shifted unit cubes.
                            ``make_dirac`` builds one without the offset
                            from ``DiracSteps``, whose rows are one-hot:
                            given the field, the walk is deterministic (the
                            regularity-failure reference model).
* ``finite_range``       -- i.i.d. laws on a cell grid of spacing R; a point
                            takes the law of its nearest grid center (half-up
                            rounding, so ties break deterministically
                            upward).  Separations beyond R*sqrt(d) involve
                            distinct centers and are independent outright.
* ``fully_correlated``   -- one law per level shared by every x: maximal
                            spatial correlation, the no-mixing reference
                            model.

Levels never share stream keys, so distinct time levels are independent by
construction in every model.  ``field_weights`` is the batched twin of
``query`` for every family and dimension.  The compiled paths of ``walks``
(the dense propagation step and the level-correlated closed form of
``exact_mean_curves``, and the walker block of ``_Walker``) read every d=1
field at integer positions in C instead, through ``field_read``, and give
the bits of ``field_weights``, which stays their reference and the read of
every walker they do not serve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .families import DiracSteps, FixedAtomic, LawFamily, UniformPM1, cell_law, has_fixed_support
from .jumplaws import JumpLaw
from .streams import (
    TAG_ENV,
    TAG_OFFSET,
    FieldRead,
    StreamKey,
    derive_seeds_vec,
    lanes_for_cells,
    uniforms_at,
)

__all__ = [
    "Environment",
    "make_lattice_product",
    "make_finite_range",
    "make_fully_correlated",
    "make_dirac",
    "query",
    "env_replica",
    "offset_vector",
    "field_weights",
    "field_read",
]

LATTICE_PRODUCT = "lattice_product"
FINITE_RANGE = "finite_range"
FULLY_CORRELATED = "fully_correlated"
# The finest finite-range grid: a cell floor(x / R + 0.5) stays an int64
# for every |x| < MAX_COORDINATE, on the numpy read and on the compiled one.
MIN_DEPENDENCE_RANGE = 2.0**-20
MAX_COORDINATE = 2.0**43


@dataclass(frozen=True)
class Environment:
    kind: str
    family: LawFamily
    master_seed: int
    d: int
    dependence_range: float | None = None
    uniform_offset: bool = False

    def __post_init__(self):
        if self.family.d != self.d:
            raise ValueError(f"family dimension {self.family.d} != environment dimension {self.d}")


def make_lattice_product(
    master_seed: int, d: int, family: LawFamily, uniform_offset: bool = True
) -> Environment:
    """i.i.d. site laws on unit cells, optionally on a uniformly offset grid."""
    return Environment(LATTICE_PRODUCT, family, int(master_seed), d, uniform_offset=uniform_offset)


def make_finite_range(master_seed: int, d: int, dependence_range: float, family: LawFamily) -> Environment:
    """i.i.d. cell laws on a grid of spacing ``dependence_range``."""
    if not dependence_range >= MIN_DEPENDENCE_RANGE:
        raise ValueError(f"dependence_range must be >= {MIN_DEPENDENCE_RANGE}, got {dependence_range}")
    return Environment(FINITE_RANGE, family, int(master_seed), d, dependence_range=float(dependence_range))


def make_fully_correlated(master_seed: int, d: int, family: LawFamily) -> Environment:
    """One law per level, shared by every spatial point."""
    return Environment(FULLY_CORRELATED, family, int(master_seed), d)


def make_dirac(master_seed: int, d: int, family: DiracSteps) -> Environment:
    """One-atom laws on unit cells without an offset; the quenched walk
    carries no randomness."""
    if not isinstance(family, DiracSteps):
        raise ValueError("a Dirac field requires a DiracSteps family")
    return make_lattice_product(master_seed, d, family, uniform_offset=False)


def offset_vector(env: Environment) -> np.ndarray:
    """The per-field uniform grid offset (zeros when disabled)."""
    if env.kind == LATTICE_PRODUCT and env.uniform_offset:
        return StreamKey(env.master_seed, 0, (), TAG_OFFSET).uniforms(env.d)
    return np.zeros(env.d)


def cell_index(env: Environment, x: np.ndarray) -> np.ndarray:
    """Integer cell coordinates for points, shape (..., d).

    lattice_product: floor(x + U) per coordinate.
    finite_range: nearest center of the spacing-R grid, half-up rounding.
    fully_correlated: empty cell tuple (a single shared cell per level).
    """
    x = np.asarray(x, dtype=float)
    if env.kind == FULLY_CORRELATED:
        return np.zeros(x.shape[:-1] + (0,), dtype=np.int64)
    if env.kind == FINITE_RANGE:
        return np.floor(x / env.dependence_range + 0.5).astype(np.int64)
    return np.floor(x + offset_vector(env)).astype(np.int64)


def query(env: Environment, n: int, x) -> JumpLaw:
    """The jump law at time ``n`` and point ``x``: its cell's table row."""
    cell = cell_index(env, np.atleast_1d(x))
    u = StreamKey(env.master_seed, n, tuple(int(c) for c in cell), TAG_ENV).uniforms(env.family.n_uniforms)
    return cell_law(env.family, u)


def env_replica(env: Environment, *index: int) -> Environment:
    """Independent copy of the model with a replica-derived master seed.

    The template's parameters are kept; only the seed changes, so replicas
    are i.i.d. draws of the same environment law.
    """
    return replace(env, master_seed=int(derive_seeds_vec(env.master_seed, *index)))


# ---------------------------------------------------------------------------
# The batched field kernel.
# ---------------------------------------------------------------------------

_NO_CELL = np.zeros((1, 0), dtype=np.int64)


def field_weights(env: Environment, base_lanes, level: int, positions) -> np.ndarray:
    """The family's table rows of ``env`` at ``level`` and ``positions``.

    ``positions`` has shape (..., d).  ``base_lanes`` are the seed lanes
    (``seed_lanes``) of one field or of one field per row; they must
    broadcast against ``positions[..., 0]``.  Returns rows of
    shape broadcast(lanes, positions[..., 0]) + (row length,): atom weights
    (``weight_table``) for fixed-support families, drift vectors
    (``mean_table``) for ``GaussianDrift``; entry by entry the law
    :func:`query` gives.  Integer positions skip the grid offset, since
    floor(x + U) = x; the level-correlated field hashes one cell per field
    and broadcasts it.  The numpy steps read the field
    through it; the compiled paths read it through :func:`field_read`, and
    this is that read's reference.
    """
    fam = env.family
    positions = np.asarray(positions)
    if env.kind == FULLY_CORRELATED:
        cells = _NO_CELL
    elif env.kind == FINITE_RANGE:
        cells = np.floor(positions / env.dependence_range + 0.5).astype(np.int64)
    elif positions.dtype.kind == "f":
        if env.kind == LATTICE_PRODUCT and env.uniform_offset:
            offset = lanes_for_cells(base_lanes, 0, TAG_OFFSET, _NO_CELL)
            positions = positions + uniforms_at((offset[0][..., None], offset[1][..., None]), np.arange(env.d))
        cells = np.floor(positions).astype(np.int64)
    else:
        cells = positions
    lanes = lanes_for_cells(base_lanes, level, TAG_ENV, cells)
    table = fam.weight_table if has_fixed_support(fam) else fam.mean_table
    rows = table(uniforms_at((lanes[0][..., None], lanes[1][..., None]), np.arange(fam.n_uniforms)))
    if env.kind == FULLY_CORRELATED:
        return np.broadcast_to(rows, np.broadcast_shapes(lanes[0].shape, positions.shape[:-1]) + rows.shape[-1:])
    return rows


def field_read(env: Environment, base_lanes) -> FieldRead:
    """The compiled twin of :func:`field_weights` on integer d=1 positions.

    ``base_lanes`` are one field per row (``seed_lanes`` of a seed array):
    a replica row of the propagation step, a field of the walker block
    (walker i reads field i // g, g walkers a field).  The struct
    carries the cell rule (a lattice field reads the one-word cell
    x, a finite-range field floor(x / R + 0.5), and the level-correlated
    field no cell word, ``cell_words = 0``) and the family's
    ``weight_table`` as one of three kinds: affine for ``UniformPM1``,
    threshold for ``DiracSteps`` (``np.cumsum`` of the probabilities; the
    read writes the one-hot row of the atom they pick), constant for
    ``FixedAtomic``.  ``envwalk_propagate``, ``envwalk_walk`` and
    ``envwalk_field_weights`` in ``_hash.c`` read the field through it, and
    give the bits of :func:`field_weights`.
    """
    fam = env.family
    read = FieldRead(
        tag=TAG_ENV,
        range=env.dependence_range if env.kind == FINITE_RANGE else 0.0,
        cell_words=0 if env.kind == FULLY_CORRELATED else 1,
        n_atoms=len(fam.support),
    )
    thresholds = rows = None
    if isinstance(fam, UniformPM1):
        read.kind, read.slope, read.intercept = FieldRead.AFFINE, fam.p_high - fam.p_low, fam.p_low
    elif isinstance(fam, FixedAtomic):
        read.kind, rows = FieldRead.CONSTANT, np.asarray(fam.weights, dtype=float)
        read.rows = rows.ctypes.data
    else:
        read.kind, thresholds = FieldRead.THRESHOLD, np.cumsum(fam.probs)
        read.thresholds = thresholds.ctypes.data
    b1, b2 = (np.ascontiguousarray(h, dtype=np.uint64) for h in base_lanes)
    read.b1, read.b2 = b1.ctypes.data, b2.ctypes.data
    read.arrays = (b1, b2, thresholds, rows)  # the memory the pointers address
    return read
