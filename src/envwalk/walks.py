"""Walk simulation and quenched-mean computation.

Scalar reference paths (`simulate_quenched_path`) consume uniforms law by
law.  Every batched walk (quenched, averaged and one-step walks here, the
difference-chain pairs in `diffchain`) is one lockstep `_Walker` that draws
its noise from the same per-(step, walker) stream keys and reads the same
field cells, so it replays the scalar draws exactly; parity tests pin each
path to the scalar one.  Iterating a walker is the one stepping loop: it
yields (k0, the positions after steps k0 + 1 .. k0 + b) one block of b
steps at a time (``_BLOCK_ELEMENTS`` walker-steps a block) until the last
step or the last walker; since every variate is a pure function of its
address, the blocks change no draw.  The walker serves every law family in
any dimension d, with positions of shape (..., d): steps on a fixed atom
support (integer positions when every atom is a lattice point), Gaussian
steps around each cell's drift vector (the difference-chain pairs stay
d=1).  Walk noise uses its own key tag, so walk randomness never touches
environment randomness.

A d=1 walker with integer atoms on a lattice, finite-range or Dirac field
runs each block in one call of ``envwalk_walk`` in the library that
``streams`` builds from ``_hash.c``: per walker and step it hashes the walk
key, reads the field row at (k, its position) with the field read of the
compiled propagation step (:func:`environments.field_read`), steps by
inverse CDF and sums the drift.  Every other walker (Gaussian laws, d >= 2,
float positions, the level-correlated field, or no library) runs the numpy
steps: the walk noise (and a level-correlated field, which does not depend
on position) in one hash call per block, then
:func:`environments.field_weights` at the walkers' positions step by step.
They are the reference the compiled block matches bit for bit.

Quenched means come in two dual forms that cross-check each other: a Monte
Carlo mean over walks, and exact forward propagation of the full quenched
law over its reachable lattice support (dense vectorized version for d=1
fixed-support fields; a dictionary version for any lattice field, the
oracle the tests hold the dense one to).  Exact propagation prunes mass
below ``PRUNE_MASS`` and renormalizes.  The dense
version keeps a window centred at the origin, sized by an Azuma tail bound:
driftless fields drop no mass outside it, and a field whose mass leaves the
window (one with a drift) ends with a ``ValueError`` rather than a clipped
curve.  Each dense step (the field read, drift products and their row sum,
the scatter onto the next support, the mass outside the window, pruning and
renormalization) is one call of ``envwalk_propagate`` in the library that
``streams`` builds from ``_hash.c``, one pass per replica row: it hashes
each site's cell and forms its weight row itself
(:func:`environments.field_read`), so no weight array is built.  The numpy
steps (:func:`_numpy_steps`: :func:`environments.field_weights`, then
:func:`_numpy_step`) are the path without that library and the reference
the compiled step matches bit for bit, numpy's pairwise row sums included.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .environments import (
    FIELD_READ_KINDS,
    FULLY_CORRELATED,
    Environment,
    field_read,
    field_weights,
    query,
)
from .families import has_fixed_support, row_drifts
from .jumplaws import Atomic, Dirac, gaussian_factor, gaussian_step, law_sample, sample_uniform_count
from .streams import (
    TAG_WALK,
    StreamKey,
    derive_seeds_vec,
    derive_stream,
    lanes_for_cells,
    seed_lanes,
    seed_lanes_vec,
    uniforms_at,
)

__all__ = [
    "WalkPath",
    "QuenchedMeanCurve",
    "quenched_step",
    "simulate_quenched_path",
    "quenched_mean_mc",
    "quenched_mean_exact",
    "velocity_and_covariance",
    "batch_quenched_positions",
    "batch_averaged_positions",
    "exact_mean_curves",
]

PRUNE_MASS = 1e-15
SUPPORT_CAP = 10**7

# Dense propagation window: Azuma gives P(|X_k| > c*smax*sqrt(k)) < 1e-15
# for c = sqrt(2*ln(2e15)) ~ 8.4; pad a little.
_WINDOW_C = 8.6

# Walker-steps per block: a batch of w walkers steps max(1, this // w) steps
# at a time, one compiled call or one hash call for the walk noise.  Larger
# blocks save little call overhead and cost memory.
_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True, eq=False)
class WalkPath:
    """Positions X_0..X_N of one walk, shape (N+1, d)."""

    positions: np.ndarray
    env_seed: int
    walk_seed: int
    start: tuple[float, ...]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[0] - 1


@dataclass(frozen=True, eq=False)
class QuenchedMeanCurve:
    """E^w_0[X_n] on a grid of n, with per-n standard errors.

    ``method`` is "exact" (propagated law; SEs identically zero) or "mc"
    (mean over walks; SEs are sample SD / sqrt(M)).
    """

    n_grid: np.ndarray
    means: np.ndarray
    standard_errors: np.ndarray
    method: str


def _walk_stream(env_seed: int, step: int, walk_seed: int, subcell: tuple[int, ...] = ()):
    return derive_stream(StreamKey(env_seed, step, (walk_seed,) + subcell, TAG_WALK))


def quenched_step(env: Environment, n: int, x, stream) -> np.ndarray:
    """One transition of the walk at time ``n`` from ``x`` under ``env``."""
    law = query(env, n, x)
    return np.atleast_1d(np.asarray(x, dtype=float)) + law_sample(law, stream)


def simulate_quenched_path(
    env: Environment, n_steps: int, walk_seed: int, x0=None, subcell: tuple[int, ...] = ()
) -> WalkPath:
    """A walk of ``n_steps`` steps in the fixed environment ``env``.

    Step ``k`` draws its noise from the stream keyed by
    (env seed, level=k, cell=(walk_seed, *subcell), walk tag), so paths
    replay exactly and walks with different seeds are independent.
    ``subcell`` separates the noise of several walks sharing one seed index
    (e.g. the two walks of a difference chain).
    """
    x = np.zeros(env.d) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    positions = np.empty((n_steps + 1, env.d))
    positions[0] = x
    for k in range(n_steps):
        stream = _walk_stream(env.master_seed, k, walk_seed, subcell)
        x = quenched_step(env, k, x, stream)
        positions[k + 1] = x
    return WalkPath(positions, env.master_seed, walk_seed, tuple(positions[0]))


# ---------------------------------------------------------------------------
# Batched walkers.
# ---------------------------------------------------------------------------


def _row_atomic_index(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse CDF of weight rows, matching :func:`jumplaws.atomic_index`; sums
    ``np.cumsum``'s way, atom by atom, since numpy reduces a short last axis slowly."""
    cum = rows[..., 0]
    idx = (cum <= u).astype(np.intp)
    for a in range(1, rows.shape[-1] - 1):
        cum = cum + rows[..., a]
        idx += cum <= u
    return idx


def _per_row(lanes):
    """Per-row seed lanes as a column, to broadcast against (m, c) positions."""
    return lanes[0][:, None], lanes[1][:, None]


class _Walker:
    """Lockstep batch of quenched walks, for every law family and dimension.

    Positions have shape (m, c, d): row i holds c walks, column j reading
    the field through ``base_lanes`` (one shared field, or lanes
    broadcasting to (m, c)) and drawing its step-k noise from the walk key
    (field seed, level=k, cell=``walk_cells[i, j]``).  That is the key of
    :func:`simulate_quenched_path`, so every column replays a scalar path
    draw for draw.  The step rule is chosen once per walker: a fixed-support
    family steps by inverse CDF on its support, with positions of the
    support's dtype, a Gaussian family around the cell's drift vector.
    Iterating runs at most ``n_steps`` steps, a block of
    ``_BLOCK_ELEMENTS`` walker-steps at a time.

    A d=1 walk with integer atoms on a field that
    :func:`environments.field_read` describes (not the level-correlated
    one) runs each block in one call of ``envwalk_walk`` (``_hash.c``);
    every other walker runs the numpy steps of :meth:`_numpy_block`, which
    are also that call's reference.
    """

    def __init__(
        self, env: Environment, base_lanes, walk_cells: np.ndarray, x0, n_steps: int, accumulate_drift: bool = False
    ):
        fam = env.family
        if has_fixed_support(fam):  # one uniform a step (a Dirac row is one-hot: any u picks its atom)
            self.factor, self.support, self.n_uniforms = None, fam.support, 1
            dtype = self.support.dtype
        else:  # Gaussian laws, one covariance for every cell
            law = fam.make(np.zeros(fam.n_uniforms))
            self.factor, dtype, self.n_uniforms = gaussian_factor(law), float, sample_uniform_count(law)
        self.env = env
        self.base = base_lanes
        self.wcells = walk_cells
        self.pos = np.array(np.broadcast_to(np.asarray(x0, dtype=dtype), walk_cells.shape[:-1] + (env.d,)))
        # Each walker's sum of local drifts; column 0's are the drift sums.
        self.drift = np.zeros(self.pos.shape) if accumulate_drift else None
        self.n_steps = n_steps
        self.k = 0
        self.compiled = streams._LIB is not None and dtype == np.int64 and env.d == 1 and env.kind in FIELD_READ_KINDS
        self._bind()

    @property
    def drift_sums(self) -> np.ndarray | None:
        """Column 0's sums of local drifts along the path, (m, d), or None unless accumulated."""
        return None if self.drift is None else self.drift[:, 0]

    def _bind(self) -> None:
        """For the compiled block: the walkers' field read (one base lane pair
        a walker), walk cells (one contiguous array per cell word), positions
        and drift sums as addresses, made here once and again whenever the
        set of walkers changes."""
        if not self.compiled:
            return
        shape = self.pos.shape[:-1]
        n, n_words = self.pos[..., 0].size, self.wcells.shape[-1]
        read = field_read(self.env, tuple(np.broadcast_to(h, shape).reshape(n) for h in self.base))
        cells = np.ascontiguousarray(self.wcells.reshape(n, n_words).T, dtype=np.int64)
        support = np.ascontiguousarray(self.support[:, 0])
        scratch = np.empty(n * len(support))
        self.pos = np.ascontiguousarray(self.pos)
        drift = None if self.drift is None else self.drift.ctypes.data
        self._kernel_arrays = (read, cells, support, scratch)  # the memory the addresses point into
        self._kernel_args = (
            ctypes.addressof(read), n, TAG_WALK, cells.ctypes.data, n_words, support.ctypes.data,
            self.pos.ctypes.data, drift, scratch.ctypes.data,
        )

    def step(self) -> np.ndarray:
        """Take the next block of b steps, k -> k + b; returns the positions
        after each of them, shape (b, m, c, d)."""
        b = min(max(1, _BLOCK_ELEMENTS // max(1, self.wcells[..., 0].size)), self.n_steps - self.k)
        if not self.compiled:
            return self._numpy_block(b)
        out = np.empty((b,) + self.pos.shape, np.int64)
        streams._LIB.envwalk_walk(*self._kernel_args, self.k, b, out.ctypes.data)
        self.k += b
        return out

    def _numpy_block(self, b: int) -> np.ndarray:
        """b steps in numpy: the walk noise (and a level-correlated field) for
        the whole block in one hash call, then the field read at the walkers'
        positions step by step."""
        levels = np.arange(self.k, self.k + b)[:, None, None]
        lanes = lanes_for_cells(self.base, levels, TAG_WALK, self.wcells)
        noise = uniforms_at((lanes[0][..., None], lanes[1][..., None]), np.arange(self.n_uniforms))
        if self.env.kind == FULLY_CORRELATED:
            level_rows = field_weights(self.env, self.base, levels, np.zeros(self.env.d, np.int64))
        out = np.empty((b,) + self.pos.shape, self.pos.dtype)
        for s in range(b):
            if self.env.kind != FULLY_CORRELATED:
                rows = field_weights(self.env, self.base, self.k, self.pos)
            else:  # in the shape a per-step read gives, for the same drift arithmetic
                rows = np.broadcast_to(level_rows[s], self.pos.shape[:-1] + level_rows.shape[-1:])
            if self.drift is not None:
                self.drift += row_drifts(self.env.family, rows)
            if self.factor is None:
                move = np.take(self.support, _row_atomic_index(rows, noise[s, ..., 0]), axis=0)
            else:
                move = gaussian_step(rows, self.factor, noise[s])
            self.pos = np.add(self.pos, move, out=out[s])
            self.k += 1
        return out

    def __iter__(self):
        """The one stepping loop: yields (k0, the positions after steps k0 + 1
        .. k0 + b), one block of b steps at a time, until ``n_steps`` or the
        last walker."""
        while self.k < self.n_steps and len(self.pos):
            k0 = self.k
            yield k0, self.step()

    def record(self, record_steps=None) -> tuple[np.ndarray, np.ndarray]:
        """Run all ``n_steps`` steps; positions at ``record_steps``, shape (len, m, c, d)."""
        record = np.arange(self.n_steps + 1) if record_steps is None else np.asarray(record_steps)
        order = np.argsort(record, kind="stable")
        ordered = record[order]
        out = np.empty((len(record),) + self.pos.shape, dtype=self.pos.dtype)
        out[record == 0] = self.pos
        for k0, block in self:
            # The recorded steps k0 + 1 .. k0 + b, picked out of the block.
            at = order[np.searchsorted(ordered, k0 + 1) : np.searchsorted(ordered, k0 + len(block), side="right")]
            out[at] = block[record[at] - k0 - 1]
        return record, out


def batch_quenched_positions(
    env: Environment,
    n_steps: int,
    walk_seeds: np.ndarray,
    x0: int = 0,
    record_steps=None,
    accumulate_drift: bool = False,
    subcell: tuple[int, ...] = (),
):
    """Vectorized quenched walks, every coordinate starting at ``x0``.

    Returns (record_steps, positions, drift_sums): positions has shape
    (len(record_steps), M, d), the layout of :attr:`WalkPath.positions`
    (integers on an integer support, floats otherwise); drift_sums is
    the per-walker sum of local drifts along the path, shape (M, d), or
    None unless requested.  Draw-for-draw identical to
    :func:`simulate_quenched_path`.
    """
    walk_seeds = np.asarray(walk_seeds, dtype=np.int64)
    cells = np.column_stack([walk_seeds] + [np.full(walk_seeds.shape[0], s, dtype=np.int64) for s in subcell])
    walker = _Walker(env, seed_lanes(env.master_seed), cells[:, None, :], x0, n_steps, accumulate_drift)
    record, pos = walker.record(record_steps)
    return record, pos[:, :, 0], walker.drift_sums


def batch_averaged_positions(env_template: Environment, n_steps: int, replicas: np.ndarray, record_steps=None):
    """Vectorized averaged walks from the origin: replica i walks in its own fresh field.

    Positions have shape (len(record_steps), M, d); replica r is draw for
    draw ``simulate_quenched_path(env_replica(env_template, r), n_steps, r)``.
    """
    replicas = np.asarray(replicas, dtype=np.int64)
    base = seed_lanes_vec(derive_seeds_vec(env_template.master_seed, replicas))
    walker = _Walker(env_template, _per_row(base), replicas[:, None, None], 0, n_steps)
    record, pos = walker.record(record_steps)
    return record, pos[:, :, 0]


# ---------------------------------------------------------------------------
# Quenched means: Monte Carlo and exact propagation.
# ---------------------------------------------------------------------------


def quenched_mean_mc(env: Environment, n_grid, n_walks: int) -> QuenchedMeanCurve:
    """Monte Carlo quenched means over ``n_walks`` independent walks."""
    n_grid = np.asarray(n_grid, dtype=np.int64)
    _, positions, _ = batch_quenched_positions(env, int(n_grid.max()), np.arange(n_walks), record_steps=n_grid)
    x = positions.astype(float)
    return QuenchedMeanCurve(n_grid, x.mean(axis=1), x.std(axis=1, ddof=1) / math.sqrt(n_walks), "mc")


def _integer_atoms(law) -> tuple[np.ndarray, np.ndarray]:
    """Atom (points, weights) of a lattice law; rejects anything else."""
    if isinstance(law, Dirac):
        pts, w = np.asarray([law.point]), np.asarray([1.0])
    elif isinstance(law, Atomic):
        pts, w = np.asarray(law.points), np.asarray(law.weights)
    else:
        raise ValueError("exact propagation requires atomic or pointmass laws")
    rounded = np.round(pts)
    if not np.allclose(pts, rounded, atol=1e-9):
        raise ValueError("exact propagation requires laws supported on the integer lattice")
    return rounded.astype(np.int64), w


def quenched_mean_exact(env: Environment, n_max: int, support_cap: int = SUPPORT_CAP) -> QuenchedMeanCurve:
    """Exact quenched means from the origin by propagating the full quenched law.

    Works for any dimension and any environment whose queried laws are
    atomic on the integer lattice.  Mass below ``PRUNE_MASS`` is dropped and
    the law renormalized; exceeding ``support_cap`` lattice points raises.
    """
    state: dict[tuple[int, ...], float] = {(0,) * env.d: 1.0}
    means = np.zeros((n_max + 1, env.d))
    for k in range(n_max):
        new: dict[tuple[int, ...], float] = {}
        drift = np.zeros(env.d)
        for site, mass in state.items():
            pts, w = _integer_atoms(query(env, k, np.asarray(site, dtype=float)))
            drift = drift + mass * (w @ pts)
            for p, wt in zip(pts, w):
                if wt == 0.0:
                    continue
                tgt = tuple(int(v) for v in (np.asarray(site) + p))
                new[tgt] = new.get(tgt, 0.0) + mass * wt
        means[k + 1] = means[k] + drift
        new = {s: v for s, v in new.items() if v >= PRUNE_MASS}
        if len(new) > support_cap:
            raise ValueError(f"exact propagation support exceeded cap ({support_cap})")
        total = sum(new.values())
        state = {s: v / total for s, v in new.items()}
    grid = np.arange(n_max + 1)
    return QuenchedMeanCurve(grid, means, np.zeros_like(means), "exact")


def exact_mean_curves(env_template: Environment, n_max: int, replica_seeds: np.ndarray) -> np.ndarray:
    """Exact quenched-mean curves for many environment replicas at once.

    Returns means of shape (n_replicas, n_max + 1) for d=1 fixed-support
    fields starting at 0: the dense-window twin of
    :func:`quenched_mean_exact`, vectorized across replicas.  Each step
    scatters the law onto its full next support and keeps the slice inside
    an Azuma window centred at the origin.  Driftless fields drop no mass
    there; if the window would drop more than ``PRUNE_MASS`` of a replica's
    law (a field with a drift), this raises ``ValueError`` naming the step.
    Fully correlated fields collapse to a cumulative sum of per-level drifts.
    """
    fam = env_template.family
    if env_template.d != 1 or not has_fixed_support(fam) or fam.support.dtype.kind != "i":
        raise ValueError("exact mean curves need a d=1 fixed-support family with integer atoms")
    support = fam.support[:, 0]
    seeds = np.asarray(replica_seeds, dtype=np.uint64)
    m = seeds.shape[0]
    base = seed_lanes_vec(seeds)

    if env_template.kind == FULLY_CORRELATED:
        rows = field_weights(env_template, base, np.arange(n_max)[:, None], np.zeros(1, np.int64))  # (n_max, m, atoms)
        drifts = row_drifts(fam, rows)[..., 0]
        return np.concatenate([np.zeros((m, 1)), np.cumsum(drifts.T, axis=1)], axis=1)

    smax = int(np.abs(support).max())
    s_lo = int(support.min())
    # Positions at step k have the parity of k when every atom is odd.
    st = 2 if bool(np.all(np.abs(support) % 2 == 1)) else 1
    offsets = ((support - s_lo) // st).astype(np.intp)
    span = int(offsets.max())

    def window(k):  # the half-width of the window after step k + 1
        return min(smax * (k + 1), int(_WINDOW_C * smax * math.sqrt(k + 1)) + smax + 2)

    means = np.zeros((m, n_max + 1))
    if streams._LIB is None:
        step = _numpy_steps(env_template, base, st, offsets, span, means)
    else:
        # Sites before a step: at most span more than the step before, at most the window's.
        n_cap = min(1 + span * n_max, 2 * window(n_max - 1) // st + 1)
        step = _KernelSteps(env_template, base, st, offsets, span, means, n_cap)
    lo, n_pos = 0, 1
    for k in range(n_max):
        # The window [-win, win] on the full next support, lo + s_lo + st * j.
        win = window(k)
        full_lo = lo + s_lo
        # 0 <= i0 <= i1 <= n_full also where the law has left the window whole.
        n_full = n_pos + span
        i0 = min(n_full, max(0, -((win + full_lo) // st)))
        i1 = max(i0, min(n_full, (win - full_lo) // st + 1))
        dropped = step(k, lo, n_pos, i0, i1)
        if dropped > PRUNE_MASS:
            raise ValueError(
                f"exact propagation: step {k + 1} drops mass {dropped:.3g} outside the window "
                f"|x| <= {win} centred at the origin; the field's drift carries its law out of it"
            )
        lo, n_pos = full_lo + st * i0, i1 - i0
    return means


def _numpy_steps(env, base, st, offsets, span, means):
    """The steps of :func:`exact_mean_curves` without the compiled library, and the
    reference for :class:`_KernelSteps`: :func:`field_weights` reads the sites
    lo + st * j of each replica's field, then :func:`_numpy_step` moves the law."""
    mass = np.ones((len(means), 1))
    base = _per_row(base)

    def step(k, lo, n_pos, i0, i1):
        nonlocal mass
        w = field_weights(env, base, k, (lo + st * np.arange(n_pos))[:, None])  # (m, n_pos, n_atoms)
        mass, dropped = _numpy_step(env.family, mass, w, offsets, span, i0, i1, means[:, k:])
        return dropped

    return step


def _numpy_step(fam, mass, w, offsets, span, i0, i1, means):
    """One dense propagation step in numpy.

    ``mass`` (m, n_pos) is the law on the current sites and ``w`` their weight
    rows.  Sets ``means[:, 1]`` from ``means[:, 0]``, scatters the law onto its
    full next support, atoms in support order, and keeps columns [i0, i1)
    pruned and renormalized.  Returns (that law, the largest mass outside it).
    """
    # Mean recursion: E[X_{k+1}] = E[X_k] + sum_x mass(x) * drift(x).
    means[:, 1] = means[:, 0] + (mass * row_drifts(fam, w)[..., 0]).sum(axis=1)
    m, n_pos = mass.shape
    full = np.zeros((m, n_pos + span))
    for a, off in enumerate(offsets.tolist()):
        full[:, off : off + n_pos] += mass * w[:, :, a]
    dropped = full[:, :i0].sum(axis=1) + full[:, i1:].sum(axis=1)
    mass = full[:, i0:i1]
    mass[mass < PRUNE_MASS] = 0.0
    mass /= mass.sum(axis=1, keepdims=True)
    return mass, dropped.max(initial=0.0)


class _KernelSteps:
    """The steps of :func:`_numpy_steps`, one C call each (``envwalk_propagate`` in
    ``_hash.c``), bit for bit: the field read (:func:`environments.field_read`)
    and the step run in one pass per replica row, with no weight array.  The
    law lives in two preallocated buffers of ``n_cap + span`` sites a row that
    take turns, ``n_cap`` bounding n_pos, and every argument that is the same
    at each step is converted once, here.
    """

    def __init__(self, env, base, st, offsets, span, means, n_cap):
        m = len(base[0])
        read = field_read(env, base)
        support = np.ascontiguousarray(env.family.support[:, 0], dtype=np.float64)
        offsets = np.ascontiguousarray(offsets, dtype=np.intp)
        row_weights = np.empty(n_cap * len(offsets))  # one row's weight rows, rewritten per row
        laws = np.empty((2, m * (n_cap + span)))
        laws[0, :m] = 1.0  # the point mass at the origin, one site a row
        self.arrays = (read, support, offsets, row_weights, laws, means)  # the memory the addresses point into
        self.fixed = (ctypes.addressof(read), support.ctypes.data, offsets.ctypes.data, row_weights.ctypes.data)
        self.buffers = (laws[0].ctypes.data, laws[1].ctypes.data)
        self.means, self.mstride = means.ctypes.data, means.shape[1]
        self.st, self.span, self.m = st, span, m
        self.law = (0, 0, 1)  # the current law: buffer, first element, row stride

    def run(self, k, lo, n_pos, mass, ms, i0, i1, full, means, mstride) -> float:
        """Step k on the law at address ``mass`` (row stride ``ms``) on the sites
        lo + st * j: writes the next law into the contiguous (m, n_pos + span)
        array at ``full`` and each row's next mean after its mean at ``means``
        (row stride ``mstride``); returns the largest mass outside [i0, i1)."""
        read, support, offsets, row_weights = self.fixed
        return streams._LIB.envwalk_propagate(
            read, k, lo, self.st, self.m, n_pos, mass, ms, support, offsets, n_pos + self.span, i0, i1,
            PRUNE_MASS, full, means, mstride, row_weights,
        )

    def __call__(self, k, lo, n_pos, i0, i1) -> float:
        cur, at, ms = self.law
        mass, full = self.buffers[cur] + 8 * at, self.buffers[1 - cur]
        dropped = self.run(k, lo, n_pos, mass, ms, i0, i1, full, self.means + 8 * k, self.mstride)
        # The next law is columns [i0, i1) of the (m, n_pos + span) array just written.
        self.law = (1 - cur, i0, n_pos + self.span)
        return dropped


def _x1_samples(env_template: Environment, n_env: int, n_walk: int) -> np.ndarray:
    """One-step positions under the averaged law, shape (n_env * n_walk, d)."""
    env_idx = np.repeat(np.arange(n_env), n_walk)
    walk_idx = np.tile(np.arange(n_walk), n_env)
    base = seed_lanes_vec(derive_seeds_vec(env_template.master_seed, env_idx))
    walker = _Walker(env_template, _per_row(base), walk_idx[:, None, None], 0, 1)
    walker.step()
    return walker.pos[:, 0].astype(float)


def velocity_and_covariance(env_template: Environment, n_env: int, n_walk: int = 1):
    """Monte Carlo estimates of the annealed one-step mean and covariance.

    Returns (velocity, velocity_se, cov, cov_se): the limiting velocity and
    diffusion covariance of the averaged walk with entrywise standard
    errors, from ``n_env`` fresh fields with ``n_walk`` walks each.
    """
    x1 = _x1_samples(env_template, n_env, n_walk)
    n = x1.shape[0]
    v = x1.mean(axis=0)
    v_se = x1.std(axis=0, ddof=1) / math.sqrt(n)
    centered = x1 - v
    prods = centered[:, :, None] * centered[:, None, :]
    cov = prods.mean(axis=0) * n / (n - 1)
    # Sampling error of the sample covariance: the spread of the products
    # plus the O(1/n) chi-square term from estimating the mean (which is
    # the whole error for two-point laws, where the products are constant).
    diag = np.diag(cov)
    second_order = (np.outer(diag, diag) + cov**2) / n**2
    cov_se = np.sqrt(prods.var(axis=0, ddof=1) / n + second_order)
    return v, v_se, cov, cov_se
