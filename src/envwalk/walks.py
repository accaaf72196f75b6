"""Walk simulation and quenched-mean computation.

The scalar reference path (`simulate_quenched_path`) draws each step from
the first uniforms of that step's own stream key.  Every batched walk
(quenched, averaged and one-step walks here, the difference-chain pairs in
`diffchain`) is one lockstep `_Walker` that draws its noise from the same
per-(step, walker) stream keys and reads the same field cells, so it
replays the scalar draws exactly; parity tests pin each path to the scalar
one.  A walker takes its steps in one place, ``_Walker._run``, which
writes the positions after each step into the caller's array or nowhere.
Iterating a walker, which the difference-chain scans do to read every
step, yields (k0, the positions after steps k0 + 1 .. k0 + b) one block of
b steps at a time (``_BLOCK_ELEMENTS`` walker-steps a block) until the last
step or the last walker.  Recording a walker steps straight to each
recorded step and keeps only the positions there; a run of consecutive
recorded steps (every step by default) is written in place in one go.
Since every variate is a pure function of its address, neither the
blocks nor the stops change a draw.  The walker serves every law family in
any dimension d, with positions of shape (n, d), and walker i reads field
i // g of the F fields it is given, g = n / F: steps on a fixed atom
support (integer positions when the family's atoms are integers), Gaussian
steps around each cell's drift vector (the difference-chain pairs stay
d=1).  Walk noise uses its own key tag, so walk randomness never touches
environment randomness.

A d=1 walker with integer atoms takes each run of steps in one call of
``envwalk_walk`` in the library that ``streams`` builds from ``_hash.c``:
per walker and step it hashes the walk key, reads the field row at (k, its
position) with the compiled field read (:func:`environments.field_read`,
whose cell rule covers every field kind), steps by inverse CDF and sums the
drift.  The key words that all walkers of one field share at a step are
hashed once per field, so a batch in one field
hashes per walker only its noise cell and its field cell, and on the
level-correlated field reads one weight row per field and step.  Every other
walker (Gaussian laws, d >= 2, float positions, or no library) runs the
numpy steps: the walk noise in one hash call per block, then
:func:`environments.field_weights` at the walkers' positions step by
step.  They are the reference the compiled call matches bit for bit.

Quenched means come in two dual forms that cross-check each other: a Monte
Carlo mean over walks, and exact forward propagation of the full quenched
law over its reachable lattice support (dense vectorized version for d=1
fixed-support fields; a dictionary version for any lattice field, the
oracle the tests hold the dense one to).  Exact propagation prunes mass
below ``PRUNE_MASS`` and renormalizes.  The dense version is one loop,
:func:`_propagate`, which yields the law after each step.  It keeps a
window centred at the origin, sized by an Azuma tail bound, which holds
for a martingale.  A quenched walk has local drifts, so its law can leave
the window also on a field whose annealed drift is 0; a step that would
drop more than ``PRUNE_MASS`` outside it is taken again on the whole next
support, which the law keeps from then on, rather than clipping the curve.
Each dense step (the field read, drift products and their row sum, the
law on the next support, the mass outside the window, pruning and
renormalization) is one call of ``envwalk_propagate`` in the library that
``streams`` builds from ``_hash.c``.  Per replica row it reads only the
live sites (from the first to the last mass that is not an exact zero), a
tile at a time: one pass hashes their cells, one forms each site's weight
row itself (:func:`environments.field_read`), its products and its drift
product, so no weight array is built.  The next law is gathered site by
site, pruned as it is written, and divided by its sum unless that sum is
exactly 1.  Without that library a step is
:func:`environments.field_weights`, then :func:`_numpy_step`, the
reference the compiled step matches bit for bit, numpy's pairwise row sums
included.  Both write the law into the same
pair of buffers.  On the level-correlated field the exact means are a
closed form, the running sums of per-level drifts, whose rows one
``envwalk_field_weights`` call reads.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .environments import Environment, field_read, field_weights, query
from .families import has_fixed_support, integer_support, lattice_stride, row_drifts
from .jumplaws import Gaussian, gaussian_factor, gaussian_step, law_sample, sample_uniform_count
from .streams import (
    TAG_WALK,
    StreamKey,
    derive_seeds_vec,
    lanes_for_cells,
    seed_lanes,
    uniforms_at,
)

__all__ = [
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

# Walker-steps per block: an iterated batch of w walkers steps max(1, this //
# w) steps at a time, one compiled call, and the numpy steps draw the walk
# noise of that many steps in one hash call.  Larger blocks save little call
# overhead and cost memory.
_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True, eq=False)
class QuenchedMeanCurve:
    """E^w_0[X_n] on a grid of n, with per-n standard errors (identically
    zero for the exact propagated law; sample SD / sqrt(M) for a mean over
    walks)."""

    means: np.ndarray
    standard_errors: np.ndarray


def quenched_step(env: Environment, n: int, x, key: StreamKey) -> np.ndarray:
    """One transition of the walk at time ``n`` from ``x`` under ``env``, its noise from ``key``."""
    law = query(env, n, x)
    return np.atleast_1d(np.asarray(x, dtype=float)) + law_sample(law, key)


def simulate_quenched_path(
    env: Environment, n_steps: int, walk_seed: int, x0=None, subcell: tuple[int, ...] = ()
) -> np.ndarray:
    """Positions X_0..X_N of a walk of N = ``n_steps`` steps in the fixed
    environment ``env``, shape (N+1, d).

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
        x = quenched_step(env, k, x, StreamKey(env.master_seed, k, (walk_seed, *subcell), TAG_WALK))
        positions[k + 1] = x
    return positions


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


class _Walker:
    """Lockstep batch of n quenched walks, for every law family and dimension.

    Positions have shape (n, d).  ``base_lanes`` are the seed lanes of one
    field or of F fields (``seed_lanes`` of a seed or of F seeds), and
    walker i reads field i // g, g = n / F: every walker reads the one field,
    or each run of g walkers its own.  Walker i draws its step-k noise from
    the walk key (its field's seed, level=k, cell=``walk_cells[i]``), walk
    cells of shape (n, words).  That is the key of
    :func:`simulate_quenched_path`, so every walker replays a scalar path
    draw for draw.  The step rule is chosen once per walker: a fixed-support
    family steps by inverse CDF on its support, with positions of the
    support's dtype, a Gaussian family around the cell's drift vector.
    Every step is taken in :meth:`_run`.  Iterating runs at most
    ``n_steps`` steps, a block of ``_BLOCK_ELEMENTS`` walker-steps at a
    time; :meth:`record` steps straight to each recorded step and writes a
    run of consecutive recorded steps into its result in place.

    A d=1 walk with integer atoms takes each run of steps (writing the
    positions after each, or none on the way to a recorded step) in one
    call of ``envwalk_walk`` (``_hash.c``), which reads the F fields through
    :func:`environments.field_read` and g.  The call hashes the key words a
    field's walkers share (its lanes, the tag, the level and the cell-word
    count) once per field and step, and per walker only the walker's own
    words; when g > 1 each tile of walkers reads one field, whose prefix and
    (with no cell word) one weight row it reads in place.  Every other
    walker runs the numpy steps of :meth:`_run`, which are also that call's
    reference.  A walker count that F does not divide, a start that
    the positions' dtype cannot hold exactly (1.7 on an integer support), or
    walk cells without a word, raise ``ValueError``.
    """

    def __init__(
        self, env: Environment, base_lanes, walk_cells: np.ndarray, x0, n_steps: int, accumulate_drift: bool = False
    ):
        fam = env.family
        if has_fixed_support(fam):  # one uniform a step (a Dirac row is one-hot: any u picks its atom)
            self.factor, self.support, self.n_uniforms = None, fam.support, 1
            dtype = self.support.dtype
        else:  # Gaussian laws, one covariance for every cell
            law = Gaussian(np.zeros(fam.d), fam.cov)
            self.factor, dtype, self.n_uniforms = gaussian_factor(law), float, sample_uniform_count(law)
        if not walk_cells.shape[-1]:
            raise ValueError("a walk key's cell holds at least the walk seed")
        self.env = env
        self.base = base_lanes
        self.wcells = walk_cells
        start = np.asarray(x0)
        pos = start.astype(dtype)
        inexact = start[pos != start]
        if inexact.size:
            raise ValueError(f"a walker with {np.dtype(dtype)} positions cannot start at {inexact[0]}")
        self.pos = np.array(np.broadcast_to(pos, (len(walk_cells), env.d)))
        # Each walker's sum of local drifts.
        self.drift = np.zeros(self.pos.shape) if accumulate_drift else None
        self.n_steps = n_steps
        self.k = 0
        self.compiled = streams._LIB is not None and dtype == np.int64 and env.d == 1
        self._bind()

    def _bind(self) -> None:
        """Walker i reads field i // g, g = n / F for the F fields of the
        base lanes.  The numpy steps read per-walker lanes (each field's
        repeated g times, or the one field's broadcast); the compiled block
        takes the field read, g, the walk cells (one contiguous array per
        cell word), positions and drift sums as addresses.  Made here once
        and again whenever the set of walkers changes."""
        fields = tuple(np.reshape(h, -1) for h in self.base)
        n, n_fields = len(self.pos), len(fields[0])
        g = n // n_fields if n_fields else 1
        if g * n_fields != n:
            raise ValueError(f"{n} walkers do not split evenly over {n_fields} fields")
        if not self.compiled:
            self.lanes = fields if n_fields == 1 or g == 1 else tuple(np.repeat(h, g) for h in fields)
            return
        read = field_read(self.env, fields)
        cells = np.ascontiguousarray(self.wcells.T, dtype=np.int64)
        support = np.ascontiguousarray(self.support[:, 0])
        scratch = np.empty(n * len(support))
        self.pos = np.ascontiguousarray(self.pos)
        drift = None if self.drift is None else self.drift.ctypes.data
        self._kernel_arrays = (read, cells, support, scratch)  # the memory the addresses point into
        self._kernel_args = (
            ctypes.addressof(read), n, g, TAG_WALK, cells.ctypes.data, len(cells), support.ctypes.data,
            self.pos.ctypes.data, drift, scratch.ctypes.data,
        )

    def _block_steps(self) -> int:
        """Steps a block holds: ``_BLOCK_ELEMENTS`` walker-steps, at least one step."""
        return max(1, _BLOCK_ELEMENTS // max(1, len(self.pos)))

    def step(self) -> np.ndarray:
        """Take the next block of b steps, k -> k + b; returns the positions
        after each of them, shape (b, n, d)."""
        out = np.empty((min(self._block_steps(), self.n_steps - self.k),) + self.pos.shape, self.pos.dtype)
        self._run(len(out), out)
        return out

    def _run(self, b: int, out: np.ndarray | None = None) -> None:
        """Take b steps, k -> k + b, writing the positions after each into
        ``out``, a C-contiguous (b, n, d) array of the positions' dtype, or
        nowhere.  A compiled walker takes them in one
        ``envwalk_walk`` call, none for b = 0.  The numpy steps draw the walk
        noise of a block of steps in one hash call, then read the field at
        the walkers' positions step by step."""
        if self.compiled:
            if b:
                streams._LIB.envwalk_walk(*self._kernel_args, self.k, b, None if out is None else out.ctypes.data)
                self.k += b
            return
        k0, stop = self.k, self.k + b
        while self.k < stop:
            levels = np.arange(self.k, min(stop, self.k + self._block_steps()))[:, None]
            lanes = lanes_for_cells(self.lanes, levels, TAG_WALK, self.wcells)
            for u in uniforms_at((lanes[0][..., None], lanes[1][..., None]), np.arange(self.n_uniforms)):
                rows = field_weights(self.env, self.lanes, self.k, self.pos)
                if self.drift is not None:
                    self.drift += row_drifts(self.env.family, rows)
                if self.factor is None:
                    move = np.take(self.support, _row_atomic_index(rows, u[..., 0]), axis=0)
                else:
                    move = gaussian_step(rows, self.factor, u)
                self.pos = np.add(self.pos, move, out=None if out is None else out[self.k - k0])
                self.k += 1

    def __iter__(self):
        """Yields (k0, the positions after steps k0 + 1 .. k0 + b), one block
        of b steps at a time, until ``n_steps`` or the last walker."""
        while self.k < self.n_steps and len(self.pos):
            k0 = self.k
            yield k0, self.step()

    def record(self, record_steps=None) -> tuple[np.ndarray, np.ndarray]:
        """Run all ``n_steps`` steps; positions at ``record_steps`` (each in 0
        .. ``n_steps``; every step by default), shape (len, n, d).  The
        walker steps straight to each distinct recorded step in turn, the
        last step included, writing no positions on the way, and copies its
        positions there; the consecutive recorded steps after it are written
        into the result in place, in one run of steps."""
        record = np.arange(self.n_steps + 1) if record_steps is None else np.asarray(record_steps)
        steps = record.tolist()
        # A sorted set, not np.unique, whose first call imports numpy.ma.
        stops = sorted({*steps, self.n_steps})
        if stops[0] < 0 or stops[-1] > self.n_steps:
            raise ValueError(f"recorded steps lie in 0 .. {self.n_steps}; got {stops[0]} .. {stops[-1]}")
        kept = np.empty((len(stops),) + self.pos.shape, dtype=self.pos.dtype)
        i = 0
        while i < len(stops):
            self._run(stops[i] - self.k)
            kept[i] = self.pos
            # The consecutive stops after it, written in place.
            end = i + 1
            while end < len(stops) and stops[end] == stops[end - 1] + 1:
                end += 1
            self._run(end - i - 1, kept[i + 1 : end])
            i = end
        return record, kept if steps == stops else kept[np.searchsorted(stops, record)]


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
    (len(record_steps), M, d), the layout of :func:`simulate_quenched_path`
    (integers on an integer support, floats otherwise); drift_sums is the
    per-walker sum of local drifts along the path, shape (M, d), or None
    unless requested.  Draw-for-draw identical to
    :func:`simulate_quenched_path`.
    """
    walk_seeds = np.asarray(walk_seeds, dtype=np.int64)
    cells = np.column_stack([walk_seeds] + [np.full(walk_seeds.shape[0], s, dtype=np.int64) for s in subcell])
    walker = _Walker(env, seed_lanes(env.master_seed), cells, x0, n_steps, accumulate_drift)
    return (*walker.record(record_steps), walker.drift)


def batch_averaged_positions(env_template: Environment, n_steps: int, replicas: np.ndarray, record_steps=None):
    """Vectorized averaged walks from the origin: replica i walks in its own fresh field.

    Positions have shape (len(record_steps), M, d); replica r is draw for
    draw ``simulate_quenched_path(env_replica(env_template, r), n_steps, r)``.
    """
    replicas = np.asarray(replicas, dtype=np.int64)
    base = seed_lanes(derive_seeds_vec(env_template.master_seed, replicas))
    return _Walker(env_template, base, replicas[:, None], 0, n_steps).record(record_steps)


# ---------------------------------------------------------------------------
# Quenched means: Monte Carlo and exact propagation.
# ---------------------------------------------------------------------------


def quenched_mean_mc(env: Environment, n_grid, n_walks: int) -> QuenchedMeanCurve:
    """Monte Carlo quenched means over ``n_walks`` independent walks."""
    n_grid = np.asarray(n_grid, dtype=np.int64)
    _, positions, _ = batch_quenched_positions(env, int(n_grid.max()), np.arange(n_walks), record_steps=n_grid)
    x = positions.astype(float)
    return QuenchedMeanCurve(x.mean(axis=1), x.std(axis=1, ddof=1) / math.sqrt(n_walks))


def quenched_mean_exact(env: Environment, n_max: int, support_cap: int = SUPPORT_CAP) -> QuenchedMeanCurve:
    """Exact quenched means from the origin by propagating the full quenched law.

    Works for any dimension and any family with integer atoms
    (:func:`families.integer_support`).  Mass below ``PRUNE_MASS`` is dropped
    and the law renormalized; exceeding ``support_cap`` lattice points raises.
    """
    integer_support(env.family)
    state: dict[tuple[int, ...], float] = {(0,) * env.d: 1.0}
    means = np.zeros((n_max + 1, env.d))
    for k in range(n_max):
        new: dict[tuple[int, ...], float] = {}
        drift = np.zeros(env.d)
        for site, mass in state.items():
            law = query(env, k, np.asarray(site, dtype=float))
            pts, w = np.asarray(law.points).astype(np.int64), np.asarray(law.weights)
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
    return QuenchedMeanCurve(means, np.zeros_like(means))


def exact_mean_curves(env_template: Environment, n_max: int, replica_seeds: np.ndarray) -> np.ndarray:
    """Exact quenched-mean curves for many environment replicas at once.

    Returns means of shape (n_replicas, n_max + 1) for d=1 fixed-support
    fields starting at 0: the dense-window twin of
    :func:`quenched_mean_exact`, vectorized across replicas, from the steps
    of :func:`_propagate`, which keeps the whole support once the walk's
    local drifts carry a replica's law past its window's Azuma bound.  The
    level-correlated field (whose field
    read has no cell word) has one row per level at every site, so each
    curve is the running sum of its per-level drifts.
    """
    integer_support(env_template.family)
    seeds = np.asarray(replica_seeds, dtype=np.uint64)
    base = seed_lanes(seeds)
    read = field_read(env_template, base)
    means = np.zeros((len(seeds), n_max + 1))
    if not read.cell_words:
        drifts = row_drifts(env_template.family, _level_rows(env_template, base, read, n_max))[..., 0]
        np.cumsum(drifts.T, axis=1, out=means[:, 1:])
        return means
    for _ in _propagate(env_template, base, read, means):
        pass
    return means


def _level_rows(env, base, read, n_levels) -> np.ndarray:
    """Each replica's weight rows at the origin at levels 0 .. n_levels - 1,
    (n_levels, m, n_atoms): one ``envwalk_field_weights`` call through the
    field read ``read``, or :func:`field_weights` without the library."""
    if streams._LIB is None:
        return field_weights(env, base, np.arange(n_levels)[:, None], np.zeros(1, np.int64))
    m = len(base[0])
    origin = np.zeros(m, np.int64)
    rows = np.empty((n_levels, m, read.n_atoms))
    streams._LIB.envwalk_field_weights(ctypes.addressof(read), 0, n_levels, m, origin.ctypes.data, rows.ctypes.data)
    return rows


def _propagate(env, base, read, means):
    """Propagate each replica's quenched law from the origin, step by step.

    ``base`` holds the m replicas' seed lanes and ``read`` their field read
    (:func:`environments.field_read`); step k sets ``means[:, k + 1]`` in the
    C-contiguous (m, n_max + 1) array ``means``.  Each step scatters the law
    onto its full next support and keeps the slice inside an Azuma window
    centred at the origin, which bounds a martingale.  A quenched walk has
    local drifts, so its law can cross the window: a step that would drop
    more than ``PRUNE_MASS`` of a replica's law outside it is taken again on
    the whole next support, which the law keeps from then on.  After step k
    this yields (k, lo, law): the (m, n_pos) law on the sites lo + st * j,
    a view that the next step overwrites.

    The law lives in one pair of buffers that take turns, of ``n_cap +
    span`` sites a row; they grow to hold the whole support only when the
    law first crosses the window, so a run that never does keeps its
    windows and its bytes.  With the compiled library a step is one
    ``envwalk_propagate`` call (``_hash.c``), which reads the field and moves
    the law in a few passes per replica row; without it,
    :func:`environments.field_weights` reads the sites and
    :func:`_numpy_step`, the reference that call matches bit for bit, moves
    the law.
    """
    fam = env.family
    st = lattice_stride(fam)
    support = np.ascontiguousarray(fam.support[:, 0], dtype=np.float64)
    m, n_max = means.shape[0], means.shape[1] - 1
    smax = int(np.abs(support).max())
    s_lo = int(support.min())
    offsets = ((support - s_lo) // st).astype(np.intp)
    span = int(offsets.max())

    def window(k):  # the half-width of the window after step k + 1
        return min(smax * (k + 1), int(_WINDOW_C * smax * math.sqrt(k + 1)) + smax + 2)

    def allocate(n_cap):
        """The law buffers for n_cap sites before a step, the compiled step's
        weight rows of one replica row, and the addresses of all three."""
        laws = np.empty((2, m * (n_cap + span)))
        row_weights = np.empty(n_cap * len(offsets))
        return laws, row_weights, (laws[0].ctypes.data, laws[1].ctypes.data, row_weights.ctypes.data)

    # Sites before a step: at most span more than the step before, at most
    # the window's.  row_weights is the memory buffers[2] points into.
    laws, row_weights, buffers = allocate(min(1 + span * n_max, 2 * window(n_max - 1) // st + 1))
    laws[0, :m] = 1.0  # the point mass at the origin, one site a row
    lib = streams._LIB
    if lib is None:
        base = (base[0][:, None], base[1][:, None])  # each replica's lanes against its row of sites
    else:  # the addresses the compiled step takes besides the buffers'
        read_at, support_at, offsets_at, means_at = (
            ctypes.addressof(read), support.ctypes.data, offsets.ctypes.data, means.ctypes.data
        )
    # The law before step k: n_pos sites lo + st * j, at column `at` of rows `ms` apart in laws[k % 2].
    law, lo, n_pos, at, ms = laws[0, :m, None], 0, 1, 0, 1
    whole = False  # whether the law has crossed the window and keeps its whole support
    for k in range(n_max):
        full_lo, n_full, nxt = lo + s_lo, n_pos + span, (k + 1) % 2
        if whole:
            i0, i1 = 0, n_full
        else:  # the window [-win, win] on the full next support, lo + s_lo + st * j
            win = window(k)
            # 0 <= i0 <= i1 <= n_full also where the law has left the window whole.
            i0 = min(n_full, max(0, -((win + full_lo) // st)))
            i1 = max(i0, min(n_full, (win - full_lo) // st + 1))
        while True:
            full = laws[nxt, : m * n_full].reshape(m, n_full)
            if lib is None:
                w = field_weights(env, base, k, (lo + st * np.arange(n_pos))[:, None])  # (m, n_pos, n_atoms)
                dropped = _numpy_step(fam, law, w, offsets, i0, i1, means[:, k:], full)
            else:
                dropped = lib.envwalk_propagate(
                    read_at, k, lo, st, m, n_pos, buffers[1 - nxt] + 8 * at, ms, support_at, offsets_at, n_full,
                    i0, i1, PRUNE_MASS, buffers[nxt], means_at + 8 * k, n_max + 1, buffers[2],
                )
            if dropped <= PRUNE_MASS:
                break
            # The law crosses the window: take this step again on the whole
            # next support, in buffers that hold the whole support to the end.
            grown, row_weights, buffers = allocate(1 + span * n_max)
            moved = grown[1 - nxt, : m * ms].reshape(m, ms)[:, at : at + n_pos]
            moved[...] = law
            laws, law, whole, i0, i1 = grown, moved, True, 0, n_full
        # The next law is columns [i0, i1) of the (m, n_full) array just written.
        law, lo, n_pos, at, ms = full[:, i0:i1], full_lo + st * i0, i1 - i0, i0, n_full
        yield k, lo, law


def _numpy_step(fam, mass, w, offsets, i0, i1, means, full) -> float:
    """One dense propagation step in numpy.

    ``mass`` (m, n_pos) is the law on the current sites and ``w`` their weight
    rows.  Sets ``means[:, 1]`` from ``means[:, 0]``, scatters the law onto its
    full next support in ``full`` (m, n_full), atoms in support order, and
    prunes and renormalizes its columns [i0, i1).  Returns the largest mass
    outside them.
    """
    # Mean recursion: E[X_{k+1}] = E[X_k] + sum_x mass(x) * drift(x).
    means[:, 1] = means[:, 0] + (mass * row_drifts(fam, w)[..., 0]).sum(axis=1)
    n_pos = mass.shape[1]
    full.fill(0.0)
    for a, off in enumerate(offsets.tolist()):
        full[:, off : off + n_pos] += mass * w[:, :, a]
    dropped = full[:, :i0].sum(axis=1) + full[:, i1:].sum(axis=1)
    kept = full[:, i0:i1]
    kept[kept < PRUNE_MASS] = 0.0
    kept /= kept.sum(axis=1, keepdims=True)
    return dropped.max(initial=0.0)


def _x1_samples(env_template: Environment, n_env: int, n_walk: int) -> np.ndarray:
    """One-step positions under the averaged law, shape (n_env * n_walk, d):
    walks 0 .. n_walk - 1 in each of n_env fresh fields."""
    base = seed_lanes(derive_seeds_vec(env_template.master_seed, np.arange(n_env)))
    walker = _Walker(env_template, base, np.tile(np.arange(n_walk), n_env)[:, None], 0, 1)
    walker._run(1)
    return walker.pos.astype(float)


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
