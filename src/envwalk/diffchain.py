"""Two-walk difference chains and their exit/excursion statistics.

``same_env`` runs two independent walks in one shared field and tracks
Y_k = X~_k - X_k: because the field correlates the walks whenever they are
close, Y is a Markov chain and not a free walk.  ``independent_env`` runs
the second walk in its own fresh field, which makes Ybar_k = Xhat_k - X_k a
genuine symmetric random walk; it is the comparison object for everything Y
does far from the origin.

The analytics quantify how long Y lingers near coincidence: first exit
times from centered boxes, lengths of excursions away from a box and total
occupation time of slowly growing boxes.  Each is one loop over a batch
of pairs, ``for k0, y in walker``: the pair walker yields Y after each step
of a block, shape (b, live pairs), the scans read the block vectorized
along the step axis, and the pairs a scan has settled retire once per
block.  Where the compiled library loads, a block of pairs with integer
steps is one call of ``envwalk_walk`` on every field kind (see ``walks``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .environments import Environment
from .stats import InsufficientDataError, ScanCurve, with_fit
from .streams import derive_seeds_vec, seed_lanes
from .walks import _Walker, simulate_quenched_path

__all__ = [
    "SAME_ENV",
    "INDEPENDENT_ENV",
    "ExcursionRecord",
    "ExitTimeScan",
    "ExcursionScan",
    "simulate_diff_chain",
    "batch_diff_positions",
    "exit_time_scan",
    "excursion_record",
    "excursion_scan",
    "occupation_time",
]

SAME_ENV = "same_env"
INDEPENDENT_ENV = "independent_env"


@dataclass(frozen=True, eq=False)
class ExcursionRecord:
    """Alternating entrance/exit times of one replica around a box.

    ``entries[0] == 0`` (the chain starts inside); ``exits[j]`` is the j-th
    departure and ``entries[j+1]`` the following return, so excursion j has
    length ``entries[j+1] - exits[j] >= 1``.
    """

    entries: np.ndarray
    exits: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        k = min(len(self.entries) - 1, len(self.exits))
        return self.entries[1 : k + 1] - self.exits[:k]


def _pair_seeds(env_template: Environment, replicas: np.ndarray, kind: str):
    if kind == SAME_ENV:
        seeds = derive_seeds_vec(env_template.master_seed, replicas)
        return seeds, seeds
    if kind == INDEPENDENT_ENV:
        a = derive_seeds_vec(env_template.master_seed, replicas, np.zeros_like(replicas))
        b = derive_seeds_vec(env_template.master_seed, replicas, np.ones_like(replicas))
        return a, b
    raise ValueError(f"unknown difference-chain kind {kind!r}")


def simulate_diff_chain(
    env_template: Environment, x0, n_steps: int, kind: str, replica: int
) -> np.ndarray:
    """Y_0..Y_N of one difference chain, shape (N+1, d): walk X from the
    origin, walk X~ from x0.

    Replica ``i`` uses its own fresh field(s); the two walks draw disjoint
    noise streams even when they share the field.
    """
    seed_a, seed_b = _pair_seeds(env_template, np.array([replica]), kind)
    env_a, env_b = (replace(env_template, master_seed=int(s[0])) for s in (seed_a, seed_b))
    xa = simulate_quenched_path(env_a, n_steps, walk_seed=replica, subcell=(0,))
    xb = simulate_quenched_path(env_b, n_steps, walk_seed=replica, subcell=(1,), x0=x0)
    return xb - xa


def _pairs(env_template: Environment, replicas: np.ndarray, x0, kind: str):
    """The (X, X~) pairs of a difference chain as walker arguments: base lanes,
    walk cells (replica, walk) and starts, one field and one walker each.

    Pair i is walkers 2i, the X walk (from 0), and 2i + 1, the X~ walk (from
    x0), each reading its own field (g = 1): both walkers' lanes are the
    replica's field under ``same_env``.  All stream keys match the scalar
    :func:`simulate_diff_chain` draw for draw.  The scans read Y = X~ - X
    as a scalar, so positions are (2 * replicas, 1).
    """
    if env_template.d != 1:
        raise ValueError(f"difference chains are one-dimensional; the field has d={env_template.d}")
    seeds_a, seeds_b = _pair_seeds(env_template, replicas, kind)
    base = seed_lanes(np.stack([seeds_a, seeds_b], axis=1).reshape(-1))
    wcells = np.stack([np.repeat(replicas, 2), np.tile(np.array([0, 1], np.int64), replicas.size)], axis=1)
    x0 = np.broadcast_to(np.asarray(x0), replicas.shape)
    return base, wcells, np.stack([np.zeros_like(x0), x0], axis=1).reshape(-1, 1)


def _y(pos: np.ndarray) -> np.ndarray:
    """Y = X~ - X of each pair from walker positions (..., 2 * pairs, 1):
    walker 2i + 1 less walker 2i."""
    return pos[..., 1::2, 0] - pos[..., ::2, 0]


class _PairWalker(_Walker):
    """Lockstep batch of (X, X~) pairs (:func:`_pairs`) for d=1 fields that
    retires the pairs a scan has settled.

    Pair i is walkers 2i and 2i + 1.  Stepping yields Y of the live pairs a
    block at a time; ``alive`` holds their row numbers in the batch, and
    :meth:`retire` drops settled pairs between blocks.  Every draw is keyed
    by its address, so a settled pair stepped on to the end of its block
    changes no other draw.
    """

    def __init__(self, env_template: Environment, replicas: np.ndarray, x0, kind: str, n_steps: int):
        replicas = np.asarray(replicas, dtype=np.int64)
        super().__init__(env_template, *_pairs(env_template, replicas, x0, kind), n_steps)
        self.alive = np.arange(replicas.size)

    @property
    def y(self) -> np.ndarray:
        return _y(self.pos)

    def retire(self, done: np.ndarray) -> None:
        """Drop the live pairs flagged in ``done``."""
        if not done.any():
            return
        # ``np.take``: indexing by a mask or an index array copies these arrays several times slower.
        keep = np.flatnonzero(~done)
        walkers = (2 * keep[:, None] + np.arange(2)).reshape(-1)
        self.alive = np.take(self.alive, keep)
        self.pos, self.wcells = (np.take(a, walkers, axis=0) for a in (self.pos, self.wcells))
        self.base = tuple(np.take(lane, walkers) for lane in self.base)
        self._bind()

    def step(self) -> np.ndarray:
        """Take the next block of b steps; returns Y of the live pairs after each, (b, live)."""
        return _y(super().step())


def batch_diff_positions(
    env_template: Environment,
    n_steps: int,
    replicas: np.ndarray,
    x0=0,
    kind: str = SAME_ENV,
    record_steps=None,
):
    """Vectorized difference chains; Y values at the recorded steps, (len, M)."""
    record, pos = _PairWalker(env_template, replicas, x0, kind, n_steps).record(record_steps)
    return record, _y(pos)


# ---------------------------------------------------------------------------
# Exit times, excursions, occupation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExitTimeScan:
    """Mean first-exit times versus box radius.

    Capped replicas (no exit within the step cap) are excluded from the
    means and surfaced in ``capped_fraction``; radii where every replica
    capped report NaN.
    """

    curve: ScanCurve
    capped_fraction: np.ndarray
    exit_steps: np.ndarray


def exit_time_scan(
    env_template: Environment,
    r_grid,
    replicas: int,
    step_cap: int = 10**6,
    kind: str = SAME_ENV,
    x0: int = 0,
) -> ExitTimeScan:
    """First-exit times of Y from [-r, r] over a radius grid.

    One batch of chains serves every radius (exits from nested boxes are
    ordered): a pair retires once it left the largest box, and stepping
    stops when none is left or at ``step_cap``.
    """
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    walker = _PairWalker(env_template, np.arange(replicas), x0, kind, step_cap)
    radii = r_grid[:, None]
    exit_steps = np.where(np.abs(walker.y) > radii, 0, -1)
    # The live pairs' columns, in walker order; a column goes back to
    # exit_steps when its pair retires, the survivors' at the cap.
    steps = exit_steps.copy()
    for k0, y in walker:
        # The first exit from each box within the block, k0 + 1 + its row.
        out = np.abs(y)[:, None, :] > radii  # (b, radii, live)
        first = np.where(out.any(axis=0), k0 + 1 + out.argmax(axis=0), -1)
        steps = np.where(steps < 0, first, steps)
        done = steps[-1] >= 0
        if done.any():
            exit_steps[:, walker.alive[done]] = steps[:, done]
            steps = np.take(steps, np.flatnonzero(~done), axis=1)
            walker.retire(done)
    exit_steps[:, walker.alive] = steps

    means = np.full(len(r_grid), np.nan)
    ses = np.full(len(r_grid), np.nan)
    capped_fraction = np.empty(len(r_grid))
    for j in range(len(r_grid)):
        steps = exit_steps[j]
        completed = steps[steps >= 0].astype(float)
        capped_fraction[j] = 1.0 - completed.size / replicas
        if completed.size >= 2:
            means[j] = completed.mean()
            ses[j] = completed.std(ddof=1) / math.sqrt(completed.size)
    curve = with_fit(ScanCurve(r_grid, means, ses))
    return ExitTimeScan(curve, capped_fraction, exit_steps)


@dataclass(frozen=True, eq=False)
class ExcursionScan:
    """Excursion lengths of Y outside the box [-radius, radius].

    ``survival_curve`` tabulates P(length >= a) on dyadic a with binomial
    standard errors; ``tail_exponent`` is the fitted decay rate b of
    P(length >= a) ~ a^(-b) with its confidence interval.
    """

    box_radius: float
    lengths: np.ndarray
    n_incomplete: int
    survival_curve: ScanCurve
    tail_exponent: float
    tail_ci: tuple[float, float]


def excursion_record(values: np.ndarray, radius: float) -> ExcursionRecord:
    """Entrance/exit times of one chain around the closed box [-radius, radius].

    ``values`` is a (N+1,) or (N+1, 1) trajectory starting inside the box.
    """
    y = np.abs(np.asarray(values, dtype=float).reshape(len(values), -1)).max(axis=1)
    if y[0] > radius:
        raise ValueError("excursion bookkeeping starts inside the box")
    entries, exits = [0], []
    outside = False
    for k in range(1, len(y)):
        if not outside and y[k] > radius:
            exits.append(k)
            outside = True
        elif outside and y[k] <= radius:
            entries.append(k)
            outside = False
    return ExcursionRecord(np.asarray(entries), np.asarray(exits))


def excursion_scan(
    env_template: Environment,
    horizon: int,
    eps: float,
    replicas: int,
    kind: str = SAME_ENV,
) -> ExcursionScan:
    """Excursion-length statistics for the box of radius horizon**eps.

    Runs every chain for ``horizon`` steps from Y_0 = 0, collects complete
    excursion lengths (exit to next entrance), and fits the survival tail
    on dyadic lengths up to sqrt(horizon): dropping still-open excursions
    censors longer lengths and would bias the tail steep.  Fewer than 10
    complete excursions raises InsufficientDataError.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    radius = float(horizon) ** eps
    walker = _PairWalker(env_template, np.arange(replicas), 0, kind, horizon)
    # Y_k is outside the box exactly when |Y_k| > radius; an excursion runs
    # from a step outside after one inside to the next step inside.
    outside = np.zeros(replicas, dtype=bool)
    out_step = np.zeros(replicas, dtype=np.int64)
    lengths: list[np.ndarray] = []
    for k0, y in walker:
        o = np.abs(y) > radius  # (b, replicas)
        before = np.concatenate([outside[None], o[:-1]])
        k = np.arange(k0 + 1, k0 + 1 + len(o))[:, None]
        # The step of each pair's latest departure, up to each step of the block.
        left = np.maximum.accumulate(np.concatenate([out_step[None], np.where(o & ~before, k, 0)]), axis=0)[1:]
        returning = ~o & before
        if returning.any():  # in (return step, pair) order
            lengths.append((k - left)[returning])
        outside, out_step = o[-1], left[-1]
    all_lengths = np.concatenate(lengths) if lengths else np.empty(0, dtype=np.int64)
    n_incomplete = int(outside.sum())
    if all_lengths.size < 10:
        raise InsufficientDataError(
            f"only {all_lengths.size} complete excursions (need >= 10); "
            f"radius={radius:.3g}, horizon={horizon}"
        )
    a_max = min(float(all_lengths.max()), math.sqrt(horizon))
    a_grid = 2 ** np.arange(0, max(2, int(math.log2(a_max)) + 1))
    n = all_lengths.size
    surv = np.array([(all_lengths >= a).mean() for a in a_grid])
    ses = np.sqrt(np.clip(surv * (1.0 - surv), 0.0, None) / n)
    curve = with_fit(ScanCurve(a_grid.astype(float), surv, ses))
    if curve.fit is None:
        raise InsufficientDataError("excursion tail fit has too few usable points")
    tail = -curve.fit.exponent
    ci = (-curve.fit.ci_high, -curve.fit.ci_low)
    return ExcursionScan(radius, all_lengths, n_incomplete, curve, tail, ci)


def occupation_time(
    env_template: Environment,
    n_grid,
    eps: float,
    replicas: int,
    kind: str = SAME_ENV,
) -> ScanCurve:
    """Mean time Y spends in [-n^eps, n^eps] during its first n steps.

    One batch serves the whole grid; per grid point n the box radius is
    n**eps, so the growth exponent of the curve is the occupation exponent.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n_grid = np.sort(np.asarray(n_grid, dtype=np.int64))
    radii = n_grid.astype(float) ** eps
    # Y_0 .. Y_{n_max - 1} are read: Y_0, then n_max - 1 steps.
    n_max = int(n_grid.max())
    walker = _PairWalker(env_template, np.arange(replicas), 0, kind, n_max - 1)
    # Grid point g counts step k of a pair when k < n_g and |Y_k| <= r_g.
    # Both n_g and r_g grow with g, so the grid points that count a step are
    # those from the later of the first g with n_g > k and the first g with
    # r_g >= |Y_k| on (len(n_grid) when none does).  Each step adds 1 at
    # that index in its pair's histogram column; a cumulative sum over the
    # grid axis then gives the counts.  first_r[v] is the first g with
    # r_g >= v, for v up to twice the largest |Y| seen: it grows with the
    # walk, not with the radii, which n**eps leaves unbounded.  A Y off the
    # integers (float positions) has no table entry and searches the radii.
    pair = np.arange(replicas)
    hist = np.zeros((len(n_grid) + 1) * replicas, dtype=np.int64)
    first_r = np.zeros(0, dtype=np.int64)
    for k0, y in itertools.chain([(-1, walker.y[None])], walker):
        ay = np.abs(y)
        if ay.dtype.kind == "f":
            first_ay = np.searchsorted(radii, ay, "left")
        else:
            top = int(ay.max())
            if top >= first_r.size:
                first_r = np.searchsorted(radii, np.arange(2 * top + 1), "left")
            first_ay = first_r[ay]
        first_n = np.searchsorted(n_grid, np.arange(k0 + 1, k0 + 1 + len(y)), "right")
        first = np.maximum(first_n[:, None], first_ay, out=first_ay)  # (b, pairs)
        first *= replicas
        first += pair
        hist += np.bincount(first.ravel(), minlength=hist.size)
    counts = np.cumsum(hist.reshape(-1, replicas), axis=0)[:-1]
    est = counts.mean(axis=1)
    ses = counts.std(axis=1, ddof=1) / math.sqrt(replicas)
    return with_fit(ScanCurve(n_grid.astype(float), est, ses))
