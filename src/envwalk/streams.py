"""Keyed counter-based uniform streams.

Every random quantity in this package is a pure function of a
:class:`StreamKey` ``(master_seed, level, cell, tag)`` and a draw index.
There is no hidden generator state: the ``i``-th variate of a stream can be
computed directly, in any order, from any process, and always comes out the
same.  This is what makes environments re-queryable, walks replayable and
parallel reductions worker-count independent.

The generator itself is a two-lane keyed hash: the key fields are absorbed
sponge-style into two independent 64-bit lanes (SplitMix64 finalizer on lane
one, Murmur3 ``fmix64`` on lane two), and output word ``i`` is the XOR of the
two lane streams evaluated at counter ``i``.  Each lane on its own is a
full-avalanche counter generator; the XOR gives 128 bits of effective key
material so that key collisions are out of reach at any realistic scale.
Not cryptographic, and not meant to be.

The batched hot paths, :func:`lanes_for_cells` and :func:`words_at` /
:func:`uniforms_at`, run in a small C kernel (``_hash.c``), loaded with
``ctypes``; the same library holds the dense propagation step of
:func:`walks.exact_mean_curves` (``_LIB.envwalk_propagate``) and the walker
block of ``walks._Walker`` (``_LIB.envwalk_walk``), which hash the field's
cells and the walk keys themselves with the same mixers
(:class:`FieldRead`).  The first
import compiles it with ``cc -O3 -ffp-contract=off -shared -fPIC`` into
``__pycache__`` next to this file (or, where that cannot be written, into
``~/.cache/envwalk``) under a name that hashes the source, the flags and the
platform, so every later interpreter loads the cached file.  The numpy
mixers below (``_mix1``, ``_mix2``, :func:`absorb`) are the reference: the
scalar paths (:meth:`StreamKey.lanes`, :func:`seed_lanes`,
:func:`derive_seed`) use them, the parity tests pin the kernel to them bit
for bit, and the batched paths fall back to them when there is no compiler
or the library does not build or load.  Both give the same bits.

The numpy paths work on uint64 ndarrays (numpy wraps array arithmetic
silently; scalar arithmetic would warn on overflow).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "StreamKey",
    "UniformStream",
    "derive_stream",
    "derive_seed",
    "TAG_ENV",
    "TAG_OFFSET",
    "TAG_WALK",
    "TAG_DERIVE",
    "TAG_BOOT",
]

# Stream purpose discriminators.  Environment law parameters, the per-field
# lattice offset, walk-step noise, seed derivation and bootstrap resampling
# never share a key.
TAG_ENV = 0
TAG_OFFSET = 1
TAG_WALK = 2
TAG_DERIVE = 3
TAG_BOOT = 4
TAG_DITHER = 5

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# SplitMix64 finalizer constants (lane 1) and Murmur3 fmix64 (lane 2).
_M1A = 0xBF58476D1CE4E5B9
_M1B = 0x94D049BB133111EB
_M2A = 0xFF51AFD7ED558CCD
_M2B = 0xC4CEB9FE1A85EC53

# Weyl increments for the two output counters and the absorption offset.
_GAMMA1 = 0x9E3779B97F4A7C15
_GAMMA2 = 0xC2B2AE3D27D4EB4F

# Lane initialization vectors (hex digits of pi).
_IV1 = 0x243F6A8885A308D3
_IV2 = 0x452821E638D01377

_INV_2_53 = float(2.0**-53)


def _u64(x) -> np.ndarray:
    """Coerce ints / int arrays to uint64 ndarrays (two's complement)."""
    a = np.asarray(x)
    if a.dtype == np.uint64:
        return a
    return a.astype(np.int64, copy=False).view(np.uint64) if a.dtype.kind == "i" else a.astype(np.uint64)


def _mix1(z: np.ndarray) -> np.ndarray:
    # errstate: uint64 wraparound is the point; 0-d operands would warn.
    with np.errstate(over="ignore"):
        z = z ^ (z >> _U64(30))
        z = z * _U64(_M1A)
        z = z ^ (z >> _U64(27))
        z = z * _U64(_M1B)
        return z ^ (z >> _U64(31))


def _mix2(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = z ^ (z >> _U64(33))
        z = z * _U64(_M2A)
        z = z ^ (z >> _U64(33))
        z = z * _U64(_M2B)
        return z ^ (z >> _U64(33))


def seed_lanes(master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial lane pair for a 64-bit master seed (0-d uint64 arrays)."""
    s = _u64(np.asarray(int(master_seed) & _MASK64, dtype=np.uint64))
    return _mix1(s ^ _U64(_IV1)), _mix2(s ^ _U64(_IV2))


def absorb(lanes: tuple[np.ndarray, np.ndarray], word) -> tuple[np.ndarray, np.ndarray]:
    """Fold one key word (int or broadcastable int array) into both lanes."""
    w = _u64(word)
    h1, h2 = lanes
    with np.errstate(over="ignore"):
        a1, a2 = h1 ^ (w + _U64(_GAMMA1)), h2 ^ (w + _U64(_GAMMA2))
    return _mix1(a1), _mix2(a2)


def _words(lanes: tuple[np.ndarray, np.ndarray], index) -> np.ndarray:
    i = _u64(index) + _U64(1)
    h1, h2 = lanes
    with np.errstate(over="ignore"):
        a1, a2 = h1 + i * _U64(_GAMMA1), h2 + i * _U64(_GAMMA2)
    return _mix1(a1) ^ _mix2(a2)


def words_at(lanes: tuple[np.ndarray, np.ndarray], index) -> np.ndarray:
    """Raw 64-bit output words at the given draw indices (broadcast)."""
    if _LIB is not None:
        return _kernel_words(_LIB.envwalk_words, np.uint64, lanes, index)
    return _words(lanes, index)


def uniforms_at(lanes: tuple[np.ndarray, np.ndarray], index) -> np.ndarray:
    """Uniform [0,1) variates at the given draw indices (broadcast)."""
    if _LIB is not None:
        return _kernel_words(_LIB.envwalk_uniforms, np.float64, lanes, index)
    return (_words(lanes, index) >> _U64(11)).astype(np.float64) * _INV_2_53


@dataclass(frozen=True)
class StreamKey:
    """Address of one uniform stream.

    master_seed: 64-bit run seed; level: time coordinate; cell: spatial
    cell index tuple (any length); tag: purpose discriminator.  Equal keys
    give identical streams; any single-field difference gives a
    statistically independent stream.
    """

    master_seed: int
    level: int
    cell: tuple[int, ...]
    tag: int

    def lanes(self) -> tuple[np.ndarray, np.ndarray]:
        lanes = seed_lanes(self.master_seed)
        lanes = absorb(lanes, self.tag)
        lanes = absorb(lanes, self.level)
        lanes = absorb(lanes, len(self.cell))
        for c in self.cell:
            lanes = absorb(lanes, c)
        return lanes


def seed_lanes_vec(master_seeds) -> tuple[np.ndarray, np.ndarray]:
    """Initial lane pairs for an array of master seeds."""
    s = _u64(np.asarray(master_seeds))
    return _mix1(s ^ _U64(_IV1)), _mix2(s ^ _U64(_IV2))


def lanes_for_cells(
    base_lanes: tuple[np.ndarray, np.ndarray],
    level: int,
    tag: int,
    cells: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lane pairs for cells under shared or per-row base lanes.

    ``cells`` has shape (..., d) with d >= 0: a 1-d array is one cell.
    ``base_lanes`` must broadcast against ``cells[..., j]``.  Entry by entry
    the result is bit-identical to ``StreamKey(seed, level, cell, tag).lanes()``.
    """
    cells = np.asarray(cells)
    if _LIB is not None:
        return _kernel_lanes(base_lanes, level, tag, cells)
    d = cells.shape[-1]
    lanes = absorb(base_lanes, tag)
    lanes = absorb(lanes, level)
    lanes = absorb(lanes, d)
    for j in range(d):
        lanes = absorb(lanes, cells[..., j])
    return lanes


def key_lanes(
    master_seed: int, level: int, tag: int, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lane pairs for many cells sharing (master_seed, level, tag)."""
    return lanes_for_cells(seed_lanes(master_seed), level, tag, cells)


def derive_seeds_vec(master_seed: int, *word_arrays) -> np.ndarray:
    """Vectorized :func:`derive_seed` over broadcastable index arrays."""
    lanes = seed_lanes(master_seed)
    lanes = absorb(lanes, TAG_DERIVE)
    lanes = absorb(lanes, len(word_arrays))
    for w in word_arrays:
        lanes = absorb(lanes, np.asarray(w))
    return words_at(lanes, 0)


class UniformStream:
    """Replayable uniform [0,1) stream for one key.

    ``take(n)`` consumes the next ``n`` variates; ``at(i, n)`` reads without
    consuming; ``reset()`` rewinds.  Output is a pure function of the key and
    the draw index, so interleaving with other streams changes nothing.
    """

    __slots__ = ("key", "_lanes", "_pos")

    def __init__(self, key: StreamKey):
        self.key = key
        self._lanes = key.lanes()
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def take(self, n: int) -> np.ndarray:
        out = uniforms_at(self._lanes, np.arange(self._pos, self._pos + n))
        self._pos += n
        return out

    def at(self, start: int, n: int = 1) -> np.ndarray:
        return uniforms_at(self._lanes, np.arange(start, start + n))

    def reset(self) -> None:
        self._pos = 0


def derive_stream(key: StreamKey) -> UniformStream:
    """Stateless-replayable uniform stream determined by ``key`` alone."""
    return UniformStream(key)


def derive_seed(master_seed: int, *words: int) -> int:
    """Derive a child 64-bit seed from a master seed and index words.

    Used to give replicas (environments, walk pairs) their own master seeds
    without any sequential generator state.
    """
    lanes = seed_lanes(master_seed)
    lanes = absorb(lanes, TAG_DERIVE)
    lanes = absorb(lanes, len(words))
    for w in words:
        lanes = absorb(lanes, w)
    return int(_words(lanes, 0))


# ---------------------------------------------------------------------------
# The compiled kernel (_hash.c) behind lanes_for_cells, words_at and uniforms_at,
# the dense propagation step of walks.exact_mean_curves and the walker block.
# ---------------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_hash.c")
# No floating-point contraction: a fused multiply-add rounds once where numpy
# rounds twice, and the propagation step must give numpy's bits.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _library_paths(name: str):
    """Where the compiled kernel is cached: the package's ``__pycache__``, then a per-user directory."""
    yield Path(__file__).parent / "__pycache__" / name
    try:
        yield Path.home() / ".cache" / "envwalk" / name
    except RuntimeError:  # no home directory
        return


def _build(target: Path) -> bool:
    """Compile the kernel to ``target``; False if there is no compiler, the
    directory cannot be written or the build fails."""
    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    if not os.access(target.parent, os.W_OK):
        return False
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([cc, *_CFLAGS, "-o", str(tmp), str(_KERNEL_SOURCE)], check=True, capture_output=True, timeout=600)
        # A rename is atomic: an import racing this one loads a whole library or builds its own.
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError):
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        return False
    return True


def _load_kernel():
    """The compiled kernel, built on first import and cached; None if it cannot be built or loaded."""
    try:
        source = _KERNEL_SOURCE.read_bytes()
    except OSError:
        return None
    build = f"{' '.join(_CFLAGS)} {sys.platform} {platform.machine()}".encode()
    paths = list(_library_paths(f"_hash-{hashlib.sha256(source + build).hexdigest()[:16]}.so"))
    path = next((p for p in paths if p.is_file()), None) or next((p for p in paths if _build(p)), None)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    size, step, word, ptr = ctypes.c_size_t, ctypes.c_ssize_t, ctypes.c_uint64, ctypes.c_void_p
    lib.envwalk_lanes.argtypes = (
        size, size, word, size, ptr, ptr, step, step, ptr, step, step, ptr, step, step, ptr, ptr
    )
    lib.envwalk_words.argtypes = lib.envwalk_uniforms.argtypes = (
        size, size, ptr, ptr, step, step, ptr, step, step, ptr, step, step
    )
    for fn in (lib.envwalk_lanes, lib.envwalk_words, lib.envwalk_uniforms):
        fn.restype = None
    site = (ptr, word, ctypes.c_int64, ctypes.c_int64, size, size)  # field, level, lo, st, rows, sites
    lib.envwalk_field_weights.argtypes = (*site, ptr)
    lib.envwalk_field_weights.restype = None
    lib.envwalk_propagate.argtypes = (
        *site, ptr, step, ptr, ptr, size, size, size, ctypes.c_double, ptr, ptr, step, ptr
    )
    lib.envwalk_propagate.restype = ctypes.c_double
    # field, shift level, x shift, walkers, walk tag, cells, cell words, support, positions, drift sums,
    # scratch, then the block's level, steps and out
    lib.envwalk_walk.argtypes = (
        ptr, word, ctypes.c_int64, size, word, ptr, size, ptr, ptr, ptr, ptr, word, size, ptr
    )
    lib.envwalk_walk.restype = None
    return lib


class FieldRead(ctypes.Structure):
    """``struct field`` of ``_hash.c``: the compiled field read of one field per row.

    ``b1`` and ``b2`` point at the rows' base lanes, ``thresholds`` and
    ``rows`` at float64 tables; the arrays must outlive the struct's use.
    """

    AFFINE, THRESHOLD, CONSTANT = range(3)
    _fields_ = [
        ("b1", ctypes.c_void_p),
        ("b2", ctypes.c_void_p),
        ("tag", ctypes.c_uint64),
        ("range", ctypes.c_double),
        ("kind", ctypes.c_int),
        ("n_atoms", ctypes.c_size_t),
        ("slope", ctypes.c_double),
        ("intercept", ctypes.c_double),
        ("n_rows", ctypes.c_size_t),
        ("thresholds", ctypes.c_void_p),
        ("rows", ctypes.c_void_p),
    ]


def _grid(*operands: tuple[tuple, int]) -> tuple[tuple, list[tuple[int, list[int]]]]:
    """The broadcast shape of C-contiguous operands, and the grid the kernel walks.

    Each operand is (shape, unit): ``unit`` elements make one entry (d for
    cells).  The grid is the broadcast shape as few axes as the operands
    allow: size-1 axes are dropped, and neighbouring axes merge wherever each
    operand, and a C-contiguous result, steps through the pair as through one
    axis.  An axis is (size, element strides of the operands then the
    result), a stride being 0 where that operand is broadcast.  At least two
    axes come back; the kernel walks the last two.
    """
    ndim = max(len(s) for s, _ in operands)
    shape = [1] * ndim
    strides = []
    for s, step in operands:
        st = [0] * ndim
        for axis in range(-1, -len(s) - 1, -1):
            n = s[axis]
            if n != 1:
                if shape[axis] not in (1, n):
                    raise ValueError(f"shapes {[s for s, _ in operands]} do not broadcast")
                shape[axis], st[axis] = n, step
                step *= n
        strides.append(st)
    axes: list[tuple[int, list[int]]] = []
    step = 1
    for axis in range(ndim - 1, -1, -1):
        n = shape[axis]
        if n == 1:
            continue
        st = [s[axis] for s in strides] + [step]
        step *= n
        if axes and all(p == q * axes[0][0] for p, q in zip(st, axes[0][1])):
            axes[0] = (n * axes[0][0], axes[0][1])
        else:
            axes.insert(0, (n, st))
    return tuple(shape), [(1, [0] * (len(operands) + 1))] * (2 - len(axes)) + axes


def _blocks(axes: list[tuple[int, list[int]]]):
    """Byte offsets of the operands and the result in each 2-d block that the
    grid's leading axes select (one block of offsets 0 for a 2-axis grid)."""
    outer = axes[:-2]
    if not outer:
        return [[0] * len(axes[0][1])]
    return [
        [8 * sum(i * st[k] for i, (_, st) in zip(index, outer)) for k in range(len(axes[0][1]))]
        for index in np.ndindex(*(n for n, _ in outer))
    ]


def _pair(lanes) -> tuple[np.ndarray, np.ndarray]:
    """Lane arrays as uint64 ndarrays of one shape."""
    h1, h2 = (_u64(h) for h in lanes)
    return (h1, h2) if h1.shape == h2.shape else np.broadcast_arrays(h1, h2)


def _kernel_lanes(base_lanes, level, tag: int, cells: np.ndarray):
    h1, h2 = _pair(base_lanes)
    level, cells = _u64(level), _u64(cells)
    d = cells.shape[-1]
    # With d = 0 no cell word is absorbed, so the cells take no part in the shape.
    shape, axes = _grid((h1.shape, 1), (level.shape, 1), (cells.shape[:-1] if d else (), d))
    out = np.empty((2,) + shape, np.uint64)
    if out.size:
        # Bound to names: a contiguous copy must live until the kernel has read it.
        arrays = [np.ascontiguousarray(a) for a in (h1, h2, level, cells)] + [out]
        b1, b2, lp, cp, op = (a.ctypes.data for a in arrays)
        (n0, s0), (n1, s1) = axes[-2:]
        for b, lv, c, o in _blocks(axes):
            _LIB.envwalk_lanes(
                n0, n1, int(tag) & _MASK64, d, b1 + b, b2 + b, s0[0], s1[0], lp + lv, s0[1], s1[1],
                cp + c, s0[2], s1[2], op + o, op + o + 8 * out[0].size,
            )
    return out[0], out[1]


def _kernel_words(fn, dtype, lanes, index):
    h1, h2 = _pair(lanes)
    index = _u64(index)
    shape, axes = _grid((h1.shape, 1), (index.shape, 1))
    out = np.empty(shape, dtype)
    if out.size:
        arrays = [np.ascontiguousarray(a) for a in (h1, h2, index)] + [out]
        p1, p2, ip, op = (a.ctypes.data for a in arrays)
        (n0, s0), (n1, s1) = axes[-2:]
        if n1 < n0:  # the longer axis inside, where the loop vectorizes
            (n0, s0), (n1, s1) = (n1, s1), (n0, s0)
        for h, i, o in _blocks(axes):
            fn(n0, n1, p1 + h, p2 + h, s0[0], s1[0], ip + i, s0[1], s1[1], op + o, s0[2], s1[2])
    return out if shape else out[()]


_LIB = _load_kernel()
