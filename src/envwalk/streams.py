"""Keyed counter-based uniform streams.

Every random quantity in this package is a pure function of a
:class:`StreamKey` ``(master_seed, level, cell, tag)`` and a draw index.
There is no hidden generator state: the ``i``-th variate of a stream can be
computed directly, in any order, from any process, and always comes out the
same.  This is what makes environments re-queryable, walks replayable and
parallel reductions worker-count independent.

One batched API serves one key and many alike.  :func:`seed_lanes` turns
one master seed or an array of them into seed lanes;
:func:`lanes_for_cells` absorbs a key's words (tag, level, cell length,
cell coordinates) for any batch of cells, and :meth:`StreamKey.lanes` is
that call on one cell; :func:`derive_seeds_vec` absorbs ``TAG_DERIVE``,
a word count and the words into child seeds.  Draws are read by index:
:func:`uniforms_at` at any indices, :meth:`StreamKey.uniforms` the first
``n`` of one key.

The generator itself is a two-lane keyed hash: the key fields are absorbed
sponge-style into two independent 64-bit lanes (SplitMix64 finalizer on lane
one, Murmur3 ``fmix64`` on lane two), and output word ``i`` is the XOR of the
two lane streams evaluated at counter ``i``.  Each lane on its own is a
full-avalanche counter generator; the XOR gives 128 bits of effective key
material so that key collisions are out of reach at any realistic scale.
Not cryptographic, and not meant to be.

The numpy mixers below (``_mix1``, ``_mix2``, :func:`absorb`,
:func:`words_at`, :func:`uniforms_at`) serve every hash call made from
Python.  The hot loops hash in C instead: a small library (``_hash.c``),
loaded with ``ctypes``, holds the dense propagation step of
:func:`walks.exact_mean_curves` (``_LIB.envwalk_propagate``), the walker
block of ``walks._Walker`` (``_LIB.envwalk_walk``) and the per-level rows of
the level-correlated exact mean (``_LIB.envwalk_field_weights``).  Each
hashes the field's cells (and the walk keys) itself with the same mixers,
through the field read :class:`FieldRead`.  The library also holds the
normal CDF of the KS tests (``_LIB.envwalk_ndtr``), bit for bit
``scipy.special.ndtr``.  The first import compiles it with ``cc -O3
-ffp-contract=off -shared -fPIC ... -lm`` into ``__pycache__`` next to this
file (or, where that cannot be written, into ``~/.cache/envwalk``) under a
name that hashes the source, the flags and the platform, so every later
interpreter loads the cached file.  The numpy mixers are the reference: the
parity tests pin the compiled paths to the numpy paths bit for bit, and
those paths (and scipy's ``ndtr``) run when there is no compiler or the
library does not build or load.  Both give the same bits.

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
    # z is mixed in place: every caller hands in a fresh temporary, and
    # fewer temporaries keep the batched hash's peak memory down.
    # errstate: uint64 wraparound is the point; 0-d operands would warn.
    with np.errstate(over="ignore"):
        z ^= z >> _U64(30)
        z *= _U64(_M1A)
        z ^= z >> _U64(27)
        z *= _U64(_M1B)
        z ^= z >> _U64(31)
        return z


def _mix2(z: np.ndarray) -> np.ndarray:
    # In place, as _mix1.
    with np.errstate(over="ignore"):
        z ^= z >> _U64(33)
        z *= _U64(_M2A)
        z ^= z >> _U64(33)
        z *= _U64(_M2B)
        z ^= z >> _U64(33)
        return z


def seed_lanes(master_seeds) -> tuple[np.ndarray, np.ndarray]:
    """Initial lane pair for one master seed (any int, taken mod 2**64) or
    lane pairs for an array of them."""
    s = np.asarray(master_seeds)
    s = _u64(s) if s.ndim else np.uint64(int(master_seeds) & _MASK64)
    return _mix1(s ^ _U64(_IV1)), _mix2(s ^ _U64(_IV2))


def absorb(lanes: tuple[np.ndarray, np.ndarray], word) -> tuple[np.ndarray, np.ndarray]:
    """Fold one key word (int or broadcastable int array) into both lanes."""
    w = _u64(word)
    h1, h2 = lanes
    with np.errstate(over="ignore"):
        a1, a2 = h1 ^ (w + _U64(_GAMMA1)), h2 ^ (w + _U64(_GAMMA2))
    return _mix1(a1), _mix2(a2)


def words_at(lanes: tuple[np.ndarray, np.ndarray], index) -> np.ndarray:
    """Raw 64-bit output words at the given draw indices (broadcast)."""
    i = _u64(index) + _U64(1)
    h1, h2 = lanes
    with np.errstate(over="ignore"):
        w = _mix1(h1 + i * _U64(_GAMMA1))
        w ^= _mix2(h2 + i * _U64(_GAMMA2))  # the two lanes of a pair have one shape
    return w


def uniforms_at(lanes: tuple[np.ndarray, np.ndarray], index) -> np.ndarray:
    """Uniform [0,1) variates at the given draw indices (broadcast)."""
    return (words_at(lanes, index) >> _U64(11)).astype(np.float64) * _INV_2_53


def lanes_for_cells(
    base_lanes: tuple[np.ndarray, np.ndarray],
    level: int,
    tag: int,
    cells: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lane pairs for cells under shared or per-row base lanes.

    ``cells`` has shape (..., d) with d >= 0: a 1-d array is one cell.
    ``base_lanes`` must broadcast against ``cells[..., j]``.  The key words
    are the tag, the level, the cell's length d and its d coordinates;
    :meth:`StreamKey.lanes` is this call on one cell.
    """
    cells = np.asarray(cells)
    d = cells.shape[-1]
    lanes = absorb(base_lanes, tag)
    lanes = absorb(lanes, level)
    lanes = absorb(lanes, d)
    for j in range(d):
        lanes = absorb(lanes, cells[..., j])
    return lanes


def derive_seeds_vec(master_seed: int, *word_arrays) -> np.ndarray:
    """Child 64-bit seeds from a master seed and index words (ints or
    broadcastable int arrays); ``int()`` of a 0-d result is one seed.

    Gives replicas (environments, walk pairs) their own master seeds
    without any sequential generator state.
    """
    lanes = seed_lanes(master_seed)
    lanes = absorb(lanes, TAG_DERIVE)
    lanes = absorb(lanes, len(word_arrays))
    for w in word_arrays:
        lanes = absorb(lanes, np.asarray(w))
    return words_at(lanes, 0)


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
        cell = np.array([int(c) & _MASK64 for c in self.cell], dtype=np.uint64)
        return lanes_for_cells(seed_lanes(self.master_seed), self.level, self.tag, cell)

    def uniforms(self, n: int) -> np.ndarray:
        """The stream's first ``n`` variates: draws 0 .. n-1."""
        return uniforms_at(self.lanes(), np.arange(n))


# ---------------------------------------------------------------------------
# The compiled library (_hash.c): the dense propagation step of
# walks.exact_mean_curves, the walker block, the level rows and ndtr.
# ---------------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_hash.c")
# No floating-point contraction: a fused multiply-add rounds once where numpy
# rounds twice, and the propagation step must give numpy's bits.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
# envwalk_ndtr calls exp; libraries go after the source.
_LDLIBS = ("-lm",)


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
        subprocess.run([cc, *_CFLAGS, "-o", str(tmp), str(_KERNEL_SOURCE), *_LDLIBS],
                       check=True, capture_output=True, timeout=600)
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
    build = f"{' '.join(_CFLAGS + _LDLIBS)} {sys.platform} {platform.machine()}".encode()
    paths = list(_library_paths(f"_hash-{hashlib.sha256(source + build).hexdigest()[:16]}.so"))
    path = next((p for p in paths if p.is_file()), None) or next((p for p in paths if _build(p)), None)
    if path is None:
        return None
    try:
        return _declare(ctypes.CDLL(str(path)))
    except OSError:
        return None


def _declare(lib):
    """``lib``, a loaded build of ``_hash.c``, with each entry point's ctypes argtypes and restype."""
    size, step, word, ptr = ctypes.c_size_t, ctypes.c_ssize_t, ctypes.c_uint64, ctypes.c_void_p
    # field, first level, levels, fields, sites, out
    lib.envwalk_field_weights.argtypes = (ptr, word, size, size, ptr, ptr)
    lib.envwalk_field_weights.restype = None
    # field, level, lo, st, rows, sites, then the law, the step's tables and its outputs
    lib.envwalk_propagate.argtypes = (
        ptr, word, ctypes.c_int64, ctypes.c_int64, size, size, ptr, step, ptr, ptr, size, size, size, ctypes.c_double,
        ptr, ptr, step, ptr,
    )
    lib.envwalk_propagate.restype = ctypes.c_double
    # field, walkers, walkers a field, walk tag, cells, cell words, support, positions, drift sums,
    # scratch, then the block's level, steps and out (NULL to write no positions)
    lib.envwalk_walk.argtypes = (ptr, size, size, word, ptr, size, ptr, ptr, ptr, ptr, word, size, ptr)
    lib.envwalk_walk.restype = None
    # values, in, out
    lib.envwalk_ndtr.argtypes = (size, ptr, ptr)
    lib.envwalk_ndtr.restype = None
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
        ("cell_words", ctypes.c_uint64),
        ("kind", ctypes.c_int),
        ("n_atoms", ctypes.c_size_t),
        ("slope", ctypes.c_double),
        ("intercept", ctypes.c_double),
        ("thresholds", ctypes.c_void_p),
        ("rows", ctypes.c_void_p),
    ]


_LIB = _load_kernel()
