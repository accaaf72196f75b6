/* The keyed two-lane hash of envwalk.streams, for its batched hot paths.
 *
 * Bit for bit the numpy mixers of streams.py (_mix1, _mix2, absorb,
 * words_at, uniforms_at): the same constants and the same wrapping 64-bit
 * arithmetic.  Plain C99 with no Python headers; streams.py builds it with
 * `cc -O3 -shared -fPIC` on first import and calls it through ctypes.
 *
 * Each entry point fills a grid of n0 rows by n1 columns.  Every input is
 * addressed by an (outer, inner) element stride, 0 along an axis where it
 * is broadcast, so a broadcast is never copied.  streams.py collapses the
 * broadcast shape to this grid and hands in contiguous operands, so the
 * inner strides are 0 or 1 (d for cells); the loops below are shaped so
 * that those cases vectorize.
 */
#include <stddef.h>
#include <stdint.h>

typedef uint64_t u64;
typedef ptrdiff_t stride_t;

/* SplitMix64 finalizer (lane 1), Murmur3 fmix64 (lane 2), Weyl increments. */
#define M1A 0xBF58476D1CE4E5B9ULL
#define M1B 0x94D049BB133111EBULL
#define M2A 0xFF51AFD7ED558CCDULL
#define M2B 0xC4CEB9FE1A85EC53ULL
#define GAMMA1 0x9E3779B97F4A7C15ULL
#define GAMMA2 0xC2B2AE3D27D4EB4FULL

/* Lanes are hashed a tile of columns at a time, so that the passes over
 * them (one per key word) stay in the L1 cache: 2 x 256 x 8 B = 4 KiB. */
#define TILE 256

/* One library for every x86-64 host: the loader picks the AVX-512 clone
 * (vector 64-bit multiplies) where the CPU has it and the baseline
 * elsewhere.  -march=native would instead die with SIGILL on an older CPU
 * that loads a cached copy. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define VECTOR_CLONES __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define VECTOR_CLONES
#endif

#define INLINE static inline __attribute__((always_inline))

INLINE u64 mix1(u64 z)
{
    z ^= z >> 30;
    z *= M1A;
    z ^= z >> 27;
    z *= M1B;
    return z ^ (z >> 31);
}

INLINE u64 mix2(u64 z)
{
    z ^= z >> 33;
    z *= M2A;
    z ^= z >> 33;
    z *= M2B;
    return z ^ (z >> 33);
}

/* absorb(): fold the word column w (stride ws) into n lane pairs. */
INLINE void absorb_column(size_t n, u64 *restrict h1, u64 *restrict h2, const u64 *restrict w, stride_t ws)
{
    if (ws == 0) {
        const u64 a1 = w[0] + GAMMA1, a2 = w[0] + GAMMA2;
        for (size_t i = 0; i < n; i++) {
            h1[i] = mix1(h1[i] ^ a1);
            h2[i] = mix2(h2[i] ^ a2);
        }
    } else if (ws == 1) {
        for (size_t i = 0; i < n; i++) {
            h1[i] = mix1(h1[i] ^ (w[i] + GAMMA1));
            h2[i] = mix2(h2[i] ^ (w[i] + GAMMA2));
        }
    } else {
        for (size_t i = 0; i < n; i++) {
            h1[i] = mix1(h1[i] ^ (w[i * ws] + GAMMA1));
            h2[i] = mix2(h2[i] ^ (w[i * ws] + GAMMA2));
        }
    }
}

INLINE void absorb_word(u64 *h1, u64 *h2, u64 w)
{
    absorb_column(1, h1, h2, &w, 0);
}

/* lanes_for_cells(): the base lanes (b1, b2) absorb tag, level, d and the d
 * words of the cell, in that order.  out1/out2 are contiguous (n0, n1).
 * Where the base and the level are the same along a row (one field, or
 * one level per row), their part of the key is hashed once per row. */
VECTOR_CLONES
void envwalk_lanes(size_t n0, size_t n1, u64 tag, size_t d,
                   const u64 *b1, const u64 *b2, stride_t bs0, stride_t bs1,
                   const u64 *level, stride_t ls0, stride_t ls1,
                   const u64 *cells, stride_t cs0, stride_t cs1,
                   u64 *out1, u64 *out2)
{
    const u64 dw = d;
    const int row_prefix = bs1 == 0 && ls1 == 0;
    for (size_t r = 0; r < n0; r++) {
        const u64 *r1 = b1 + r * bs0, *r2 = b2 + r * bs0, *rl = level + r * ls0, *rc = cells + r * cs0;
        u64 p1 = r1[0], p2 = r2[0];
        if (row_prefix) {
            absorb_word(&p1, &p2, tag);
            absorb_word(&p1, &p2, rl[0]);
            absorb_word(&p1, &p2, dw);
        }
        for (size_t t = 0; t < n1; t += TILE) {
            const size_t n = n1 - t < TILE ? n1 - t : TILE;
            u64 *h1 = out1 + r * n1 + t, *h2 = out2 + r * n1 + t;
            if (row_prefix) {
                for (size_t i = 0; i < n; i++) {
                    h1[i] = p1;
                    h2[i] = p2;
                }
            } else {
                for (size_t i = 0; i < n; i++) {
                    h1[i] = r1[(t + i) * bs1];
                    h2[i] = r2[(t + i) * bs1];
                }
                absorb_column(n, h1, h2, &tag, 0);
                absorb_column(n, h1, h2, rl + t * ls1, ls1);
                absorb_column(n, h1, h2, &dw, 0);
            }
            for (size_t j = 0; j < d; j++)
                absorb_column(n, h1, h2, rc + t * cs1 + j, cs1);
        }
    }
}

/* words_at() along one row of n entries; uniforms_at() when `uniform`. */
INLINE void words_row(size_t n, const u64 *restrict h1, const u64 *restrict h2, stride_t hs,
                      const u64 *restrict index, stride_t is, void *restrict out, stride_t os, int uniform)
{
    for (size_t k = 0; k < n; k++) {
        const u64 i = index[k * is] + 1;
        const u64 w = mix1(h1[k * hs] + i * GAMMA1) ^ mix2(h2[k * hs] + i * GAMMA2);
        /* w >> 11 < 2**53 converts exactly, as numpy's astype(float64) does. */
        if (uniform)
            ((double *)out)[k * os] = (double)(int64_t)(w >> 11) * 0x1p-53;
        else
            ((u64 *)out)[k * os] = w;
    }
}

/* The draws of one row.  Inner strides at the call sites: lanes along the
 * row with one index (draws over lanes, also when streams.py turned a short
 * draw axis into the rows), or one lane pair at many indices. */
INLINE void words_grid(size_t n0, size_t n1, const u64 *h1, const u64 *h2, stride_t hs0, stride_t hs1,
                       const u64 *index, stride_t is0, stride_t is1, void *out, stride_t os0, stride_t os1,
                       int uniform)
{
    for (size_t r = 0; r < n0; r++) {
        const u64 *a1 = h1 + r * hs0, *a2 = h2 + r * hs0, *x = index + r * is0;
        void *o = (char *)out + r * os0 * 8;
        if (hs1 == 1 && is1 == 0 && os1 == 1)
            words_row(n1, a1, a2, 1, x, 0, o, 1, uniform);
        else if (hs1 == 1 && is1 == 0)
            words_row(n1, a1, a2, 1, x, 0, o, os1, uniform);
        else if (hs1 == 0 && is1 == 1 && os1 == 1)
            words_row(n1, a1, a2, 0, x, 1, o, 1, uniform);
        else
            words_row(n1, a1, a2, hs1, x, is1, o, os1, uniform);
    }
}

VECTOR_CLONES
void envwalk_words(size_t n0, size_t n1, const u64 *h1, const u64 *h2, stride_t hs0, stride_t hs1,
                   const u64 *index, stride_t is0, stride_t is1, u64 *out, stride_t os0, stride_t os1)
{
    words_grid(n0, n1, h1, h2, hs0, hs1, index, is0, is1, out, os0, os1, 0);
}

VECTOR_CLONES
void envwalk_uniforms(size_t n0, size_t n1, const u64 *h1, const u64 *h2, stride_t hs0, stride_t hs1,
                      const u64 *index, stride_t is0, stride_t is1, double *out, stride_t os0, stride_t os1)
{
    words_grid(n0, n1, h1, h2, hs0, hs1, index, is0, is1, out, os0, os1, 1);
}
