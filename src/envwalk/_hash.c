/* The compiled hot paths of envwalk: the keyed two-lane hash of
 * envwalk.streams, the dense propagation step of walks.exact_mean_curves,
 * which reads the field itself, and the walker block of walks._Walker,
 * which reads the field the same way.
 *
 * The hash is bit for bit the numpy mixers of streams.py (_mix1, _mix2,
 * absorb, words_at, uniforms_at): the same constants and the same wrapping
 * 64-bit arithmetic.  The propagation step is bit for bit the numpy steps
 * of walks.py: environments.field_weights, then the same products and sums
 * in the same order, with numpy's pairwise summation for every row sum.
 * The walker block (envwalk_walk) is bit for bit walks._Walker's numpy
 * steps: per walker and step k the walk key's uniform 0, the field's
 * weight row at level k and the walker's position, the inverse CDF in
 * support order and the drift summed atom by atom.  Both read the field
 * with one per-site helper (site_rows) that hashes each site's cell under
 * its key prefix, takes uniform 0 and forms the site's weight row by one
 * of three family kinds, each the arithmetic of the family's weight_table:
 * affine (UniformPM1), threshold table (ChoicePM1, DiracSteps) and
 * constant (FixedAtomic, no hash).  Plain C99 with no Python headers; streams.py
 * builds it with `cc -O3 -ffp-contract=off -shared -fPIC` on first import
 * and calls it through ctypes.  Floating-point contraction is off because
 * a fused multiply-add (which GCC otherwise forms from `t += x * w` in the
 * AVX-512 clone) rounds once where numpy rounds twice, and moves the
 * propagated curves in their last bits; the hash is integer arithmetic
 * plus one exact scaling, which the flag does not change.
 *
 * Each hash entry point fills a grid of n0 rows by n1 columns.  Every
 * input is addressed by an (outer, inner) element stride, 0 along an axis
 * where it is broadcast, so a broadcast is never copied.  streams.py
 * collapses the broadcast shape to this grid and hands in contiguous
 * operands, so the inner strides are 0 or 1 (d for cells); the loops below
 * are shaped so that those cases vectorize.
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

/* numpy's pairwise summation of n contiguous doubles (DOUBLE_pairwise_sum):
 * fewer than 8 terms in a plain loop from 0.0; up to 128 in 8 interleaved
 * accumulators, combined in a fixed tree, then the tail; longer runs split
 * at n/2 rounded down to a multiple of 8. */
INLINE double pairwise_leaf(const double *restrict a, size_t n)
{
    if (n < 8) {
        double s = 0.0;
        for (size_t i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    double r[8];
    for (size_t j = 0; j < 8; j++)
        r[j] = a[j];
    size_t i = 8;
    for (; i < n - n % 8; i += 8)
        for (size_t j = 0; j < 8; j++)
            r[j] += a[i + j];
    double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        s += a[i];
    return s;
}

VECTOR_CLONES
static double pairwise_sum(const double *a, size_t n)
{
    if (n <= 128)
        return pairwise_leaf(a, n);
    size_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.add.reduce of a row: the identity 0.0 plus the pairwise sum. */
INLINE double row_sum(const double *a, size_t n)
{
    return 0.0 + (n <= 128 ? pairwise_leaf(a, n) : pairwise_sum(a, n));
}

/* The field read of envwalk_propagate and envwalk_walk: field_weights() of
 * a d = 1 lattice, finite-range or Dirac field at integer positions, one
 * field per row (per walker in envwalk_walk).  Mirrors streams.FieldRead. */
enum { AFFINE = 0, THRESHOLD = 1, CONSTANT = 2 };

struct field {
    const u64 *b1, *b2; /* each row's base lanes */
    u64 tag;            /* TAG_ENV */
    double range;       /* finite_range's spacing R; 0 on the unit lattice */
    int kind;
    size_t n_atoms;
    double slope, intercept;  /* AFFINE: p = u * slope + intercept, then 1 - p */
    size_t n_rows;
    const double *thresholds; /* THRESHOLD: the np.cumsum of the rows' probabilities */
    const double *rows;       /* THRESHOLD: (n_rows, n_atoms) weight rows; CONSTANT: one row */
};

/* The weight rows of n sites at field-frame positions x, contiguous
 * (n, n_atoms) into w.  (h1, h2) hold each site's key prefix (tag, level
 * and d = 1 absorbed) and are consumed.  The site's key is that prefix and
 * its cell (x itself on the unit lattice, floor(x / R + 0.5) on
 * finite_range, floored by truncation so that no libm call is needed), its
 * uniform 0 that of uniforms_at(), and its row that of the family's
 * weight_table():
 *   - AFFINE (UniformPM1): p = u * slope + intercept, rounded in that order,
 *     and 1 - p;
 *   - THRESHOLD (ChoicePM1, DiracSteps): the row searchsorted(thresholds, u,
 *     side="right") capped at n_rows - 1;
 *   - CONSTANT (FixedAtomic): the one row, with no hash. */
INLINE void site_rows(const struct field *f, size_t n, u64 *restrict h1, u64 *restrict h2,
                      const int64_t *restrict x, double *restrict w)
{
    const size_t na = f->n_atoms;
    if (f->kind == CONSTANT) {
        for (size_t i = 0; i < n; i++)
            for (size_t a = 0; a < na; a++)
                w[i * na + a] = f->rows[a];
        return;
    }
    u64 cell[TILE];
    if (f->range > 0.0) {
        for (size_t i = 0; i < n; i++) {
            const double q = (double)x[i] / f->range + 0.5;
            const int64_t c = (int64_t)q;
            cell[i] = (u64)(c - ((double)c > q));
        }
    } else {
        for (size_t i = 0; i < n; i++)
            cell[i] = (u64)x[i];
    }
    const u64 draw = 0;
    double u[TILE];
    absorb_column(n, h1, h2, cell, 1);
    words_row(n, h1, h2, 1, &draw, 0, u, 1, 1);
    if (f->kind == AFFINE) {
        for (size_t i = 0; i < n; i++) {
            const double p = u[i] * f->slope + f->intercept;
            w[2 * i] = p;
            w[2 * i + 1] = 1.0 - p;
        }
    } else {
        for (size_t i = 0; i < n; i++) {
            size_t k = 0;
            for (size_t b = 0; b < f->n_rows; b++)
                k += f->thresholds[b] <= u[i];
            const double *row = f->rows + (k < f->n_rows ? k : f->n_rows - 1) * na;
            for (size_t a = 0; a < na; a++)
                w[i * na + a] = row[a];
        }
    }
}

/* Row r's weight rows at `level` and the n sites x = lo + st * j, into w,
 * contiguous (n, n_atoms), a tile of sites at a time.  The key prefix
 * (tag, level, d = 1: that of lanes_for_cells()) is hashed once per row. */
INLINE void field_row(const struct field *f, size_t r, u64 level, int64_t lo, int64_t st, size_t n, double *restrict w)
{
    u64 p1 = f->b1[r], p2 = f->b2[r];
    absorb_word(&p1, &p2, f->tag);
    absorb_word(&p1, &p2, level);
    absorb_word(&p1, &p2, 1);
    int64_t x[TILE];
    u64 h1[TILE], h2[TILE];
    for (size_t t = 0; t < n; t += TILE) {
        const size_t nt = n - t < TILE ? n - t : TILE;
        const u64 x0 = (u64)lo + (u64)st * t;
        for (size_t i = 0; i < nt; i++) {
            x[i] = (int64_t)(x0 + (u64)st * i);
            h1[i] = p1;
            h2[i] = p2;
        }
        site_rows(f, nt, h1, h2, x, w + t * f->n_atoms);
    }
}

/* field_weights() of m rows at n sites: contiguous (m, n, n_atoms) into out. */
VECTOR_CLONES
void envwalk_field_weights(const struct field *f, u64 level, int64_t lo, int64_t st, size_t m, size_t n, double *out)
{
    for (size_t r = 0; r < m; r++)
        field_row(f, r, level, lo, st, n, out + r * n * f->n_atoms);
}

/* One replica row of envwalk_propagate, with its weight rows w contiguous
 * (n_pos, n_atoms).  Inlined with a constant atom count for pairs, so that
 * the strided loops vectorize. */
INLINE double propagate_row(size_t n_pos, size_t n_atoms, const double *restrict x, const double *restrict w,
                            const double *restrict support, const stride_t *restrict offset,
                            size_t n_full, size_t i0, size_t i1, double prune,
                            double *restrict f, double *restrict mean)
{
    /* The products mass * drift, in f as scratch; the drift atom by atom. */
    for (size_t j = 0; j < n_pos; j++)
        f[j] = w[j * n_atoms] * support[0];
    for (size_t a = 1; a < n_atoms; a++)
        for (size_t j = 0; j < n_pos; j++)
            f[j] = f[j] + w[j * n_atoms + a] * support[a];
    for (size_t j = 0; j < n_pos; j++)
        f[j] = x[j] * f[j];
    mean[1] = mean[0] + row_sum(f, n_pos);

    for (size_t j = 0; j < n_full; j++)
        f[j] = 0.0;
    for (size_t a = 0; a < n_atoms; a++) {
        const double *restrict wa = w + a;
        double *restrict t = f + offset[a];
        for (size_t j = 0; j < n_pos; j++)
            t[j] += x[j] * wa[j * n_atoms];
    }

    const double dropped = row_sum(f, i0) + row_sum(f + i1, n_full - i1);
    double *restrict kept = f + i0;
    const size_t n_kept = i1 - i0;
    for (size_t j = 0; j < n_kept; j++)
        kept[j] = kept[j] < prune ? 0.0 : kept[j];
    const double total = row_sum(kept, n_kept);
    for (size_t j = 0; j < n_kept; j++)
        kept[j] /= total;
    return dropped;
}

/* One step of walks.exact_mean_curves (walks._numpy_step, with the field
 * read of field_weights()) for m replica rows.
 *
 * Row r holds the law on the n_pos sites lo + st * j at `level` (mass, row
 * stride ms).  The step reads their weight rows with field_row() into w
 * (room for n_pos * n_atoms, rewritten per row) and writes, into the contiguous
 * (m, n_full) array full:
 *   - first, as scratch, the products mass * drift, the drift summed atom by
 *     atom in support order (jumplaws.atomic_mean); their row sum moves the
 *     mean, means[r * mstride + 1] = means[r * mstride] + sum;
 *   - then the law of the next step on its full support, atom a's mass
 *     added at site offset[a] + j in support order;
 *   - then, inside the window [i0, i1), that law with sites below prune set
 *     to 0 and the row divided by its sum.
 * Returns the largest mass that falls outside the window in any row. */
VECTOR_CLONES
double envwalk_propagate(const struct field *field, u64 level, int64_t lo, int64_t st,
                         size_t m, size_t n_pos, const double *mass, stride_t ms,
                         const double *support, const stride_t *offset,
                         size_t n_full, size_t i0, size_t i1, double prune,
                         double *full, double *means, stride_t mstride, double *w)
{
    const size_t n_atoms = field->n_atoms;
    double worst = 0.0;
    for (size_t r = 0; r < m; r++) {
        field_row(field, r, level, lo, st, n_pos, w);
        const double *x = mass + r * ms;
        double *f = full + r * n_full, *mean = means + r * mstride;
        const double dropped =
            n_atoms == 2 ? propagate_row(n_pos, 2, x, w, support, offset, n_full, i0, i1, prune, f, mean)
                         : propagate_row(n_pos, n_atoms, x, w, support, offset, n_full, i0, i1, prune, f, mean);
        if (dropped > worst)
            worst = dropped;
    }
    return worst;
}

/* One tile of envwalk_walk: nt walkers with base lanes (b1, b2), walk
 * cell words at cells + j * n (j < n_words), positions pos and drift sums
 * drift (or NULL), for b steps; the positions after step s go to
 * out + s * n.  Inlined with a constant atom count for pairs, so that the
 * loops vectorize. */
INLINE void walk_tile(const struct field *f, size_t na, size_t nt, size_t n, size_t b, u64 level,
                      const u64 *restrict b1, const u64 *restrict b2, u64 walk_tag, const u64 *restrict cells,
                      size_t n_words, const int64_t *restrict support, int64_t *restrict pos, double *restrict drift, double *restrict w, int64_t *restrict out)
{
    /* Each walker's lanes with the walk tag and with the field's tag absorbed. */
    u64 pw1[TILE], pw2[TILE], pe1[TILE], pe2[TILE], h1[TILE], h2[TILE];
    double u[TILE];
    for (size_t i = 0; i < nt; i++) {
        pw1[i] = pe1[i] = b1[i];
        pw2[i] = pe2[i] = b2[i];
    }
    absorb_column(nt, pw1, pw2, &walk_tag, 0);
    absorb_column(nt, pe1, pe2, &f->tag, 0);
    const u64 n_walk_words = n_words, d = 1, draw = 0;
    for (size_t s = 0; s < b; s++) {
        /* The walk uniform: the walk key (tag, level, the cell width, the
         * cell words) and its uniform 0. */
        const u64 step_level = level + s;
        for (size_t i = 0; i < nt; i++) {
            h1[i] = pw1[i];
            h2[i] = pw2[i];
        }
        absorb_column(nt, h1, h2, &step_level, 0);
        absorb_column(nt, h1, h2, &n_walk_words, 0);
        for (size_t j = 0; j < n_words; j++)
            absorb_column(nt, h1, h2, cells + j * n, 1);
        words_row(nt, h1, h2, 1, &draw, 0, u, 1, 1);

        /* The weight rows of the field at the same level and pos. */
        for (size_t i = 0; i < nt; i++) {
            h1[i] = pe1[i];
            h2[i] = pe2[i];
        }
        absorb_column(nt, h1, h2, &step_level, 0);
        absorb_column(nt, h1, h2, &d, 0);
        site_rows(f, nt, h1, h2, pos, w);

        /* The drift, atom by atom in support order (jumplaws.atomic_mean). */
        if (drift != NULL) {
            for (size_t i = 0; i < nt; i++) {
                double m = w[i * na] * (double)support[0];
                for (size_t a = 1; a < na; a++)
                    m = m + w[i * na + a] * (double)support[a];
                drift[i] += m;
            }
        }

        /* The step: the inverse CDF of walks._row_atomic_index, the weights
         * summed atom by atom; capped at the last atom, where numpy would
         * raise on a one-atom row that sums below u. */
        int64_t *restrict o = out + s * n;
        for (size_t i = 0; i < nt; i++) {
            double cum = w[i * na];
            size_t k = cum <= u[i];
            for (size_t a = 1; a + 1 < na; a++) {
                cum = cum + w[i * na + a];
                k += cum <= u[i];
            }
            pos[i] += support[k < na ? k : na - 1];
            o[i] = pos[i];
        }
    }
}

/* b steps of n walkers in one call: walks._Walker's numpy steps for a d = 1
 * field that field_read describes, with integer atoms `support`.  Walker i
 * reads the field through the base lanes f->b1[i], f->b2[i], and its
 * cell words are cells[j * n + i] for j < n_words.  Step s, from `level` +
 * s:
 *   - hashes the walk key (those base lanes, walk_tag, the level, n_words,
 *     the cell words) and takes its uniform 0;
 *   - reads the weight row at pos[i] and level + s with the site_rows() of
 *     field_row();
 *   - adds the row's drift to drift[i], if drift is not NULL;
 *   - moves pos[i] by the atom the inverse CDF picks, and writes it to
 *     out[s * n + i].
 * w is scratch with room for n * n_atoms doubles. */
VECTOR_CLONES
void envwalk_walk(const struct field *f, size_t n, u64 walk_tag, const u64 *cells, size_t n_words,
                  const int64_t *support, int64_t *pos, double *drift, double *w, u64 level, size_t b, int64_t *out)
{
    const size_t na = f->n_atoms;
    for (size_t t = 0; t < n; t += TILE) {
        const size_t nt = n - t < TILE ? n - t : TILE;
        double *dt = drift != NULL ? drift + t : NULL;
        if (na == 2)
            walk_tile(f, 2, nt, n, b, level, f->b1 + t, f->b2 + t, walk_tag, cells + t, n_words, support,
                      pos + t, dt, w + t * na, out + t);
        else
            walk_tile(f, na, nt, n, b, level, f->b1 + t, f->b2 + t, walk_tag, cells + t, n_words, support,
                      pos + t, dt, w + t * na, out + t);
    }
}
