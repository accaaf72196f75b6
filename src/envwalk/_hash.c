/* The compiled hot paths of envwalk: the dense propagation step of
 * walks.exact_mean_curves (envwalk_propagate), the walker block of
 * walks._Walker (envwalk_walk) and the per-level rows of the level-correlated
 * exact mean (envwalk_field_weights).  Each reads the field itself.  A
 * fourth entry point, envwalk_ndtr, is the normal CDF of the KS tests in
 * envwalk.stats, bit for bit scipy.special.ndtr (see its comment at the end).
 *
 * They hash with the keyed two-lane hash of envwalk.streams, bit for bit its
 * numpy mixers (_mix1, _mix2, absorb, uniforms_at): the same constants and
 * the same wrapping 64-bit arithmetic.  The propagation step is bit for bit
 * the numpy steps of walks.py: environments.field_weights, then the same
 * products and sums in the same order, with numpy's pairwise summation for
 * every row sum.  It makes few passes over a row's sites.  Only the live
 * sites (from the first to the last mass that is not an exact zero; the
 * others add nothing) are read: a tile of them at a time, one pass hashes
 * their keys and one forms each site's weight row, its products mass *
 * weight and its drift product.  The next law is then gathered site by
 * site, each site summing the products that land on it in support order
 * (the sums numpy's atom-major scatter forms), and pruned as it is
 * written; a kept window that sums to exactly 1 is not divided, since
 * x / 1.0 == x.  The walker block (envwalk_walk) is bit for bit
 * walks._Walker's numpy steps: per walker and step k the walk key's
 * uniform 0, the field's weight row at level k and the walker's position,
 * the inverse CDF in support order and the drift summed atom by atom.  It
 * writes the positions after each step to out, or none where out is NULL
 * (a recorded walk steps to its recorded steps so).  Its walkers read
 * their fields in groups: the words every key of a field shares at a step
 * (its base lanes, tag, level and cell-word count, for the walk key and for
 * the field key) are hashed once per field, and each walker hashes only its
 * own words, its walk cell words and its field cell, and its two uniforms;
 * a field read with no cell word forms one weight row per field.  When
 * fields have g > 1 walkers each, a tile of walkers never straddles two
 * fields, so it reads its field's key prefixes and one row in place.  All
 * three read the field with one per-site rule: site_key
 * hashes the site's cell (none on the level-correlated field) under its
 * key prefix, and key_row takes the key's uniform 0 and forms the site's
 * weight row by one of three family kinds, each the arithmetic of the
 * family's weight_table: affine (UniformPM1), threshold (DiracSteps, a
 * one-hot row) and constant (FixedAtomic, no hash).  Plain C99 with no
 * Python headers; streams.py builds it with `cc -O3 -ffp-contract=off
 * -shared -fPIC ... -lm` on first import and calls it through ctypes.  Floating-point contraction is off
 * because a fused multiply-add (which GCC otherwise forms from `d + w * s`
 * in the AVX-512 clone) rounds once where numpy rounds twice, and moves the
 * propagated curves in their last bits; the hash is integer arithmetic
 * plus one exact scaling, which the flag does not change.
 *
 * Each loop over sites or lanes is shaped so that it vectorizes: a loop
 * that calls the site rule is compiled once per family kind and cell rule
 * (EACH_READ), and the loops run over a tile of at most TILE sites or
 * lane pairs, a pass per hash step.
 */
#include <math.h>
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
 * that loads a cached copy.  Building with -DVECTOR_CLONES= gives the
 * baseline alone, the code that hosts without AVX-512 (or builds without
 * clones) run; a test builds it so. */
#ifndef VECTOR_CLONES
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define VECTOR_CLONES __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define VECTOR_CLONES
#endif
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

/* absorb() of the word w into n lane pairs. */
INLINE void absorb_word(size_t n, u64 *restrict h1, u64 *restrict h2, u64 w)
{
    const u64 a1 = w + GAMMA1, a2 = w + GAMMA2;
    for (size_t i = 0; i < n; i++) {
        h1[i] = mix1(h1[i] ^ a1);
        h2[i] = mix2(h2[i] ^ a2);
    }
}

/* absorb() of the contiguous word column w into n lane pairs, word i into pair i. */
INLINE void absorb_column(size_t n, u64 *restrict h1, u64 *restrict h2, const u64 *restrict w)
{
    for (size_t i = 0; i < n; i++) {
        h1[i] = mix1(h1[i] ^ (w[i] + GAMMA1));
        h2[i] = mix2(h2[i] ^ (w[i] + GAMMA2));
    }
}

/* uniforms_at(lanes, 0) of n lane pairs: counter 0, so each lane moves by
 * one Weyl increment. */
INLINE void first_uniforms(size_t n, const u64 *restrict h1, const u64 *restrict h2, double *restrict u)
{
    for (size_t i = 0; i < n; i++) {
        const u64 w = mix1(h1[i] + GAMMA1) ^ mix2(h2[i] + GAMMA2);
        /* w >> 11 < 2**53 converts exactly, as numpy's astype(float64) does. */
        u[i] = (double)(int64_t)(w >> 11) * 0x1p-53;
    }
}

/* The lanes (b1, b2) of n keys with the word `tag` absorbed, into (o1, o2). */
INLINE void tagged_lanes(size_t n, const u64 *restrict b1, const u64 *restrict b2, u64 tag,
                         u64 *restrict o1, u64 *restrict o2)
{
    for (size_t i = 0; i < n; i++) {
        o1[i] = b1[i];
        o2[i] = b2[i];
    }
    absorb_word(n, o1, o2, tag);
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

/* The field read of every entry point: field_weights() of a d = 1 field
 * at integer positions, one field per row (per group of walkers in
 * envwalk_walk).  Mirrors streams.FieldRead. */
enum { AFFINE = 0, THRESHOLD = 1, CONSTANT = 2 };

struct field {
    const u64 *b1, *b2; /* each row's base lanes */
    u64 tag;            /* TAG_ENV */
    double range;       /* finite_range's spacing R; 0 on the unit lattice */
    u64 cell_words;     /* words in a cell: 1, or 0 on the level-correlated field */
    int kind;
    size_t n_atoms;
    double slope, intercept;  /* AFFINE: p = u * slope + intercept, then 1 - p */
    const double *thresholds; /* THRESHOLD: the np.cumsum of the atoms' probabilities */
    const double *rows;       /* CONSTANT: the one row */
};

/* The cell rule of a field read: the one-word cell x on the unit lattice,
 * floor(x / R + 0.5) on finite_range, no word on the level-correlated field. */
enum { UNIT_CELL = 0, RANGE_CELL = 1, NO_CELL = 2 };

/* The field read of one site at field-frame position x, in two halves
 * that every loop over sites calls, a pass each: site_key() hashes the
 * site's key, and key_row() turns the key into the site's weight row.
 * Fused into one pass, the two halves' chains of 64-bit multiplies read a
 * tile about a quarter slower (2.4 against 1.9 ns a site on an AVX-512
 * Xeon).
 *
 * site_key: the lanes of the site's key into (o1, o2).  (h1, h2) is the
 * site's key prefix (tag, level and the cell-word count absorbed), and the
 * key is that prefix and the site's cell (floored by truncation on
 * finite_range, so that no libm call is needed). */
INLINE void site_key(const struct field *f, int cell, int64_t x, u64 h1, u64 h2, u64 *restrict o1, u64 *restrict o2)
{
    if (cell != NO_CELL) {
        u64 c = (u64)x;
        if (cell == RANGE_CELL) {
            const double q = (double)x / f->range + 0.5;
            const int64_t t = (int64_t)q;
            c = (u64)(t - ((double)t > q));
        }
        h1 = mix1(h1 ^ (c + GAMMA1));
        h2 = mix2(h2 ^ (c + GAMMA2));
    }
    *o1 = h1;
    *o2 = h2;
}

/* key_row: the weight row of the site whose key has the lanes (h1, h2),
 * into w[0], w[ws], w[2 * ws], ...  Its uniform 0 is that of uniforms_at(),
 * and its row that of the family's weight_table():
 *   - AFFINE (UniformPM1): p = u * slope + intercept, rounded in that order,
 *     and 1 - p;
 *   - THRESHOLD (DiracSteps): the one-hot row of atom k =
 *     searchsorted(thresholds, u, side="right") capped at n_atoms - 1,
 *     1.0 at k and 0.0 elsewhere, np.eye's row;
 *   - CONSTANT (FixedAtomic): the one row, with no hash.
 * kind (and site_key's cell) are the field's, passed as constants by
 * EACH_READ so that each loop compiles without these branches and
 * vectorizes. */
INLINE void key_row(const struct field *f, int kind, size_t na, u64 h1, u64 h2, double *restrict w, size_t ws)
{
    if (kind == CONSTANT) {
        for (size_t a = 0; a < na; a++)
            w[a * ws] = f->rows[a];
        return;
    }
    const u64 word = mix1(h1 + GAMMA1) ^ mix2(h2 + GAMMA2);
    /* word >> 11 < 2**53 converts exactly, as numpy's astype(float64) does. */
    const double u = (double)(int64_t)(word >> 11) * 0x1p-53;
    if (kind == AFFINE) {
        const double p = u * f->slope + f->intercept;
        w[0] = p;
        w[ws] = 1.0 - p;
    } else {
        size_t k = 0;
        for (size_t b = 0; b < na; b++)
            k += f->thresholds[b] <= u;
        for (size_t a = 0; a < na; a++)
            w[a * ws] = 0.0;
        w[(k < na ? k : na - 1) * ws] = 1.0;
    }
}

/* Runs the statement CALL(kind, cell) with the field read f's family kind
 * and cell rule as constants, one case each, so that a loop over sites that
 * calls site_key() and key_row() is compiled once per case. */
#define EACH_READ(f, CALL)                                                                        \
    do {                                                                                          \
        const int cell_ = !(f)->cell_words ? NO_CELL : (f)->range > 0.0 ? RANGE_CELL : UNIT_CELL; \
        if ((f)->kind == CONSTANT) {                                                              \
            CALL(CONSTANT, NO_CELL);                                                              \
        } else if ((f)->kind == AFFINE && cell_ == UNIT_CELL) {                                   \
            CALL(AFFINE, UNIT_CELL);                                                              \
        } else if ((f)->kind == AFFINE && cell_ == RANGE_CELL) {                                  \
            CALL(AFFINE, RANGE_CELL);                                                             \
        } else if ((f)->kind == AFFINE) {                                                         \
            CALL(AFFINE, NO_CELL);                                                                \
        } else if (cell_ == UNIT_CELL) {                                                          \
            CALL(THRESHOLD, UNIT_CELL);                                                           \
        } else if (cell_ == RANGE_CELL) {                                                         \
            CALL(THRESHOLD, RANGE_CELL);                                                          \
        } else {                                                                                  \
            CALL(THRESHOLD, NO_CELL);                                                             \
        }                                                                                         \
    } while (0)

/* The weight rows of n <= TILE sites at field-frame positions x,
 * contiguous (n, na) into w: site i's key prefix is (h1, h2)[i * hs], so
 * hs = 0 reads one prefix for every site. */
INLINE void site_rows(const struct field *f, size_t na, size_t n, const u64 *restrict h1, const u64 *restrict h2,
                      size_t hs, const int64_t *restrict x, double *restrict w)
{
    u64 k1[TILE], k2[TILE];
#define ROWS(kind, cell)                                                  \
    for (size_t i = 0; i < n; i++)                                        \
        site_key(f, cell, x[i], h1[i * hs], h2[i * hs], k1 + i, k2 + i); \
    for (size_t i = 0; i < n; i++)                                        \
        key_row(f, kind, na, k1[i], k2[i], w + i * na, 1)
    EACH_READ(f, ROWS);
#undef ROWS
}

/* The key prefixes at `level` of n keys whose cells have `count` words: the
 * tagged lanes (e1, e2) with the level and the count absorbed, into (o1, o2). */
INLINE void key_prefix(size_t n, const u64 *restrict e1, const u64 *restrict e2, u64 level, u64 count,
                       u64 *restrict o1, u64 *restrict o2)
{
    for (size_t i = 0; i < n; i++) {
        o1[i] = e1[i];
        o2[i] = e2[i];
    }
    absorb_word(n, o1, o2, level);
    absorb_word(n, o1, o2, count);
}

/* The weight rows of m fields, field r at site x[r], at the n_levels levels
 * level, level + 1, ...: contiguous (n_levels, m, n_atoms) into out, a tile
 * of fields at a time.  The closed form of walks.exact_mean_curves on the
 * level-correlated field reads its levels here. */
VECTOR_CLONES
void envwalk_field_weights(const struct field *f, u64 level, size_t n_levels, size_t m, const int64_t *x, double *out)
{
    const size_t na = f->n_atoms;
    u64 e1[TILE], e2[TILE], h1[TILE], h2[TILE];
    for (size_t t = 0; t < m; t += TILE) {
        const size_t nt = m - t < TILE ? m - t : TILE;
        tagged_lanes(nt, f->b1 + t, f->b2 + t, f->tag, e1, e2);
        for (size_t l = 0; l < n_levels; l++) {
            key_prefix(nt, e1, e2, level + l, f->cell_words, h1, h2);
            site_rows(f, na, nt, h1, h2, 1, x + t, out + (l * m + t) * na);
        }
    }
}

/* Site t of a row's next law: 0.0 plus, atom by atom in support order, the
 * product px[a * ps + j] of each site j = t - offset[a], the sum that the
 * atom-major scatter forms at t; set to 0 if it is below prune and t lies in
 * the window [i0, i0 + n_kept).  With `guard`, only the j in [jl, jh) add
 * (the unsigned compare also skips a j below 0, which wraps); without it,
 * every j must lie there. */
INLINE double next_site(size_t na, const double *restrict px, size_t ps, const stride_t *restrict offset, size_t t,
                        int guard, size_t jl, size_t jh, size_t i0, size_t n_kept, double prune)
{
    double v = 0.0;
    for (size_t a = 0; a < na; a++) {
        const size_t j = t - (size_t)offset[a];
        if (!guard || j - jl < jh - jl)
            v += px[a * ps + j];
    }
    return v < prune && t - i0 < n_kept ? 0.0 : v;
}

/* One replica row of envwalk_propagate: the law x on the n_pos sites lo +
 * st * j under the key prefix (p1, p2), with px as scratch for the products
 * mass * weight, (na, n_pos) atom-major.  Inlined with a constant atom
 * count for pairs, so that the loops vectorize. */
INLINE double propagate_row(const struct field *f, size_t na, u64 p1, u64 p2, int64_t lo, int64_t st, size_t n_pos,
                            const double *restrict x, const double *restrict support, const stride_t *restrict offset,
                            size_t n_full, size_t i0, size_t i1, double prune, double *restrict fl,
                            double *restrict mean, double *restrict px)
{
    /* The live range [jl, jh): outside it every mass is an exact zero, whose
     * products add nothing to the gather and whose drift products add
     * nothing to the mean, so those sites are not read. */
    size_t jl = 0, jh = n_pos;
    while (jl < jh && x[jl] == 0.0)
        jl++;
    while (jh > jl && x[jh - 1] == 0.0)
        jh--;

    /* Per live site, a tile of sites at a time: its key, then its weight
     * row, the products mass * weight, and mass * drift (the drift summed
     * atom by atom in support order, jumplaws.atomic_mean) into fl as
     * scratch, for the mean.  A pair's weight row is formed in registers, a
     * longer one in place in px. */
    for (size_t j = 0; j < jl; j++)
        fl[j] = 0.0;
    double pair[2];
    const size_t ws = na == 2 ? 1 : n_pos;
#define READ(kind, cell)                                                              \
    for (size_t j0 = jl; j0 < jh; j0 += TILE) {                                       \
        const size_t nt = jh - j0 < TILE ? jh - j0 : TILE;                            \
        u64 k1[TILE], k2[TILE];                                                       \
        for (size_t i = 0, s = (u64)lo + (u64)st * j0; i < nt; i++, s += (u64)st)     \
            site_key(f, cell, (int64_t)s, p1, p2, k1 + i, k2 + i);                    \
        for (size_t i = 0, j = j0; i < nt; i++, j++) {                                \
            double *wr = na == 2 ? pair : px + j;                                     \
            key_row(f, kind, na, k1[i], k2[i], wr, ws);                               \
            double d = wr[0] * support[0];                                            \
            for (size_t a = 1; a < na; a++)                                           \
                d = d + wr[a * ws] * support[a];                                      \
            fl[j] = x[j] * d;                                                         \
            for (size_t a = 0; a < na; a++)                                           \
                px[a * n_pos + j] = x[j] * wr[a * ws];                                \
        }                                                                             \
    }
    EACH_READ(f, READ);
#undef READ
    for (size_t j = jh; j < n_pos; j++)
        fl[j] = 0.0;
    mean[1] = mean[0] + row_sum(fl, n_pos);

    /* The next law on its full support, gathered site by site and pruned
     * as it is written (next_site()).  Live products reach the sites [jl,
     * jh + span), span = n_full - n_pos: a site within span of either end
     * of that range is guarded, a site between is not, and a site outside
     * is 0. */
    const size_t n_kept = i1 - i0, t_end = jh + (n_full - n_pos);
    const size_t t_mid = jl + (n_full - n_pos) < jh ? jl + (n_full - n_pos) : jh;
    size_t t = 0;
    for (; t < jl; t++)
        fl[t] = 0.0;
    for (; t < t_mid; t++)
        fl[t] = next_site(na, px, n_pos, offset, t, 1, jl, jh, i0, n_kept, prune);
    for (; t < jh; t++)
        fl[t] = next_site(na, px, n_pos, offset, t, 0, jl, jh, i0, n_kept, prune);
    for (; t < t_end; t++)
        fl[t] = next_site(na, px, n_pos, offset, t, 1, jl, jh, i0, n_kept, prune);
    for (; t < n_full; t++)
        fl[t] = 0.0;

    /* The mass outside the window, and the kept law renormalized: a row
     * that sums to exactly 1 is left as it is, since x / 1.0 == x. */
    const double dropped = row_sum(fl, i0) + row_sum(fl + i1, n_full - i1);
    double *restrict kept = fl + i0;
    const double total = row_sum(kept, n_kept);
    if (total != 1.0)
        for (size_t j = 0; j < n_kept; j++)
            kept[j] /= total;
    return dropped;
}

/* One step of walks.exact_mean_curves (walks._numpy_step, with the field
 * read of field_weights()) for m replica rows.
 *
 * Row r holds the law on the n_pos sites lo + st * j at `level` (mass, row
 * stride ms); atom a moves site j to site j + offset[a] of the next
 * support, n_full = n_pos + the largest offset sites.  The step hashes the
 * row's key prefix (tag, level, cell-word count) once.  Then, for the live
 * sites (from the first to the last mass that is not an exact zero), it
 * reads each site's weight row (site_key(), key_row(): the read of
 * field_weights()) and forms the products mass * weight into w (room for
 * n_pos * n_atoms, rewritten per row) and the products mass * drift, the
 * drift summed atom by atom in support order (jumplaws.atomic_mean).  Their
 * row sum moves the mean, means[r * mstride + 1] = means[r * mstride] +
 * sum.  Into the contiguous (m, n_full) array full it then writes the law
 * of the next step on its full support: site t is 0.0 plus atom a's
 * product from site t - offset[a], atom by atom in support order (the sums
 * of numpy's atom-major scatter), set to 0 below prune inside the window
 * [i0, i1).  Last it divides that window by its sum, unless the sum is
 * exactly 1.  Returns the largest mass that falls outside the window in
 * any row. */
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
        u64 e1, e2, p1, p2;
        tagged_lanes(1, field->b1 + r, field->b2 + r, field->tag, &e1, &e2);
        key_prefix(1, &e1, &e2, level, field->cell_words, &p1, &p2);
        const double *x = mass + r * ms;
        double *fl = full + r * n_full, *mean = means + r * mstride;
        const double dropped =
            n_atoms == 2 ? propagate_row(field, 2, p1, p2, lo, st, n_pos, x, support, offset, n_full, i0, i1, prune,
                                         fl, mean, w)
                         : propagate_row(field, n_atoms, p1, p2, lo, st, n_pos, x, support, offset, n_full, i0, i1,
                                         prune, fl, mean, w);
        if (dropped > worst)
            worst = dropped;
    }
    return worst;
}

/* The moves of nt walkers after their walk uniforms u: walker i's weight
 * row is w[i * ws], w[i * ws + 1], ... (ws = 0 when all read one row).
 * Each adds its row's drift, atom by atom in support order
 * (jumplaws.atomic_mean), to drift[i] if drift is not NULL, and moves by
 * the inverse CDF of walks._row_atomic_index, the weights summed atom by
 * atom; capped at the last atom, where numpy would raise on a one-atom row
 * that sums below u.  The new position also goes to o[i] if o is not
 * NULL. */
INLINE void move_walkers(size_t na, size_t nt, const double *restrict w, size_t ws, const double *restrict u,
                         const int64_t *restrict support, int64_t *restrict pos, double *restrict drift,
                         int64_t *restrict o)
{
    if (drift != NULL) {
        for (size_t i = 0; i < nt; i++) {
            double m = w[i * ws] * (double)support[0];
            for (size_t a = 1; a < na; a++)
                m = m + w[i * ws + a] * (double)support[a];
            drift[i] += m;
        }
    }
    for (size_t i = 0; i < nt; i++) {
        double cum = w[i * ws];
        size_t k = cum <= u[i];
        for (size_t a = 1; a + 1 < na; a++) {
            cum = cum + w[i * ws + a];
            k += cum <= u[i];
        }
        pos[i] += support[k < na ? k : na - 1];
        if (o != NULL)
            o[i] = pos[i];
    }
}

/* One tile of envwalk_walk: the nt walkers t, t + 1, ... of n, with walk
 * cell words at cells + j * n (j < n_words), positions pos and drift sums
 * drift (or NULL), for b steps; the positions after step s go to out + s *
 * n unless out is NULL.  With `shared`, all nt walkers read field r; else
 * walker i of the tile reads field r + i.  Each step hashes the key
 * prefixes of the tile's fields once (lanes, tag, level, cell-word count)
 * and, per walker, only the walker's own words: its walk cell words, its
 * field cell and the two uniforms.  A shared field's prefix goes straight
 * into each walker's lanes, and its field read with no cell word
 * (level-correlated) forms its one row, which every walker reads in
 * place.  Inlined with constant `shared` and, for pairs,
 * atom count, so that the loops vectorize. */
INLINE void walk_tile(const struct field *f, size_t na, int shared, size_t r, size_t nt, size_t n, size_t b,
                      u64 level, u64 walk_tag, const u64 *restrict cells, size_t n_words,
                      const int64_t *restrict support, int64_t *restrict pos, double *restrict drift,
                      double *restrict w, int64_t *restrict out)
{
    /* The tile's fields' lanes with the walk tag and with the field's tag absorbed. */
    const size_t nf = shared ? 1 : nt;
    u64 pw1[TILE], pw2[TILE], pe1[TILE], pe2[TILE], h1[TILE], h2[TILE];
    double u[TILE];
    tagged_lanes(nf, f->b1 + r, f->b2 + r, walk_tag, pw1, pw2);
    tagged_lanes(nf, f->b1 + r, f->b2 + r, f->tag, pe1, pe2);
    for (size_t s = 0; s < b; s++) {
        /* The walk uniform: the walk key (its field's prefix at this level
         * with n_words, then the walker's cell words) and its uniform 0. */
        if (shared) {
            u64 p1, p2;
            key_prefix(1, pw1, pw2, level + s, n_words, &p1, &p2);
            for (size_t i = 0; i < nt; i++) {
                h1[i] = p1;
                h2[i] = p2;
            }
        } else {
            key_prefix(nt, pw1, pw2, level + s, n_words, h1, h2);
        }
        for (size_t j = 0; j < n_words; j++)
            absorb_column(nt, h1, h2, cells + j * n);
        first_uniforms(nt, h1, h2, u);

        /* The weight rows of the field at the same level and pos: each
         * walker's cell under its field's prefix, or a shared field's one
         * row when it has no cell word; then the moves. */
        key_prefix(nf, pe1, pe2, level + s, f->cell_words, h1, h2);
        int64_t *o = out != NULL ? out + s * n : NULL;
        if (shared && !f->cell_words) {
            site_rows(f, na, 1, h1, h2, 0, pos, w);
            move_walkers(na, nt, w, 0, u, support, pos, drift, o);
        } else {
            site_rows(f, na, nt, h1, h2, !shared, pos, w);
            move_walkers(na, nt, w, na, u, support, pos, drift, o);
        }
    }
}

/* b steps of n walkers in one call: walks._Walker's numpy steps for a d = 1
 * field that field_read describes, with integer atoms `support`.  The
 * walkers read the fields f->b1[j], f->b2[j] in groups of g: walker i
 * reads field i / g (g = n when all read one field, 1 when each reads its
 * own).  Walker i's cell words are cells[j * n + i] for j < n_words, and
 * n_words >= 1 (the walk seed).  Step s, from `level` + s:
 *   - hashes the walk key (its field's base lanes, walk_tag, the level,
 *     n_words, the cell words) and takes its uniform 0;
 *   - reads the weight row at pos[i] and level + s, the read of
 *     envwalk_field_weights;
 *   - adds the row's drift to drift[i], if drift is not NULL;
 *   - moves pos[i] by the atom the inverse CDF picks, and writes it to
 *     out[s * n + i] unless out is NULL.
 * The walkers run a tile of at most TILE at a time; when g > 1 a tile
 * never straddles two fields, so it reads one field's key prefixes (and,
 * with no cell word, its one row) in place.  The prefixes (lanes, tag,
 * level, word count) are hashed once per field, tile and step, the rest
 * per walker (walk_tile).  w is scratch with room for n * n_atoms
 * doubles. */
VECTOR_CLONES
void envwalk_walk(const struct field *f, size_t n, size_t g, u64 walk_tag, const u64 *cells, size_t n_words,
                  const int64_t *support, int64_t *pos, double *drift, double *w, u64 level, size_t b, int64_t *out)
{
    const size_t na = f->n_atoms, run = g > 1 ? g : n;
    for (size_t t0 = 0; t0 < n; t0 += run) {
        for (size_t t = t0; t < t0 + run; t += TILE) {
            const size_t nt = t0 + run - t < TILE ? t0 + run - t : TILE, r = g > 1 ? t0 / g : t;
            double *dt = drift != NULL ? drift + t : NULL;
            int64_t *ot = out != NULL ? out + t : NULL;
#define TILE_OF(na_, shared_)                                                                       \
    walk_tile(f, na_, shared_, r, nt, n, b, level, walk_tag, cells + t, n_words, support, pos + t, dt, \
              w + t * na, ot)
            if (g > 1 && na == 2)
                TILE_OF(2, 1);
            else if (g > 1)
                TILE_OF(na, 1);
            else if (na == 2)
                TILE_OF(2, 0);
            else
                TILE_OF(na, 0);
#undef TILE_OF
        }
    }
}

/* The standard normal CDF: Cephes ndtr, the algorithm and coefficients of
 * scipy.special.ndtr (scipy 1.17), bit for bit.  x = a / sqrt(2); for
 * |x| < 1, 0.5 + 0.5 erf(x) with erf's T/U rational; otherwise
 * 0.5 erfc(|x|) with the P/Q (|x| < 8) or R/S rational times libm's
 * exp(-x^2), 0 once -x^2 < -MAXLOG, and 1 - that for x > 0.  NaN passes
 * through.  Not a target clone: a vector exp would not give libm's bits. */
static const double NDTR_T[] = {9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
                                7.00332514112805075473E3, 5.55923013010394962768E4};
static const double NDTR_U[] = {3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
                                2.26290000613890934246E4, 4.92673942608635921086E4};
static const double NDTR_P[] = {2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
                                4.86371970985681366614E1,   1.96520832956077098242E2,  5.26445194995477358631E2,
                                9.34528527171957607540E2,   1.02755188689515710272E3,  5.57535335369399327526E2};
static const double NDTR_Q[] = {1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
                                9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
                                1.65666309194161350182E3, 5.57535340817727675546E2};
static const double NDTR_R[] = {5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
                                6.16021097993053585195E0,  7.40974269950448939160E0, 2.97886665372100240670E0};
static const double NDTR_S[] = {2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
                                1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0};
#define NDTR_MAXLOG 7.09782712893383996843E2

/* Cephes polevl: c[0] x^n + ... + c[n], by Horner. */
INLINE double polevl(double x, const double *c, int n)
{
    double y = c[0];
    for (int i = 1; i <= n; i++)
        y = y * x + c[i];
    return y;
}

/* Cephes p1evl: x^n + c[0] x^(n-1) + ... + c[n-1], by Horner. */
INLINE double p1evl(double x, const double *c, int n)
{
    double y = x + c[0];
    for (int i = 1; i < n; i++)
        y = y * x + c[i];
    return y;
}

void envwalk_ndtr(size_t n, const double *a, double *out)
{
    for (size_t i = 0; i < n; i++) {
        const double x = a[i] * 0.70710678118654752440, z = fabs(x);
        double y;
        if (isnan(x)) {
            y = x;
        } else if (z < 1.0) {
            const double x2 = x * x;
            y = 0.5 + 0.5 * (x * polevl(x2, NDTR_T, 4) / p1evl(x2, NDTR_U, 5));
        } else {
            y = 0.0;
            if (-z * z >= -NDTR_MAXLOG) {
                const double e = exp(-z * z);
                y = z < 8.0 ? 0.5 * (e * polevl(z, NDTR_P, 8) / p1evl(z, NDTR_Q, 8))
                            : 0.5 * (e * polevl(z, NDTR_R, 5) / p1evl(z, NDTR_S, 6));
            }
            if (x > 0)
                y = 1.0 - y;
        }
        out[i] = y;
    }
}
