/*
 * Loops of the ``c`` kernel backend (see c_backend.py).
 *
 * Each pass function runs one stream chunk of one stateful pass; the
 * barrier and mapping functions at the end run once per sync window or
 * per run.  Each is a transliteration of the ``python`` reference body:
 * the same integer comparisons, the same double expressions in the same
 * association order, the same first-index tie-breaks.  Bit-exactness
 * with the reference rests on three facts:
 *
 * - every count (degree, volume, size) is at most 2|E| < 2**53, so
 *   converting it to double is exact, and C's division of two exact
 *   doubles is Python's correctly rounded int / int true division;
 * - the library is built with -ffp-contract=off (no fused multiply-add)
 *   and without -ffast-math, so every operation rounds as IEEE 754
 *   prescribes;
 * - a replication term is 1.0 * t or 0.0 * t for finite, positive t,
 *   which is t or +0.0 exactly, and adding +0.0 to a score leaves it
 *   unchanged (no score is -0.0).  So the branch-free HDRF form equals
 *   the reference's boolean-row product, and the branch-free 2PS-L form
 *   s += bit * t equals the reference's "if bit: s += t": there
 *   t = 2 - d/dsum, and both endpoints of a scored edge are clustered,
 *   so both degrees are at least 1 (phase2_inputs checks it) and
 *   dsum >= 2 makes t finite and positive.
 *
 * Replica bits are addressed on the raw byte plane: bit (u, p) lives in
 * byte u * row_bytes + (p >> shift) under mask 1 << (p & low_mask), which
 * is (k, 0, 0) for a dense bool matrix and (ceil(k/8), 3, 7) for a
 * bit-packed one, so one loop serves both layouts.
 *
 * Phase 2 reads two per-vertex arrays built once per run
 * (kernels.base.phase2_inputs): part[x], the partition of x's cluster or
 * -1, and the row weights[2x], weights[2x + 1] = (degree, cluster
 * volume).  An endpoint costs one gather into each.
 *
 * Memory safety: every index derived from the input (endpoint ids,
 * cluster ids read from v2c or from a worker's clustering export,
 * partitions read from part) is checked against the length of the array
 * it indexes with one unsigned compare.  On a miss the loop stops before
 * touching the edge and returns its position in the chunk; the caller
 * turns that into a typed error.  Counters accumulated so far are
 * written back first.  A return of -1 means the whole chunk ran.  The
 * caller checks array lengths and layouts before each call.  The
 * Phase-2 loops prefetch the rows of edge i + AHEAD while they work on
 * edge i, but only when that edge lies inside the chunk and both its ids
 * passed the same compare, so no prefetch reads past an edge chunk or
 * names an address outside part, weights or the replica plane.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define DONE ((int64_t)-1)

/* Look-ahead of the Phase-2 prefetches, in edges.  At R-MAT scale 18,
 * k = 32, prefetching took 2-7% off the three loops (best of 5); at
 * scale 16 the per-vertex arrays fit in L2 and no difference stood out
 * of the host's noise, nor did one between distances 8 and 32. */
#define AHEAD 12

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PREFETCH(addr) ((void)(addr))
#endif

typedef struct {
    uint8_t *base;
    int64_t row_bytes;
    int64_t shift;
    int64_t low_mask;
} plane_t;

static inline int64_t bit_of(const plane_t *pl, int64_t row, int64_t p)
{
    return (pl->base[row * pl->row_bytes + (p >> pl->shift)]
            >> (p & pl->low_mask)) & 1;
}

static inline void set_bits(const plane_t *pl, int64_t u, int64_t v,
                            int64_t p)
{
    int64_t b = p >> pl->shift;
    uint8_t m = (uint8_t)(1u << (p & pl->low_mask));
    pl->base[u * pl->row_bytes + b] |= m;
    pl->base[v * pl->row_bytes + b] |= m;
}

/* SplitMix64 finalizer, the twin of hashutil.splitmix64_int. */
static inline uint64_t splitmix64(uint64_t x, uint64_t seed)
{
    x = x + 0x9E3779B97F4A7C15ULL + seed;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* PythonBackend._fallback_partition: hash on the higher-degree endpoint,
 * then the lowest-indexed least-loaded partition.  Degrees are column 0
 * of the weights rows. */
static inline int64_t fallback(int64_t u, int64_t v, const int64_t *weights,
                               const int64_t *sizes, int64_t k,
                               int64_t capacity, uint64_t seed,
                               int64_t *n_hash)
{
    int64_t hv = weights[2 * u] >= weights[2 * v] ? u : v;
    int64_t p = (int64_t)(splitmix64((uint64_t)hv, seed) % (uint64_t)k);
    (*n_hash)++;
    if (sizes[p] >= capacity) {
        p = 0;
        for (int64_t q = 1; q < k; q++)
            if (sizes[q] < sizes[p])
                p = q;
    }
    return p;
}

/* ------------------------------------------------------------------ */
/* Phase 1: streaming clustering                                      */
/* ------------------------------------------------------------------ */

/* out[0]: filled volume slots (in/out); out[1]: cluster updates (+=). */
int64_t cluster_pass(const int64_t *edges, int64_t n, int64_t partial,
                     int64_t *v2c, int64_t *deg, int64_t n_vert,
                     int64_t *vol, int64_t vol_cap, double cap,
                     int64_t *out)
{
    int64_t n_vol = out[0];
    int64_t updates = 0;
    int64_t miss = DONE;
    for (int64_t i = 0; i < n; i++) {
        uint64_t u = (uint64_t)edges[2 * i];
        uint64_t v = (uint64_t)edges[2 * i + 1];
        if (u >= (uint64_t)n_vert || v >= (uint64_t)n_vert) {
            miss = i;
            break;
        }
        int64_t cu = v2c[u];
        int64_t cv = v2c[v];
        /* A fresh cluster needs a slot; a stored id must name one. */
        if ((cu < 0 || cv < 0) && n_vol + 2 > vol_cap) {
            miss = i;
            break;
        }
        if ((cu >= 0 && cu >= n_vol) || (cv >= 0 && cv >= n_vol)) {
            miss = i;
            break;
        }
        if (partial) {
            /* Hollocou: degrees counted on the fly, fresh volumes 0. */
            deg[u]++;
            deg[v]++;
            if (cu < 0) {
                cu = n_vol++;
                v2c[u] = cu;
                vol[cu] = 0;
            }
            cv = v2c[v];
            if (cv < 0) {
                cv = n_vol++;
                v2c[v] = cv;
                vol[cv] = 0;
            }
            vol[cu]++;
            vol[cv]++;
        } else {
            /* Algorithm 1: a fresh singleton's volume is its degree. */
            if (cu < 0) {
                cu = n_vol++;
                v2c[u] = cu;
                vol[cu] = deg[u];
                updates++;
            }
            cv = v2c[v];
            if (cv < 0) {
                cv = n_vol++;
                v2c[v] = cv;
                vol[cv] = deg[v];
                updates++;
            }
        }
        if (cu == cv)
            continue;
        int64_t vol_u = vol[cu];
        int64_t vol_v = vol[cv];
        if ((double)vol_u <= cap && (double)vol_v <= cap) {
            /* v_s: the endpoint whose cluster (without it) is smaller. */
            int64_t vs, cs, cl, ds;
            if (vol_u - deg[u] <= vol_v - deg[v]) {
                vs = (int64_t)u; cs = cu; cl = cv; ds = deg[u];
            } else {
                vs = (int64_t)v; cs = cv; cl = cu; ds = deg[v];
            }
            if ((double)(vol[cl] + ds) <= cap) {
                vol[cl] += ds;
                vol[cs] -= ds;
                v2c[vs] = cl;
                updates++;
            }
        }
    }
    out[0] = n_vol;
    out[1] += updates;
    return miss;
}

/* ------------------------------------------------------------------ */
/* Phase 2: pre-partitioning and the 2PS-L remaining pass             */
/* ------------------------------------------------------------------ */

/* Prefetch part, the weights row and the replica row of both endpoints
 * of edge i + AHEAD, if the chunk holds that edge and both its ids lie
 * below n_vert. */
static inline void prefetch_ahead(const int64_t *edges, int64_t i, int64_t n,
                                  const int32_t *part,
                                  const int64_t *weights, int64_t n_vert,
                                  const plane_t *pl)
{
    if (i + AHEAD >= n)
        return;
    uint64_t a = (uint64_t)edges[2 * (i + AHEAD)];
    uint64_t b = (uint64_t)edges[2 * (i + AHEAD) + 1];
    if (a >= (uint64_t)n_vert || b >= (uint64_t)n_vert)
        return;
    PREFETCH(part + a);
    PREFETCH(part + b);
    PREFETCH(weights + 2 * a);
    PREFETCH(weights + 2 * b);
    PREFETCH(pl->base + (int64_t)a * pl->row_bytes);
    PREFETCH(pl->base + (int64_t)b * pl->row_bytes);
}

/* out[0]: edges pre-partitioned (+=); out[1]: hash fallbacks (+=). */
int64_t prepartition(const int64_t *edges, int64_t n, const int32_t *part,
                     const int64_t *weights, int64_t n_vert, uint8_t *plane,
                     int64_t row_bytes, int64_t shift, int64_t low_mask,
                     int64_t *sizes, int64_t k, int64_t capacity,
                     uint64_t seed, int32_t *assignments, int64_t *out)
{
    plane_t pl = {plane, row_bytes, shift, low_mask};
    int64_t n_pre = 0, n_hash = 0;
    int64_t miss = DONE;
    for (int64_t i = 0; i < n; i++) {
        uint64_t u = (uint64_t)edges[2 * i];
        uint64_t v = (uint64_t)edges[2 * i + 1];
        if (u >= (uint64_t)n_vert || v >= (uint64_t)n_vert) {
            miss = i;
            break;
        }
        prefetch_ahead(edges, i, n, part, weights, n_vert, &pl);
        int64_t p = part[u];
        if (p != part[v])
            continue;  /* left to the remaining pass */
        if ((uint64_t)p >= (uint64_t)k) {
            miss = i;
            break;
        }
        if (sizes[p] >= capacity)
            p = fallback((int64_t)u, (int64_t)v, weights, sizes, k,
                         capacity, seed, &n_hash);
        sizes[p]++;
        set_bits(&pl, (int64_t)u, (int64_t)v, p);
        assignments[i] = (int32_t)p;
        n_pre++;
    }
    out[0] += n_pre;
    out[1] += n_hash;
    return miss;
}

/* out[0]: score evaluations (+=, two per scored edge); out[1]: hash
 * fallbacks (+=). */
int64_t remaining_linear(const int64_t *edges, int64_t n, const int32_t *part,
                         const int64_t *weights, int64_t n_vert,
                         uint8_t *plane, int64_t row_bytes, int64_t shift,
                         int64_t low_mask, int64_t *sizes, int64_t k,
                         int64_t capacity, uint64_t seed,
                         int32_t *assignments, int64_t *out)
{
    plane_t pl = {plane, row_bytes, shift, low_mask};
    int64_t n_scored = 0, n_hash = 0;
    int64_t miss = DONE;
    for (int64_t i = 0; i < n; i++) {
        uint64_t u = (uint64_t)edges[2 * i];
        uint64_t v = (uint64_t)edges[2 * i + 1];
        if (u >= (uint64_t)n_vert || v >= (uint64_t)n_vert) {
            miss = i;
            break;
        }
        prefetch_ahead(edges, i, n, part, weights, n_vert, &pl);
        int64_t p1 = part[u];
        int64_t p2 = part[v];
        if (p1 == p2)
            continue;  /* pre-partitioned in the previous pass */
        if ((uint64_t)p1 >= (uint64_t)k || (uint64_t)p2 >= (uint64_t)k) {
            miss = i;
            break;
        }
        const int64_t *wu = weights + 2 * u;
        const int64_t *wv = weights + 2 * v;
        double dsum = (double)(wu[0] + wv[0]);
        double tu = 2.0 - (double)wu[0] / dsum;
        double tv = 2.0 - (double)wv[0] / dsum;
        int64_t vsum = wu[1] + wv[1];
        /* The reference's order: ratio, then +u, then +v. */
        double s1 = vsum ? (double)wu[1] / (double)vsum : 0.0;
        double s2 = vsum ? (double)wv[1] / (double)vsum : 0.0;
        s1 += (double)bit_of(&pl, (int64_t)u, p1) * tu;
        s1 += (double)bit_of(&pl, (int64_t)v, p1) * tv;
        s2 += (double)bit_of(&pl, (int64_t)u, p2) * tu;
        s2 += (double)bit_of(&pl, (int64_t)v, p2) * tv;
        n_scored += 2;
        int64_t p = s1 >= s2 ? p1 : p2;
        if (sizes[p] >= capacity)
            p = fallback((int64_t)u, (int64_t)v, weights, sizes, k,
                         capacity, seed, &n_hash);
        sizes[p]++;
        set_bits(&pl, (int64_t)u, (int64_t)v, p);
        assignments[i] = (int32_t)p;
    }
    out[0] += n_scored;
    out[1] += n_hash;
    return miss;
}

/* ------------------------------------------------------------------ */
/* HDRF: the full k-way argmax of PythonBackend.hdrf_choose           */
/* ------------------------------------------------------------------ */

/* Per-call cache of the balance term.  bal[q] holds exactly the
 * reference's lam * (max - s_q) / (eps + max - min), or -inf for a
 * partition at the hard cap (the reference's mask: a finite replication
 * term plus -inf is -inf).  Sizes only grow inside a call, so an entry
 * goes stale only when its own size, the maximum or the minimum moves;
 * every such move recomputes what it touched. */
typedef struct {
    int64_t *sizes;
    double *bal;
    int64_t k;
    int64_t capacity;
    double lam;
    double eps;
    int64_t smax;
    int64_t smin;
    int64_t n_min;  /* partitions at the minimum size */
    double max_f;
    double denom;
} balance_t;

static inline double balance_of(const balance_t *b, int64_t s)
{
    if (s >= b->capacity)
        return -INFINITY;
    return (b->lam * (b->max_f - (double)s)) / b->denom;
}

static void balance_refresh(balance_t *b)
{
    b->max_f = (double)b->smax;
    b->denom = (b->eps + b->max_f) - (double)b->smin;
    for (int64_t q = 0; q < b->k; q++)
        b->bal[q] = balance_of(b, b->sizes[q]);
}

static void balance_init(balance_t *b)
{
    int64_t smax = b->sizes[0], smin = b->sizes[0];
    for (int64_t q = 1; q < b->k; q++) {
        int64_t s = b->sizes[q];
        if (s > smax)
            smax = s;
        if (s < smin)
            smin = s;
    }
    int64_t n_min = 0;
    for (int64_t q = 0; q < b->k; q++)
        n_min += b->sizes[q] == smin;
    b->smax = smax;
    b->smin = smin;
    b->n_min = n_min;
    balance_refresh(b);
}

/* Assign one edge to p: grow sizes[p] and refresh the cache. */
static inline void balance_grow(balance_t *b, int64_t p)
{
    int64_t old = b->sizes[p]++;
    int stale = 0;
    if (old + 1 > b->smax) {
        b->smax = old + 1;
        stale = 1;
    }
    if (old == b->smin && --b->n_min == 0) {
        /* Every other partition was above the old minimum. */
        b->smin = old + 1;
        for (int64_t q = 0; q < b->k; q++)
            b->n_min += b->sizes[q] == b->smin;
        stale = 1;
    }
    if (stale)
        balance_refresh(b);
    else
        b->bal[p] = balance_of(b, old + 1);
}

/* First-index argmax over all k partitions of rep(q) + bal[q]. */
static inline int64_t hdrf_pick(const plane_t *pl, const balance_t *b,
                                int64_t u, int64_t v, double theta)
{
    const double tu = 2.0 - theta;
    const double tv = 1.0 + theta;
    const uint8_t *ru = pl->base + u * pl->row_bytes;
    const uint8_t *rv = pl->base + v * pl->row_bytes;
    const double *bal = b->bal;
    int64_t best_p = 0;
    double best = -INFINITY;
    if (pl->shift == 0) {
        for (int64_t q = 0; q < b->k; q++) {
            double s = ((double)ru[q] * tu + (double)rv[q] * tv) + bal[q];
            int gt = q == 0 || s > best;
            best = gt ? s : best;
            best_p = gt ? q : best_p;
        }
    } else {
        for (int64_t q = 0; q < b->k; q++) {
            double bu = (double)((ru[q >> 3] >> (q & 7)) & 1);
            double bv = (double)((rv[q >> 3] >> (q & 7)) & 1);
            double s = (bu * tu + bv * tv) + bal[q];
            int gt = q == 0 || s > best;
            best = gt ? s : best;
            best_p = gt ? q : best_p;
        }
    }
    return best_p;
}

/* 2PS-HDRF remaining pass.  out[0]: edges scored (+=). */
int64_t remaining_hdrf(const int64_t *edges, int64_t n, const int32_t *part,
                       const int64_t *weights, int64_t n_vert,
                       uint8_t *plane, int64_t row_bytes, int64_t shift,
                       int64_t low_mask, int64_t *sizes, int64_t k,
                       int64_t capacity, double lam, double eps,
                       double *scratch, int32_t *assignments, int64_t *out)
{
    plane_t pl = {plane, row_bytes, shift, low_mask};
    balance_t b = {.sizes = sizes, .bal = scratch, .k = k,
                   .capacity = capacity, .lam = lam, .eps = eps};
    balance_init(&b);
    int64_t n_rem = 0;
    int64_t miss = DONE;
    for (int64_t i = 0; i < n; i++) {
        uint64_t u = (uint64_t)edges[2 * i];
        uint64_t v = (uint64_t)edges[2 * i + 1];
        if (u >= (uint64_t)n_vert || v >= (uint64_t)n_vert) {
            miss = i;
            break;
        }
        prefetch_ahead(edges, i, n, part, weights, n_vert, &pl);
        int64_t p1 = part[u];
        int64_t p2 = part[v];
        if (p1 == p2)
            continue;
        if ((uint64_t)p1 >= (uint64_t)k || (uint64_t)p2 >= (uint64_t)k) {
            miss = i;
            break;
        }
        int64_t du = weights[2 * u];
        int64_t dv = weights[2 * v];
        double theta = (double)du / (double)(du + dv);
        int64_t p = hdrf_pick(&pl, &b, (int64_t)u, (int64_t)v, theta);
        balance_grow(&b, p);
        set_bits(&pl, (int64_t)u, (int64_t)v, p);
        assignments[i] = (int32_t)p;
        n_rem++;
    }
    out[0] += n_rem;
    return miss;
}

/* Classic HDRF baseline: partial degrees bumped before each edge is
 * scored, every edge participates.  out[0]: edges scored (+=). */
int64_t hdrf_baseline(const int64_t *edges, int64_t n, int64_t *partial,
                      int64_t n_vert, uint8_t *plane, int64_t row_bytes,
                      int64_t shift, int64_t low_mask, int64_t *sizes,
                      int64_t k, int64_t capacity, double lam, double eps,
                      double *scratch, int32_t *assignments, int64_t *out)
{
    plane_t pl = {plane, row_bytes, shift, low_mask};
    balance_t b = {.sizes = sizes, .bal = scratch, .k = k,
                   .capacity = capacity, .lam = lam, .eps = eps};
    balance_init(&b);
    int64_t i;
    for (i = 0; i < n; i++) {
        uint64_t u = (uint64_t)edges[2 * i];
        uint64_t v = (uint64_t)edges[2 * i + 1];
        if (u >= (uint64_t)n_vert || v >= (uint64_t)n_vert)
            break;
        partial[u]++;
        partial[v]++;
        int64_t du = partial[u];
        int64_t dv = partial[v];
        double theta = (double)du / (double)(du + dv);
        int64_t p = hdrf_pick(&pl, &b, (int64_t)u, (int64_t)v, theta);
        balance_grow(&b, p);
        set_bits(&pl, (int64_t)u, (int64_t)v, p);
        assignments[i] = (int32_t)p;
    }
    out[0] += i;
    return i < n ? i : DONE;
}

/* ------------------------------------------------------------------ */
/* Barriers and the cluster mapping: once per sync window or per run  */
/* ------------------------------------------------------------------ */

/* dst |= src, and dst = src, over one replica row: 8 bytes at a time,
 * then 4, then single bytes (fixed-size memcpy compiles to one load or
 * store). */
static inline void or_row(uint8_t *restrict dst, const uint8_t *restrict src,
                          int64_t nb)
{
    int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
        uint64_t a, b;
        memcpy(&a, dst + j, 8);
        memcpy(&b, src + j, 8);
        a |= b;
        memcpy(dst + j, &a, 8);
    }
    if (j + 4 <= nb) {
        uint32_t a, b;
        memcpy(&a, dst + j, 4);
        memcpy(&b, src + j, 4);
        a |= b;
        memcpy(dst + j, &a, 4);
        j += 4;
    }
    for (; j < nb; j++)
        dst[j] |= src[j];
}

static inline void copy_row(uint8_t *restrict dst,
                            const uint8_t *restrict src, int64_t nb)
{
    int64_t j = 0;
    for (; j + 8 <= nb; j += 8)
        memcpy(dst + j, src + j, 8);
    if (j + 4 <= nb) {
        memcpy(dst + j, src + j, 4);
        j += 4;
    }
    for (; j < nb; j++)
        dst[j] = src[j];
}

/* Phase-2 delta barrier, the twin of state.merge_replica_deltas: every
 * row some view marks dirty becomes the OR of the global row and every
 * view's row, in the global plane and in every view; the bitmaps end
 * clear.  Sizes become g + sum(view - g), in unsigned arithmetic so a
 * wrap matches numpy's int64.  Clean rows are bit-identical everywhere,
 * so skipping them is exact.  Returns the rows merged. */
int64_t merge_deltas(uint8_t *plane, int64_t *sizes, int64_t n_rows,
                     int64_t row_bytes, int64_t k, uint8_t *const *planes,
                     uint8_t *const *dirty, int64_t *const *view_sizes,
                     int64_t n_views)
{
    int64_t rows = 0;
    int64_t idx[256];
    for (int64_t r0 = 0; r0 < n_rows; r0 += 256) {
        /* Gather the block's dirty rows without a branch per row: dirty
         * rows are scattered, so a branch on each mispredicts often. */
        int64_t r1 = r0 + 256 < n_rows ? r0 + 256 : n_rows;
        int64_t m = 0;
        for (int64_t r = r0; r < r1; r++) {
            uint8_t d = 0;
            for (int64_t w = 0; w < n_views; w++)
                d |= dirty[w][r];
            idx[m] = r;
            m += d != 0;
        }
        rows += m;
        for (int64_t i = 0; i < m; i++) {
            /* A view may alias the global plane; the row helpers take
             * restrict pointers, so such a view is skipped. */
            uint8_t *g = plane + idx[i] * row_bytes;
            for (int64_t w = 0; w < n_views; w++) {
                const uint8_t *v = planes[w] + idx[i] * row_bytes;
                if (v != g)
                    or_row(g, v, row_bytes);
            }
            for (int64_t w = 0; w < n_views; w++) {
                uint8_t *v = planes[w] + idx[i] * row_bytes;
                if (v != g)
                    copy_row(v, g, row_bytes);
            }
        }
    }
    for (int64_t w = 0; w < n_views; w++)
        memset(dirty[w], 0, (size_t)n_rows);
    for (int64_t p = 0; p < k; p++) {
        uint64_t g = (uint64_t)sizes[p];
        uint64_t merged = g;
        for (int64_t w = 0; w < n_views; w++)
            merged += (uint64_t)view_sizes[w][p] - g;
        sizes[p] = (int64_t)merged;
        for (int64_t w = 0; w < n_views; w++)
            view_sizes[w][p] = (int64_t)merged;
    }
    return rows;
}

/* Phase-1 clustering barrier, the twin of
 * PythonBackend.merge_phase1_clustering: the ordered first-worker-wins
 * fold of the exports against the snapshot, fresh ids remapped to one
 * sequence in worker order, then volumes recomputed as the sum of
 * member true degrees.  Worker w's ids lie in [-1, n_ids[w]); the
 * snapshot's merged ids in [0, n_vol).  merged holds n slots, claimed n
 * zeroed bytes, vol n_vol zeroed slots.  On an id outside its range the
 * fold stops and returns the vertex, with *bad set to the worker (-1
 * for the snapshot). */
int64_t merge_clustering(const int64_t *snapshot, int64_t n, int64_t base,
                         const int64_t *const *exports, const int64_t *n_ids,
                         int64_t n_workers, const int64_t *deg,
                         int64_t *merged, uint8_t *claimed, int64_t *vol,
                         int64_t n_vol, int64_t *bad)
{
    memcpy(merged, snapshot, (size_t)n * sizeof(int64_t));
    int64_t offset = base;
    for (int64_t w = 0; w < n_workers; w++) {
        const int64_t *v2c = exports[w];
        int64_t shift = offset - base;
        for (int64_t i = 0; i < n; i++) {
            int64_t c = v2c[i];
            if (c == snapshot[i])
                continue;
            if ((uint64_t)c + 1 > (uint64_t)n_ids[w]) {
                *bad = w;
                return i;
            }
            if (claimed[i])
                continue;
            merged[i] = c >= base ? c + shift : c;
            claimed[i] = 1;
        }
        offset += n_ids[w] - base;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t c = merged[i];
        if (c < 0)
            continue;
        if ((uint64_t)c >= (uint64_t)n_vol) {
            *bad = -1;
            return i;
        }
        vol[c] += deg[i];
    }
    return DONE;
}

/* (load, partition) order of the mapping heap; the keys are distinct. */
static inline int lighter(const int64_t *loads, int64_t a, int64_t b)
{
    return loads[a] < loads[b] || (loads[a] == loads[b] && a < b);
}

/* Graham's list scheduling, the twin of PythonBackend.list_schedule:
 * job j, in the given order, goes to the partition of least load,
 * lowest index on ties.  heap holds k partition ids as a binary heap
 * under (load, partition); since no two keys are equal, its minimum is
 * the one heapq pops. */
int64_t list_schedule(const int64_t *jobs, int64_t n, int64_t k,
                      int64_t *heap, int64_t *loads, int64_t *parts)
{
    for (int64_t p = 0; p < k; p++) {
        heap[p] = p;
        loads[p] = 0;
    }
    for (int64_t j = 0; j < n; j++) {
        int64_t p = heap[0];
        parts[j] = p;
        loads[p] += jobs[j];
        int64_t i = 0;
        for (;;) {
            int64_t c = 2 * i + 1;
            if (c >= k)
                break;
            if (c + 1 < k && lighter(loads, heap[c + 1], heap[c]))
                c++;
            if (!lighter(loads, heap[c], p))
                break;
            heap[i] = heap[c];
            i = c;
        }
        heap[i] = p;
    }
    return DONE;
}
