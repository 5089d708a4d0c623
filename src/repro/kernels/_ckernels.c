/*
 * Per-edge loops of the ``c`` kernel backend (see c_backend.py).
 *
 * Each function runs one stream chunk of one stateful pass and is a
 * transliteration of the ``python`` reference body: the same integer
 * comparisons, the same double expressions in the same association
 * order, the same first-index tie-breaks.  Bit-exactness with the
 * reference rests on three facts:
 *
 * - every count (degree, volume, size) is at most 2|E| < 2**53, so
 *   converting it to double is exact, and C's division of two exact
 *   doubles is Python's correctly rounded int / int true division;
 * - the library is built with -ffp-contract=off (no fused multiply-add)
 *   and without -ffast-math, so every operation rounds as IEEE 754
 *   prescribes;
 * - a replication term is 1.0 * t or 0.0 * t for finite, positive t,
 *   which is t or +0.0 exactly, so the branch-free HDRF form equals the
 *   reference's boolean-row product.
 *
 * Replica bits are addressed on the raw byte plane: bit (u, p) lives in
 * byte u * row_bytes + (p >> shift) under mask 1 << (p & low_mask), which
 * is (k, 0, 0) for a dense bool matrix and (ceil(k/8), 3, 7) for a
 * bit-packed one, so one loop serves both layouts.
 *
 * Memory safety: every index derived from the input (endpoint ids,
 * cluster ids read from v2c, partitions read from c2p) is checked against
 * the length of the array it indexes with one unsigned compare.  On a
 * miss the loop stops before touching the edge and returns its position
 * in the chunk; the caller turns that into a typed error.  Counters
 * accumulated so far are written back first.  A return of -1 means the
 * whole chunk ran.
 */

#include <math.h>
#include <stdint.h>

#define DONE ((int64_t)-1)

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
 * then the lowest-indexed least-loaded partition. */
static inline int64_t fallback(int64_t u, int64_t v, const int64_t *deg,
                               const int64_t *sizes, int64_t k,
                               int64_t capacity, uint64_t seed,
                               int64_t *n_hash)
{
    int64_t hv = deg[u] >= deg[v] ? u : v;
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

/* out[0]: edges pre-partitioned (+=); out[1]: hash fallbacks (+=). */
int64_t prepartition(const int64_t *edges, int64_t n, const int64_t *v2c,
                     const int64_t *deg, int64_t n_vert, const int64_t *c2p,
                     int64_t n_clusters, uint8_t *plane, int64_t row_bytes,
                     int64_t shift, int64_t low_mask, int64_t *sizes,
                     int64_t k, int64_t capacity, uint64_t seed,
                     int32_t *assignments, int64_t *out)
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
        int64_t c1 = v2c[u];
        int64_t c2 = v2c[v];
        if ((uint64_t)c1 >= (uint64_t)n_clusters
            || (uint64_t)c2 >= (uint64_t)n_clusters) {
            miss = i;
            break;
        }
        int64_t p = c2p[c1];
        if (c1 != c2 && p != c2p[c2])
            continue;  /* left to the remaining pass */
        if ((uint64_t)p >= (uint64_t)k) {
            miss = i;
            break;
        }
        if (sizes[p] >= capacity)
            p = fallback((int64_t)u, (int64_t)v, deg, sizes, k, capacity,
                         seed, &n_hash);
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
int64_t remaining_linear(const int64_t *edges, int64_t n, const int64_t *v2c,
                         const int64_t *deg, int64_t n_vert,
                         const int64_t *c2p, const int64_t *volumes,
                         int64_t n_clusters, uint8_t *plane,
                         int64_t row_bytes, int64_t shift, int64_t low_mask,
                         int64_t *sizes, int64_t k, int64_t capacity,
                         uint64_t seed, int32_t *assignments, int64_t *out)
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
        int64_t c1 = v2c[u];
        int64_t c2 = v2c[v];
        if ((uint64_t)c1 >= (uint64_t)n_clusters
            || (uint64_t)c2 >= (uint64_t)n_clusters) {
            miss = i;
            break;
        }
        int64_t p1 = c2p[c1];
        int64_t p2 = c2p[c2];
        if (c1 == c2 || p1 == p2)
            continue;  /* pre-partitioned in the previous pass */
        if ((uint64_t)p1 >= (uint64_t)k || (uint64_t)p2 >= (uint64_t)k) {
            miss = i;
            break;
        }
        int64_t du = deg[u];
        int64_t dv = deg[v];
        double dsum = (double)(du + dv);
        int64_t vol1 = volumes[c1];
        int64_t vol2 = volumes[c2];
        int64_t vsum = vol1 + vol2;
        /* The reference's order: ratio, then +u, then +v. */
        double s1 = vsum ? (double)vol1 / (double)vsum : 0.0;
        double s2 = vsum ? (double)vol2 / (double)vsum : 0.0;
        if (bit_of(&pl, (int64_t)u, p1))
            s1 += 2.0 - (double)du / dsum;
        if (bit_of(&pl, (int64_t)v, p1))
            s1 += 2.0 - (double)dv / dsum;
        if (bit_of(&pl, (int64_t)u, p2))
            s2 += 2.0 - (double)du / dsum;
        if (bit_of(&pl, (int64_t)v, p2))
            s2 += 2.0 - (double)dv / dsum;
        n_scored += 2;
        int64_t p = s1 >= s2 ? p1 : p2;
        if (sizes[p] >= capacity)
            p = fallback((int64_t)u, (int64_t)v, deg, sizes, k, capacity,
                         seed, &n_hash);
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
int64_t remaining_hdrf(const int64_t *edges, int64_t n, const int64_t *v2c,
                       const int64_t *deg, int64_t n_vert,
                       const int64_t *c2p, int64_t n_clusters,
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
        int64_t c1 = v2c[u];
        int64_t c2 = v2c[v];
        if ((uint64_t)c1 >= (uint64_t)n_clusters
            || (uint64_t)c2 >= (uint64_t)n_clusters) {
            miss = i;
            break;
        }
        if (c1 == c2 || c2p[c1] == c2p[c2])
            continue;
        int64_t du = deg[u];
        int64_t dv = deg[v];
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
