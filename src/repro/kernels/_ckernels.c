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
 * Set-bit logs: on a sharded run the three Phase-2 loops append every
 * bit they set that was clear, as the cell u * k + p, to the worker's
 * log (kernels.base.ReplicaLog), u's bit before v's as the reference
 * does; a NULL log (the sequential path, the HDRF baseline) costs one
 * test per bit.  A loop never writes past the log's capacity: it counts
 * on, and the caller raises for a fill beyond it.  The barrier
 * (apply_log) sets the logged bits in one plane.
 *
 * Phase 2 reads two per-vertex arrays built once per run
 * (kernels.base.phase2_inputs): part[x], the partition of x's cluster or
 * -1, and the row weights[2x], weights[2x + 1] = (degree, cluster
 * volume).  An endpoint costs one gather into each.
 *
 * Move logs: a sharded clustering pass appends the row (vertex, old id,
 * new id) of every v2c write to its worker's log (kernels.base.MoveLog);
 * a NULL log (the sequential path) compiles to the unlogged loop.  The
 * barrier (merge_moves) and each worker's refresh (refresh_clustering)
 * then work in O(moves).
 *
 * Memory safety: every index derived from the input (endpoint ids,
 * cluster ids read from v2c or from a worker's moves, partitions read
 * from part) is checked against the length of the array it indexes with
 * one unsigned compare.  On a miss the loop stops before
 * touching the edge and returns its position in the chunk; the caller
 * turns that into a typed error (the degree pass instead grows its
 * array and resumes there).  Counters accumulated so far are written
 * back first.  A return of -1 means the whole chunk ran.  The caller
 * checks array lengths and layouts before each call.
 *
 * Look-ahead: the two remaining passes prefetch the rows of edge
 * i + AHEAD while they work on edge i, and the clustering pass prefetches
 * v2c and deg of edge i + CL_AHEAD and the volume slots of the clusters
 * of edge i + CL_AHEAD / 2.  A prefetch goes out only when that edge lies
 * inside the chunk and both its ids passed the same compare (and, for a
 * volume slot, the cluster id lies below the reserved volume length), so
 * no prefetch or look-ahead load reads past an edge chunk or names an
 * address outside its array.  The pre-partition pass leaves about 95% of
 * its edges to the remaining pass and measured slower with a look-ahead;
 * the degree pass measured slower with a write prefetch.  GCC deletes a
 * call to a helper whose only effect is a prefetch (it counts as free of
 * side effects), so the helpers are forced inline: objdump -d
 * --disassemble=remaining_linear must show prefetch instructions.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define DONE ((int64_t)-1)

/* Look-ahead of the remaining passes' prefetches, in edges (not tuned). */
#define AHEAD 12

/* Look-ahead of the clustering pass: v2c and deg of edge i + CL_AHEAD,
 * then the volume slots of edge i + CL_AHEAD / 2, whose cluster ids the
 * first prefetch has brought in by then. */
#define CL_AHEAD 16

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(addr) __builtin_prefetch(addr)
#define FORCE_INLINE inline __attribute__((always_inline))
#define UNLIKELY(cond) __builtin_expect(!!(cond), 0)
#else
#define PREFETCH(addr) ((void)(addr))
#define FORCE_INLINE inline
#define UNLIKELY(cond) (cond)
#endif

/* All ones when cond holds, else zero: a select without a branch. */
#define MASK(cond) (-(int64_t)(cond))
#define SELECT(mask, a, b) (((a) & (mask)) | ((b) & ~(mask)))

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

typedef struct {
    int64_t *cells; /* NULL: nothing is logged */
    int64_t cap;
    int64_t fill;
    int64_t k;
} log_t;

static inline log_t log_open(int64_t *cells, int64_t cap, const int64_t *fill,
                             int64_t k)
{
    log_t lg = {cells, cap, cells ? *fill : 0, k};
    return lg;
}

static inline void log_close(const log_t *lg, int64_t *fill)
{
    if (lg->cells)
        *fill = lg->fill;
}

/* Set bit m of *byte, the bit of cell x * k + p; log the cell first if
 * the bit was clear. */
static inline void log_bit(log_t *lg, uint8_t *byte, uint8_t m, int64_t x,
                           int64_t p)
{
    if (!(*byte & m)) {
        if (lg->fill < lg->cap)
            lg->cells[lg->fill] = x * lg->k + p;
        lg->fill++;
    }
    *byte |= m;
}

/* Set bit p of rows u and v.  One test per edge keeps the unlogged path
 * the plain two ORs, and marking the logged one cold keeps the
 * sequential loops' registers for them: without the hint the dense 2PS-L
 * remaining pass measured 2.5% slower than with no log at all. */
static inline void set_bits(const plane_t *pl, log_t *lg, int64_t u,
                            int64_t v, int64_t p)
{
    int64_t b = p >> pl->shift;
    uint8_t m = (uint8_t)(1u << (p & pl->low_mask));
    uint8_t *bu = pl->base + u * pl->row_bytes + b;
    uint8_t *bv = pl->base + v * pl->row_bytes + b;
    if (UNLIKELY(lg->cells)) {
        log_bit(lg, bu, m, u, p);
        log_bit(lg, bv, m, v, p);
    } else {
        *bu |= m;
        *bv |= m;
    }
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
/* Phase 1: the degree pass and streaming clustering                  */
/* ------------------------------------------------------------------ */

/* deg[x] += 1 for both endpoints of every edge.  An id at or beyond
 * n_vert stops the loop before its edge, so the caller can grow deg and
 * resume there. */
int64_t degree_pass(const int64_t *edges, int64_t n, int64_t *deg,
                    int64_t n_vert)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t u = (uint64_t)edges[2 * i];
        uint64_t v = (uint64_t)edges[2 * i + 1];
        if (u >= (uint64_t)n_vert || v >= (uint64_t)n_vert)
            return i;
        deg[u]++;
        deg[v]++;
    }
    return DONE;
}

/* Prefetch v2c and deg of both endpoints of edge i + CL_AHEAD, and the
 * volume slots of the clusters of edge i + CL_AHEAD / 2, under the
 * guards of the header comment. */
static FORCE_INLINE void cluster_ahead(const int64_t *edges, int64_t i,
                                       int64_t n, const int64_t *v2c,
                                       const int64_t *deg, int64_t n_vert,
                                       const int64_t *vol, int64_t vol_cap)
{
    if (i + CL_AHEAD < n) {
        uint64_t a = (uint64_t)edges[2 * (i + CL_AHEAD)];
        uint64_t b = (uint64_t)edges[2 * (i + CL_AHEAD) + 1];
        if (a < (uint64_t)n_vert && b < (uint64_t)n_vert) {
            PREFETCH(v2c + a);
            PREFETCH(v2c + b);
            PREFETCH(deg + a);
            PREFETCH(deg + b);
        }
    }
    if (i + CL_AHEAD / 2 < n) {
        uint64_t a = (uint64_t)edges[2 * (i + CL_AHEAD / 2)];
        uint64_t b = (uint64_t)edges[2 * (i + CL_AHEAD / 2) + 1];
        if (a < (uint64_t)n_vert && b < (uint64_t)n_vert) {
            uint64_t ca = (uint64_t)v2c[a];
            uint64_t cb = (uint64_t)v2c[b];
            if (ca < (uint64_t)vol_cap)
                PREFETCH(vol + ca);
            if (cb < (uint64_t)vol_cap)
                PREFETCH(vol + cb);
        }
    }
}

/* The move log of a sharded clustering window (kernels.base.MoveLog):
 * rows (vertex, old id, new id) of its v2c writes. */
typedef struct {
    int64_t *rows;
    int64_t cap;
    int64_t fill;
} moves_t;

/* Write the row of a candidate v2c write at the fill mark, and count it
 * only when keep (0 or 1) holds: a move is logged without a branch.  A
 * loop never writes past the capacity; the caller raises for a fill
 * beyond it. */
static inline void log_write(moves_t *lg, int64_t x, int64_t old,
                             int64_t id, int64_t keep)
{
    if (lg->fill < lg->cap) {
        int64_t *row = lg->rows + 3 * lg->fill;
        row[0] = x;
        row[1] = old;
        row[2] = id;
    }
    lg->fill += keep;
}

/* The clustering loop; logging is a constant in each of cluster_pass's
 * two calls, so the unlogged loop (the sequential path) carries no log
 * test. */
static FORCE_INLINE int64_t cluster_loop(const int64_t *edges, int64_t n,
                                         int64_t partial, int64_t *v2c,
                                         int64_t *deg, int64_t n_vert,
                                         int64_t *vol, int64_t vol_cap,
                                         double cap, moves_t *lg,
                                         const int logging, int64_t *out)
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
        cluster_ahead(edges, i, n, v2c, deg, n_vert, vol, vol_cap);
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
                if (logging)
                    log_write(lg, (int64_t)u, -1, cu, 1);
            }
            cv = v2c[v];
            if (cv < 0) {
                cv = n_vol++;
                v2c[v] = cv;
                vol[cv] = deg[v];
                updates++;
                if (logging)
                    log_write(lg, (int64_t)v, -1, cv, 1);
            }
        }
        /* The move, without a branch: v_s is the endpoint whose cluster
         * (without it) is smaller, c_s its cluster and c_l the other.
         * It moves when the clusters differ and all three volumes stay
         * within cap; otherwise every store below writes back what it
         * read.  & of the comparisons equals the reference's "and", as
         * none of them has a side effect. */
        int64_t vol_u = vol[cu];
        int64_t vol_v = vol[cv];
        int64_t du = deg[u];
        int64_t dv = deg[v];
        int64_t take_u = MASK(vol_u - du <= vol_v - dv);
        int64_t vs = SELECT(take_u, (int64_t)u, (int64_t)v);
        int64_t cs = SELECT(take_u, cu, cv);
        int64_t cl = SELECT(take_u, cv, cu);
        int64_t ds = SELECT(take_u, du, dv);
        int64_t vol_l = SELECT(take_u, vol_v, vol_u);
        int64_t move = (cu != cv) & ((double)vol_u <= cap)
                       & ((double)vol_v <= cap)
                       & ((double)(vol_l + ds) <= cap);
        int64_t d = ds & MASK(move);
        vol[cl] += d;
        vol[cs] -= d;
        v2c[vs] = SELECT(MASK(move), cl, cs);
        updates += move;
        if (logging)
            log_write(lg, vs, cs, cl, move);
    }
    out[0] = n_vol;
    out[1] += updates;
    return miss;
}

/* out[0]: filled volume slots (in/out); out[1]: cluster updates (+=).
 * With a log (rows, log_cap rows, *log_fill in/out), every v2c write
 * appends its row; a NULL log (the sequential path) logs nothing. */
int64_t cluster_pass(const int64_t *edges, int64_t n, int64_t partial,
                     int64_t *v2c, int64_t *deg, int64_t n_vert,
                     int64_t *vol, int64_t vol_cap, double cap,
                     int64_t *log, int64_t log_cap, int64_t *log_fill,
                     int64_t *out)
{
    if (!log)
        return cluster_loop(edges, n, partial, v2c, deg, n_vert, vol,
                            vol_cap, cap, NULL, 0, out);
    moves_t lg = {log, log_cap, *log_fill};
    int64_t miss = cluster_loop(edges, n, partial, v2c, deg, n_vert, vol,
                                vol_cap, cap, &lg, 1, out);
    *log_fill = lg.fill;
    return miss;
}

/* ------------------------------------------------------------------ */
/* Phase 2: pre-partitioning and the 2PS-L remaining pass             */
/* ------------------------------------------------------------------ */

/* Prefetch part, the weights row and the replica row of both endpoints
 * of edge i + AHEAD, if the chunk holds that edge and both its ids lie
 * below n_vert. */
static FORCE_INLINE void prefetch_ahead(const int64_t *edges, int64_t i,
                                        int64_t n, const int32_t *part,
                                        const int64_t *weights,
                                        int64_t n_vert, const plane_t *pl)
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
                     uint64_t seed, int64_t *log, int64_t log_cap,
                     int64_t *log_fill, int32_t *assignments, int64_t *out)
{
    plane_t pl = {plane, row_bytes, shift, low_mask};
    log_t lg = log_open(log, log_cap, log_fill, k);
    int64_t n_pre = 0, n_hash = 0;
    int64_t miss = DONE;
    for (int64_t i = 0; i < n; i++) {
        uint64_t u = (uint64_t)edges[2 * i];
        uint64_t v = (uint64_t)edges[2 * i + 1];
        if (u >= (uint64_t)n_vert || v >= (uint64_t)n_vert) {
            miss = i;
            break;
        }
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
        set_bits(&pl, &lg, (int64_t)u, (int64_t)v, p);
        assignments[i] = (int32_t)p;
        n_pre++;
    }
    log_close(&lg, log_fill);
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
                         int64_t capacity, uint64_t seed, int64_t *log,
                         int64_t log_cap, int64_t *log_fill,
                         int32_t *assignments, int64_t *out)
{
    plane_t pl = {plane, row_bytes, shift, low_mask};
    log_t lg = log_open(log, log_cap, log_fill, k);
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
        /* s1 >= s2 holds for about half the edges: a branch on it
         * mispredicts that often. */
        int64_t p = SELECT(MASK(s1 >= s2), p1, p2);
        if (sizes[p] >= capacity)
            p = fallback((int64_t)u, (int64_t)v, weights, sizes, k,
                         capacity, seed, &n_hash);
        sizes[p]++;
        set_bits(&pl, &lg, (int64_t)u, (int64_t)v, p);
        assignments[i] = (int32_t)p;
    }
    log_close(&lg, log_fill);
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
                       double *scratch, int64_t *log, int64_t log_cap,
                       int64_t *log_fill, int32_t *assignments, int64_t *out)
{
    plane_t pl = {plane, row_bytes, shift, low_mask};
    log_t lg = log_open(log, log_cap, log_fill, k);
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
        set_bits(&pl, &lg, (int64_t)u, (int64_t)v, p);
        assignments[i] = (int32_t)p;
        n_rem++;
    }
    log_close(&lg, log_fill);
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
    log_t lg = log_open(NULL, 0, NULL, k);
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
        set_bits(&pl, &lg, (int64_t)u, (int64_t)v, p);
        assignments[i] = (int32_t)p;
    }
    out[0] += i;
    return i < n ? i : DONE;
}

/* ------------------------------------------------------------------ */
/* Barriers and the cluster mapping: once per sync window or per run  */
/* ------------------------------------------------------------------ */

/* Phase-2 barrier, the twin of PythonBackend.apply_replica_log: set bit
 * (c / k, c % k) of the plane for each of the n logged cells c.  Every
 * cell is checked against [0, n_rows * k) before the first write; on a
 * miss nothing is written and the cell's index is returned.  A plane
 * whose rows end on no padding bits (dense state, or k a multiple of 8)
 * holds cell c at bit c; a padded one needs the division. */
int64_t apply_log(uint8_t *plane, int64_t row_bytes, int64_t shift,
                  int64_t low_mask, int64_t n_rows, int64_t k,
                  const int64_t *cells, int64_t n)
{
    uint64_t limit = (uint64_t)n_rows * (uint64_t)k;
    int64_t row_bits = row_bytes << shift;
    for (int64_t i = 0; i < n; i++)
        if ((uint64_t)cells[i] >= limit)
            return i;
    for (int64_t i = 0; i < n; i++) {
        int64_t c = cells[i];
        if (row_bits != k)
            c = c / k * row_bits + c % k;
        plane[c >> shift] |= (uint8_t)(1u << (c & low_mask));
    }
    return DONE;
}

/* Phase-1 clustering barrier, the twin of
 * PythonBackend.merge_phase1_clustering: the ordered first-worker-wins
 * fold of the workers' moves into the global clustering (v2c, n
 * vertices; vol, base volumes and room for n_fresh's sum more), fresh ids
 * remapped to one sequence in worker order, each accepted move's degree
 * taken off its old cluster and added to its new one.  Worker w's moves
 * are n_moves[w] rows (vertex, id), vertices strictly ascending in
 * [0, n), ids in [-1, base + n_fresh[w]); the moved vertices' global ids
 * lie in [-1, base).  Every row is checked before the first write; on a
 * miss nothing is written and the row's index is returned (the caller
 * names the miss).  A vertex is
 * claimed when an earlier worker moved it: cursor (n_workers slots)
 * walks each earlier worker's ascending rows alongside.  The accepted
 * rows, in merged ids, go to out in worker order, n_out[w] of them per
 * worker. */
int64_t merge_moves(int64_t *v2c, int64_t n, const int64_t *deg,
                    int64_t *vol, int64_t base,
                    const int64_t *const *moves, const int64_t *n_moves,
                    const int64_t *n_fresh, int64_t n_workers,
                    int64_t *cursor, int64_t *out, int64_t *n_out)
{
    int64_t n_ids = base;
    for (int64_t w = 0; w < n_workers; w++) {
        const int64_t *rows = moves[w];
        uint64_t limit = (uint64_t)(base + n_fresh[w]);
        for (int64_t i = 0; i < n_moves[w]; i++) {
            int64_t x = rows[2 * i];
            if ((uint64_t)x >= (uint64_t)n || (i && x <= rows[2 * i - 2])
                || (uint64_t)rows[2 * i + 1] + 1 > limit)
                return i;
        }
        n_ids += n_fresh[w];
    }
    for (int64_t w = 0; w < n_workers; w++) {
        const int64_t *rows = moves[w];
        for (int64_t i = 0; i < n_moves[w]; i++) {
            if ((uint64_t)v2c[rows[2 * i]] + 1 > (uint64_t)base)
                return i;
        }
    }
    memset(vol + base, 0, (size_t)(n_ids - base) * sizeof(int64_t));
    int64_t shift = 0, k = 0;
    for (int64_t w = 0; w < n_workers; w++) {
        const int64_t *rows = moves[w];
        int64_t start = k;
        for (int64_t u = 0; u < w; u++)
            cursor[u] = 0;
        for (int64_t i = 0; i < n_moves[w]; i++) {
            int64_t x = rows[2 * i];
            int64_t c = rows[2 * i + 1];
            int claimed = 0;
            for (int64_t u = 0; u < w && !claimed; u++) {
                const int64_t *earlier = moves[u];
                while (cursor[u] < n_moves[u] && earlier[2 * cursor[u]] < x)
                    cursor[u]++;
                claimed = cursor[u] < n_moves[u] && earlier[2 * cursor[u]] == x;
            }
            if (claimed)
                continue;
            int64_t g = c >= base ? c + shift : c;
            int64_t old = v2c[x];
            if (old >= 0)
                vol[old] -= deg[x];
            if (g >= 0)
                vol[g] += deg[x];
            v2c[x] = g;
            out[2 * k] = x;
            out[2 * k + 1] = g;
            k++;
        }
        n_out[w] = k - start;
        shift += n_fresh[w];
    }
    return DONE;
}

/* A worker's clustering refresh, the twin of
 * PythonBackend.refresh_clustering.  The worker holds n_local ids; its
 * fresh ones, [base, n_local), move up by offset within vol (room for
 * n_ids), the other new ids start at 0, its own n_own moves' fresh ids
 * shift, and each of the n_others rows (vertex, id) moves the vertex's
 * degree from its current cluster to the new one.  Every row is checked
 * before the first write (own rows: ids in [-1, n_local); the others'
 * rows: ids in [-1, n_ids); vertices in [0, n) whose current id lies in
 * [-1, n_local)); on a miss nothing is written and the row's index is
 * returned, the others' rows counted after the own ones. */
int64_t refresh_clustering(int64_t *v2c, int64_t n, const int64_t *deg,
                           int64_t *vol, int64_t n_local, int64_t base,
                           int64_t offset, int64_t n_ids, const int64_t *own,
                           int64_t n_own, const int64_t *others,
                           int64_t n_others)
{
    for (int64_t j = 0; j < n_own + n_others; j++) {
        const int64_t *row = j < n_own ? own + 2 * j : others + 2 * (j - n_own);
        uint64_t limit = (uint64_t)(j < n_own ? n_local : n_ids);
        uint64_t x = (uint64_t)row[0];
        if (x >= (uint64_t)n || (uint64_t)row[1] + 1 > limit
            || (uint64_t)v2c[x] + 1 > (uint64_t)n_local)
            return j;
    }
    int64_t fresh = n_local - base;
    memmove(vol + base + offset, vol + base, (size_t)fresh * sizeof(int64_t));
    memset(vol + base, 0, (size_t)offset * sizeof(int64_t));
    memset(vol + n_local + offset, 0,
           (size_t)(n_ids - n_local - offset) * sizeof(int64_t));
    if (offset)
        for (int64_t j = 0; j < n_own; j++)
            if (own[2 * j + 1] >= base)
                v2c[own[2 * j]] = own[2 * j + 1] + offset;
    for (int64_t j = 0; j < n_others; j++) {
        int64_t x = others[2 * j];
        int64_t g = others[2 * j + 1];
        int64_t c = v2c[x];
        if (c >= 0)
            vol[c] -= deg[x];
        if (g >= 0)
            vol[g] += deg[x];
        v2c[x] = g;
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
