/*
 * Sanitizer harness for src/repro/graph/_louvain_kernel.c.
 *
 *   cc -std=c99 -g -O1 -fsanitize=address,undefined -fno-sanitize-recover=all \
 *       -o /tmp/graph_harness tests/graph_kernel_harness.c src/repro/graph/_louvain_kernel.c
 *   /tmp/graph_harness
 *
 * Seeded graphs (1 to 48 nodes, sparse to dense, equal or varied
 * weights) are built with csr_from_pairs and checked entry by entry
 * against a dense matrix, then run through Louvain (init, sweeps in a
 * shuffled order, aggregation, level after level).  At every member
 * count from 0 to n, a seeded member subset's induced subgraph
 * (csr_induced, counted and then written at exactly its size) is
 * checked against the dense matrix and run through Louvain too, and
 * each final partition goes through louvain_parts and
 * csr_community_sums, both checked against straightforward loops.
 * Invalid inputs (misordered, repeated or out-of-range pairs and ids,
 * out-of-range labels, row bounds past the entries, short capacities)
 * must be refused with every output left as it was.  Every array the
 * kernel sees sits in a heap buffer of exactly the size it is told, so
 * AddressSanitizer reports any access outside them.  Exit status 0:
 * every check passed.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

double louvain_init_level(int64_t n, const int64_t *indptr, const double *weights,
                          const double *loops, double *degree, int64_t *community,
                          double *community_degree);
int64_t louvain_sweep(int64_t n, const int64_t *indptr, const int64_t *indices,
                      const double *weights, const double *degree, int64_t *community,
                      double *community_degree, const int64_t *order, double total_weight,
                      double m2_total, double min_gain, double *acc, int64_t *touched,
                      unsigned char *seen);
int64_t louvain_aggregate(int64_t n, const int64_t *indptr, const int64_t *indices,
                          const double *weights, const double *loops, int64_t *community,
                          int64_t n_members, int64_t *membership, int64_t *coarse_indptr,
                          int64_t *coarse_indices, double *coarse_weights,
                          double *coarse_loops, double *coarse_degree, double *coarse_total,
                          double *community_degree, int64_t *work, double *acc,
                          unsigned char *seen);
int64_t csr_from_pairs(int64_t n, int64_t m, const int64_t *firsts, const int64_t *seconds,
                       const double *weights, int64_t entry_cap, int64_t *indptr,
                       int64_t *indices, double *out_weights);
int64_t csr_induced(int64_t n, const int64_t *indptr, const int64_t *indices,
                    const double *weights, int64_t n_entries, int64_t k, const int64_t *ids,
                    int64_t out_cap, int64_t *sub_indptr, int64_t *sub_indices,
                    double *sub_weights, double *sub_total);
int64_t csr_community_sums(int64_t n, const int64_t *indptr, const int64_t *indices,
                           const double *weights, int64_t n_entries,
                           const int64_t *community, int64_t n_labels, int64_t *rank,
                           int64_t out_cap, double *internal, double *degree);
int64_t louvain_parts(int64_t k, const int64_t *membership, int64_t n_labels,
                      const int64_t *ids, int64_t work_cap, int64_t *work, int64_t part_cap,
                      int64_t *part_start, int64_t member_cap, int64_t *members);

enum { GRAPHS = 240, MAX_NODES = 48, SENTINEL = -7 };

static long calls;
static uint64_t state;
static uint64_t graph_seed;

static uint64_t next_random(void)
{
    /* splitmix64 */
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

static int64_t below(int64_t n)
{
    return (int64_t)(next_random() % (uint64_t)n);
}

static void fail(const char *what)
{
    fprintf(stderr, "graph kernel: %s (graph seed %llu)\n", what,
            (unsigned long long)graph_seed);
    exit(1);
}

static void *exactly(int64_t count, size_t item)
{
    /* malloc(0) may return NULL; one byte keeps the pointer valid and
     * still lets AddressSanitizer flag any 8-byte access to it. */
    size_t bytes = (size_t)count * item;
    void *block = malloc(bytes > 0 ? bytes : 1);
    if (block == NULL) {
        perror("malloc");
        exit(2);
    }
    return block;
}

static int64_t *ints(int64_t count)
{
    int64_t *block = exactly(count, sizeof(int64_t));
    for (int64_t k = 0; k < count; k++)
        block[k] = SENTINEL;
    return block;
}

static double *floats(int64_t count)
{
    double *block = exactly(count, sizeof(double));
    for (int64_t k = 0; k < count; k++)
        block[k] = SENTINEL;
    return block;
}

static int untouched_ints(const int64_t *block, int64_t count)
{
    for (int64_t k = 0; k < count; k++)
        if (block[k] != SENTINEL)
            return 0;
    return 1;
}

static int untouched_floats(const double *block, int64_t count)
{
    for (int64_t k = 0; k < count; k++)
        if (block[k] != SENTINEL)
            return 0;
    return 1;
}

struct csr {
    int64_t n, entries;
    int64_t *indptr, *indices;
    double *weights;
};

static void free_csr(struct csr *g)
{
    free(g->indptr);
    free(g->indices);
    free(g->weights);
}

/* A seeded graph as a dense matrix (0.0: no edge) and as CSR. */
static double *random_graph(struct csr *g)
{
    int64_t n = 1 + below(MAX_NODES);
    int64_t density = below(101);
    int64_t weights = below(3);
    double *dense = calloc((size_t)(n * n), sizeof(double));
    if (dense == NULL) {
        perror("calloc");
        exit(2);
    }
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = i + 1; j < n; j++)
            if (below(100) < density) {
                double w = weights == 0 ? 1.0
                    : weights == 1 ? 0.25 * (double)(1 + below(4))
                    : (double)(1 + below(1000)) / 300.0;
                dense[i * n + j] = dense[j * n + i] = w;
                m++;
            }
    int64_t *firsts = ints(m), *seconds = ints(m);
    double *pair_weights = floats(m);
    int64_t t = 0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = i + 1; j < n; j++)
            if (dense[i * n + j] != 0.0) {
                firsts[t] = i;
                seconds[t] = j;
                pair_weights[t++] = dense[i * n + j];
            }
    g->n = n;
    g->entries = 2 * m;
    g->indptr = ints(n + 1);
    g->indices = ints(2 * m);
    g->weights = floats(2 * m);
    calls++;
    if (csr_from_pairs(n, m, firsts, seconds, pair_weights, 2 * m, g->indptr, g->indices,
                       g->weights) != 2 * m)
        fail("csr_from_pairs refused valid pairs");
    /* Every row ascending and equal to the dense row. */
    if (g->indptr[0] != 0 || g->indptr[n] != 2 * m)
        fail("csr_from_pairs wrote bad row bounds");
    for (int64_t i = 0; i < n; i++) {
        int64_t e = g->indptr[i];
        for (int64_t j = 0; j < n; j++) {
            if (dense[i * n + j] == 0.0)
                continue;
            if (e >= g->indptr[i + 1] || g->indices[e] != j || g->weights[e] != dense[i * n + j])
                fail("csr_from_pairs row differs from the dense matrix");
            e++;
        }
        if (e != g->indptr[i + 1])
            fail("csr_from_pairs row has extra entries");
    }
    free(firsts);
    free(seconds);
    free(pair_weights);
    return dense;
}

/* Louvain on `entry` to convergence, every coarse level in exactly sized
 * buffers; membership gets each entry node's final community. */
static int64_t louvain(const struct csr *entry, int64_t *membership)
{
    int64_t n = entry->n;
    double *loops = floats(n), *degree = floats(n), *community_degree = floats(n);
    double *acc = floats(n), *coarse_total = floats(1);
    int64_t *community = ints(n), *order = ints(n), *touched = ints(n), *work = ints(3 * n + 1);
    unsigned char *seen = calloc((size_t)(n > 0 ? n : 1), 1);
    if (seen == NULL) {
        perror("calloc");
        exit(2);
    }
    for (int64_t i = 0; i < n; i++) {
        loops[i] = 0.0;
        membership[i] = i;
    }
    struct csr level = *entry;
    double *level_loops = loops, *level_degree = degree;
    calls++;
    double total = louvain_init_level(n, level.indptr, level.weights, level_loops,
                                      level_degree, community, community_degree);
    int64_t n_level = n;
    for (int depth = 0; depth < 32; depth++) {
        int64_t moves = 0;
        if (2.0 * total != 0.0) {
            for (int sweep = 0; sweep < 64; sweep++) {
                for (int64_t p = 0; p < n_level; p++)
                    order[p] = p;
                for (int64_t p = n_level - 1; p > 0; p--) {
                    int64_t q = below(p + 1);
                    int64_t swap = order[p];
                    order[p] = order[q];
                    order[q] = swap;
                }
                calls++;
                int64_t moved = louvain_sweep(n_level, level.indptr, level.indices,
                                              level.weights, level_degree, community,
                                              community_degree, order, total,
                                              2.0 * total * total, 1e-7, acc, touched, seen);
                if (moved < 0 || moved > n_level)
                    fail("louvain_sweep counted impossible moves");
                for (int64_t i = 0; i < n_level; i++)
                    if (community[i] < 0 || community[i] >= n_level)
                        fail("louvain_sweep left a label out of range");
                if (!moved)
                    break;
                moves += moved;
            }
        }
        struct csr coarse = {.indptr = ints(n_level + 1), .indices = ints(level.entries),
                             .weights = floats(level.entries)};
        double *coarse_loops = floats(n_level), *coarse_degree = floats(n_level);
        calls++;
        coarse.n = louvain_aggregate(n_level, level.indptr, level.indices, level.weights,
                                     level_loops, community, n, membership, coarse.indptr,
                                     coarse.indices, coarse.weights, coarse_loops,
                                     coarse_degree, coarse_total, community_degree, work, acc,
                                     seen);
        if (coarse.n < 1 && n_level > 0)
            fail("louvain_aggregate lost every node");
        if (coarse.n > n_level || coarse.indptr[coarse.n] > level.entries)
            fail("louvain_aggregate outgrew its level");
        coarse.entries = coarse.indptr[coarse.n];
        for (int64_t i = 0; i < n; i++)
            if (membership[i] < 0 || membership[i] >= coarse.n)
                fail("louvain_aggregate left a membership out of range");
        for (int64_t i = 0; i < n_level; i++)
            if (seen[i])
                fail("louvain scratch `seen` not cleared");
        if (level.indptr != entry->indptr) {
            free_csr(&level);
            free(level_loops);
            free(level_degree);
        }
        int64_t previous = n_level;
        level = coarse;
        level_loops = coarse_loops;
        level_degree = coarse_degree;
        n_level = coarse.n;
        total = *coarse_total;
        if (!moves || n_level == previous)
            break;
    }
    if (level.indptr != entry->indptr) {
        free_csr(&level);
        free(level_loops);
        free(level_degree);
    }
    free(loops);
    free(degree);
    free(community_degree);
    free(acc);
    free(coarse_total);
    free(community);
    free(order);
    free(touched);
    free(work);
    free(seen);
    return n_level;
}

/* louvain_parts against the definition: parts by decreasing size, then
 * smallest member; members ascending; every node exactly once. */
static void check_parts(int64_t k, const int64_t *membership, int64_t n_labels,
                        const int64_t *ids)
{
    int64_t *work = ints(n_labels + 2 * k + 1), *starts = ints(k + 1), *members = ints(k);
    calls++;
    int64_t parts = louvain_parts(k, membership, n_labels, ids, n_labels + 2 * k + 1, work,
                                  k + 1, starts, k, members);
    if (parts < 0 || parts > k || (k > 0 && parts < 1))
        fail("louvain_parts refused or miscounted a valid partition");
    if (starts[0] != 0 || starts[parts] != k)
        fail("louvain_parts wrote bad part bounds");
    for (int64_t p = 0; p < parts; p++) {
        int64_t size = starts[p + 1] - starts[p];
        if (size < 1)
            fail("louvain_parts wrote an empty part");
        int64_t first = -1, label = -1;
        for (int64_t s = starts[p]; s < starts[p + 1]; s++) {
            int64_t node = -1;
            for (int64_t i = 0; i < k; i++)
                if ((ids != NULL ? ids[i] : i) == members[s])
                    node = i;
            if (node < 0)
                fail("louvain_parts wrote an unknown member");
            if (s == starts[p]) {
                first = node;
                label = membership[node];
            } else if (membership[node] != label || node <= first) {
                fail("louvain_parts mixed parts or broke member order");
            } else {
                first = node;
            }
        }
        if (p > 0) {
            int64_t previous = starts[p] - starts[p - 1];
            if (previous < size)
                fail("louvain_parts broke the decreasing-size order");
        }
    }
    /* Equal sizes: smallest members ascending (ids ascend with nodes). */
    for (int64_t p = 1; p < parts; p++)
        if (starts[p + 1] - starts[p] == starts[p] - starts[p - 1]
            && members[starts[p]] <= members[starts[p - 1]])
            fail("louvain_parts broke the smallest-member order");
    free(work);
    free(starts);
    free(members);
}

/* csr_community_sums against the reference walk, bit for bit. */
static void check_sums(const struct csr *g, const int64_t *community, int64_t n_labels)
{
    int64_t n = g->n;
    int64_t cap = n < n_labels ? n : n_labels;
    int64_t *rank = ints(n_labels);
    double *internal = floats(cap), *degree = floats(cap);
    calls++;
    int64_t count = csr_community_sums(n, g->indptr, g->indices, g->weights, g->entries,
                                       community, n_labels, rank, cap, internal, degree);
    if (count < 0 || count > cap)
        fail("csr_community_sums refused or overcounted a valid partition");
    int64_t r = 0;
    for (int64_t i = 0; i < n; i++) {
        int first = 1;
        for (int64_t j = 0; j < i; j++)
            if (community[j] == community[i])
                first = 0;
        if (!first)
            continue;
        double inside = 0.0, total = 0.0;
        for (int64_t a = 0; a < n; a++) {
            if (community[a] != community[i])
                continue;
            double row = 0.0;
            for (int64_t e = g->indptr[a]; e < g->indptr[a + 1]; e++) {
                row += g->weights[e];
                if (community[g->indices[e]] == community[i])
                    inside += g->weights[e];
            }
            total += row + 0.0;
        }
        if (r >= count || internal[r] != inside || degree[r] != total)
            fail("csr_community_sums differs from the reference walk");
        r++;
    }
    if (r != count)
        fail("csr_community_sums miscounted communities");
    free(rank);
    free(internal);
    free(degree);
}

/* The subgraph induced by ids[0..k), checked against the dense matrix;
 * returns it in exactly sized buffers. */
static struct csr check_induced(const struct csr *g, const double *dense, const int64_t *ids,
                                int64_t k)
{
    int64_t n = g->n;
    int64_t expected = 0;
    for (int64_t a = 0; a < k; a++)
        for (int64_t b = 0; b < k; b++)
            if (dense[ids[a] * n + ids[b]] != 0.0)
                expected++;
    calls++;
    int64_t count = csr_induced(n, g->indptr, g->indices, g->weights, g->entries, k, ids, 0,
                                NULL, NULL, NULL, NULL);
    if (count != expected)
        fail("csr_induced miscounted a subgraph");
    struct csr sub = {.n = k, .entries = count, .indptr = ints(k + 1), .indices = ints(count),
                      .weights = floats(count)};
    double *total = floats(1);
    if (count > 0) {
        calls++;
        if (csr_induced(n, g->indptr, g->indices, g->weights, g->entries, k, ids, count - 1,
                        sub.indptr, sub.indices, sub.weights, total) >= 0)
            fail("csr_induced accepted too little capacity");
        if (!untouched_ints(sub.indptr, k + 1) || !untouched_ints(sub.indices, count)
            || !untouched_floats(sub.weights, count) || !untouched_floats(total, 1))
            fail("csr_induced wrote outputs for too little capacity");
    }
    calls++;
    if (csr_induced(n, g->indptr, g->indices, g->weights, g->entries, k, ids, count,
                    sub.indptr, sub.indices, sub.weights, total) != count)
        fail("csr_induced refused a valid subgraph");
    double upper = 0.0;
    int64_t e = 0;
    if (sub.indptr[0] != 0)
        fail("csr_induced wrote bad row bounds");
    for (int64_t a = 0; a < k; a++) {
        for (int64_t b = 0; b < k; b++) {
            double w = dense[ids[a] * n + ids[b]];
            if (w == 0.0)
                continue;
            if (e >= sub.indptr[a + 1] || sub.indices[e] != b || sub.weights[e] != w)
                fail("csr_induced row differs from the dense matrix");
            if (b > a)
                upper += w;
            e++;
        }
        if (e != sub.indptr[a + 1])
            fail("csr_induced row has extra entries");
    }
    if (*total != upper)
        fail("csr_induced total weight differs from the row-major upper sum");
    free(total);
    return sub;
}

static void check_graph(uint64_t seed)
{
    graph_seed = seed;
    state = seed;
    struct csr g;
    double *dense = random_graph(&g);
    int64_t n = g.n;

    int64_t *membership = ints(n);
    int64_t n_final = louvain(&g, membership);
    check_parts(n, membership, n_final, NULL);
    check_sums(&g, membership, n_final);
    free(membership);

    /* One seeded subset at every member count. */
    int64_t *pool = ints(n);
    for (int64_t k = 0; k <= n; k++) {
        for (int64_t i = 0; i < n; i++)
            pool[i] = i;
        for (int64_t i = 0; i < k; i++) {
            int64_t j = i + below(n - i);
            int64_t swap = pool[i];
            pool[i] = pool[j];
            pool[j] = swap;
        }
        int64_t *ids = ints(k);
        /* The first k of the shuffle, ascending. */
        int64_t filled = 0;
        for (int64_t id = 0; id < n; id++)
            for (int64_t i = 0; i < k; i++)
                if (pool[i] == id)
                    ids[filled++] = id;
        struct csr sub = check_induced(&g, dense, ids, k);
        int64_t *local = ints(k);
        int64_t n_local = louvain(&sub, local);
        check_parts(k, local, n_local > 0 ? n_local : 1, ids);
        check_sums(&sub, local, n_local > 0 ? n_local : 1);
        free(local);
        free_csr(&sub);
        free(ids);
    }
    free(pool);
    free_csr(&g);
    free(dense);
}

/* csr_from_pairs over three pairs, the last one `bad`: refused, with
 * every output untouched. */
static void refuse_pairs(const char *what, int64_t n, int64_t i, int64_t j)
{
    int64_t firsts[3] = {0, 1, i}, seconds[3] = {1, 2, j};
    double weights[3] = {1.0, 1.0, 1.0};
    int64_t *f = ints(3), *s = ints(3), *indptr = ints(n + 1), *indices = ints(6);
    double *w = floats(3), *out = floats(6);
    memcpy(f, firsts, sizeof firsts);
    memcpy(s, seconds, sizeof seconds);
    memcpy(w, weights, sizeof weights);
    calls++;
    if (csr_from_pairs(n, 3, f, s, w, 6, indptr, indices, out) >= 0)
        fail(what);
    if (!untouched_ints(indptr, n + 1) || !untouched_ints(indices, 6) || !untouched_floats(out, 6))
        fail(what);
    free(f);
    free(s);
    free(w);
    free(indptr);
    free(indices);
    free(out);
}

/* csr_induced on a 4-node path with member ids `bad`: refused, with
 * every output untouched. */
static void refuse_ids(const char *what, const int64_t *bad, int64_t k)
{
    int64_t firsts[3] = {0, 1, 2}, seconds[3] = {1, 2, 3};
    double weights[3] = {1.0, 1.0, 1.0};
    struct csr g = {.n = 4, .entries = 6, .indptr = ints(5), .indices = ints(6),
                    .weights = floats(6)};
    if (csr_from_pairs(4, 3, firsts, seconds, weights, 6, g.indptr, g.indices, g.weights) != 6)
        fail("csr_from_pairs refused a path");
    int64_t *ids = ints(k), *sub_indptr = ints(k + 1), *sub_indices = ints(6);
    double *sub_weights = floats(6), *total = floats(1);
    memcpy(ids, bad, (size_t)k * sizeof(int64_t));
    calls++;
    if (csr_induced(4, g.indptr, g.indices, g.weights, 6, k, ids, 6, sub_indptr, sub_indices,
                    sub_weights, total) >= 0)
        fail(what);
    if (!untouched_ints(sub_indptr, k + 1) || !untouched_ints(sub_indices, 6)
        || !untouched_floats(sub_weights, 6) || !untouched_floats(total, 1))
        fail(what);
    free(ids);
    free(sub_indptr);
    free(sub_indices);
    free(sub_weights);
    free(total);
    free_csr(&g);
}

/* csr_induced and csr_community_sums on row bounds past the entries:
 * refused, with every output untouched. */
static void refuse_rows(void)
{
    int64_t firsts[2] = {0, 1}, seconds[2] = {1, 2};
    double weights[2] = {1.0, 1.0};
    struct csr g = {.n = 3, .entries = 4, .indptr = ints(4), .indices = ints(4),
                    .weights = floats(4)};
    if (csr_from_pairs(3, 2, firsts, seconds, weights, 4, g.indptr, g.indices, g.weights) != 4)
        fail("csr_from_pairs refused a path");
    g.indptr[2] = 5;
    int64_t *ids = ints(2), *sub_indptr = ints(3), *sub_indices = ints(4), *rank = ints(3);
    int64_t *community = ints(3);
    double *sub_weights = floats(4), *total = floats(1), *internal = floats(3);
    double *degree = floats(3);
    ids[0] = 1;
    ids[1] = 2;
    for (int i = 0; i < 3; i++)
        community[i] = 0;
    calls += 2;
    if (csr_induced(3, g.indptr, g.indices, g.weights, 4, 2, ids, 4, sub_indptr, sub_indices,
                    sub_weights, total) >= 0
        || !untouched_ints(sub_indptr, 3) || !untouched_ints(sub_indices, 4)
        || !untouched_floats(sub_weights, 4) || !untouched_floats(total, 1))
        fail("csr_induced accepted a row past the entries");
    if (csr_community_sums(3, g.indptr, g.indices, g.weights, 4, community, 1, rank, 3,
                           internal, degree) >= 0
        || !untouched_ints(rank, 3) || !untouched_floats(internal, 3)
        || !untouched_floats(degree, 3))
        fail("csr_community_sums accepted a row past the entries");
    free(ids);
    free(sub_indptr);
    free(sub_indices);
    free(rank);
    free(community);
    free(sub_weights);
    free(total);
    free(internal);
    free(degree);
    free_csr(&g);
}

static void refuse_labels(void)
{
    int64_t firsts[1] = {0}, seconds[1] = {1};
    double weights[1] = {1.0};
    struct csr g = {.n = 3, .entries = 2, .indptr = ints(4), .indices = ints(2),
                    .weights = floats(2)};
    if (csr_from_pairs(3, 1, firsts, seconds, weights, 2, g.indptr, g.indices, g.weights) != 2)
        fail("csr_from_pairs refused one pair");
    const int64_t labels[3][3] = {{0, 1, 3}, {0, -1, 1}, {2, 0, 1}};
    const int64_t n_labels[3] = {3, 3, 2};
    for (int c = 0; c < 3; c++) {
        int64_t *community = ints(3), *rank = ints(n_labels[c]), *work = ints(16);
        int64_t *starts = ints(4), *members = ints(3);
        double *internal = floats(3), *degree = floats(3);
        memcpy(community, labels[c], sizeof labels[c]);
        calls += 2;
        if (csr_community_sums(3, g.indptr, g.indices, g.weights, 2, community, n_labels[c],
                               rank, 3, internal, degree) >= 0
            || !untouched_ints(rank, n_labels[c]) || !untouched_floats(internal, 3)
            || !untouched_floats(degree, 3))
            fail("csr_community_sums accepted a label out of range");
        if (louvain_parts(3, community, n_labels[c], NULL, 16, work, 4, starts, 3, members) >= 0
            || !untouched_ints(work, 16) || !untouched_ints(starts, 4)
            || !untouched_ints(members, 3))
            fail("louvain_parts accepted a label out of range");
        free(community);
        free(rank);
        free(work);
        free(starts);
        free(members);
        free(internal);
        free(degree);
    }
    /* Too little room: sums below min(n, n_labels), parts below their needs. */
    int64_t *community = ints(3), *rank = ints(3), *work = ints(10);
    int64_t *starts = ints(4), *members = ints(3);
    double *internal = floats(3), *degree = floats(3);
    for (int i = 0; i < 3; i++)
        community[i] = i;
    calls += 4;
    if (csr_community_sums(3, g.indptr, g.indices, g.weights, 2, community, 3, rank, 2,
                           internal, degree) >= 0
        || !untouched_ints(rank, 3) || !untouched_floats(internal, 3))
        fail("csr_community_sums accepted too little output room");
    if (louvain_parts(3, community, 3, NULL, 9, work, 4, starts, 3, members) >= 0
        || louvain_parts(3, community, 3, NULL, 10, work, 3, starts, 3, members) >= 0
        || louvain_parts(3, community, 3, NULL, 10, work, 4, starts, 2, members) >= 0
        || !untouched_ints(work, 10) || !untouched_ints(starts, 4) || !untouched_ints(members, 3))
        fail("louvain_parts accepted too little room");
    free(community);
    free(rank);
    free(work);
    free(starts);
    free(members);
    free(internal);
    free(degree);
    free_csr(&g);
}

int main(void)
{
    for (uint64_t seed = 1; seed <= GRAPHS; seed++)
        check_graph(seed);

    graph_seed = 0;
    refuse_pairs("csr_from_pairs accepted a repeated pair", 4, 1, 2);
    refuse_pairs("csr_from_pairs accepted a descending pair", 4, 0, 3);
    refuse_pairs("csr_from_pairs accepted a self-loop", 4, 2, 2);
    refuse_pairs("csr_from_pairs accepted i > j", 4, 3, 2);
    refuse_pairs("csr_from_pairs accepted j = n", 3, 1, 3);
    refuse_pairs("csr_from_pairs accepted a negative id", 4, -1, 3);
    const int64_t descending[] = {2, 1}, repeated[] = {1, 1}, at_n[] = {1, 4};
    const int64_t negative[] = {-1, 2};
    refuse_ids("csr_induced accepted descending ids", descending, 2);
    refuse_ids("csr_induced accepted a repeated id", repeated, 2);
    refuse_ids("csr_induced accepted an id at n", at_n, 2);
    refuse_ids("csr_induced accepted a negative id", negative, 2);
    refuse_labels();
    refuse_rows();

    printf("graph kernel: %d graphs, every member count, %ld calls, all clean\n", GRAPHS,
           calls);
    return 0;
}
