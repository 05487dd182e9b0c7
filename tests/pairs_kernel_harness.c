/*
 * Sanitizer harness for src/repro/core/_pairs_kernel.c.
 *
 *   cc -std=c99 -g -O1 -fsanitize=address,undefined -fno-sanitize-recover=all \
 *       -o /tmp/pairs_harness tests/pairs_kernel_harness.c src/repro/core/_pairs_kernel.c
 *   /tmp/pairs_harness
 *
 * Seeded group sets (widths 1 to 150, up to 24 groups of up to 12 ids)
 * are counted pair by pair into a dense matrix, and pair_counts is
 * driven over each set at every output capacity from the widest row up
 * to one past the number of pairs, so that calls stop and resume at
 * every row.  Invalid inputs (an id at width, a negative id, descending
 * ids, a repeated id, offsets that do not bound the ids, too little
 * scratch) must be refused before any output is written.  Every array
 * the kernel sees sits in a heap buffer of exactly the size it is told,
 * so AddressSanitizer reports any access outside them.  Exit status 0:
 * every call matched the dense count.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t pair_counts(int64_t width, int64_t groups, const int64_t *offsets,
                    const int64_t *ids, int64_t n_ids, int64_t row,
                    int64_t *scratch, int64_t scratch_cap, int64_t out_cap,
                    int64_t *firsts, int64_t *seconds, int64_t *counts,
                    int64_t *next_row);

enum { SETS = 400, MAX_WIDTH = 150, MAX_GROUPS = 24, MAX_SIZE = 12, SENTINEL = -7 };

static long calls;

static uint64_t state;

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

static int64_t *exactly(int64_t count)
{
    /* malloc(0) may return NULL; one byte keeps the pointer valid and
     * still lets AddressSanitizer flag any int64 access to it. */
    size_t bytes = (size_t)count * sizeof(int64_t);
    int64_t *block = malloc(bytes > 0 ? bytes : 1);
    if (block == NULL) {
        perror("malloc");
        exit(2);
    }
    for (int64_t k = 0; k < count; k++)
        block[k] = SENTINEL;
    return block;
}

static int64_t *copy_of(const int64_t *values, int64_t count)
{
    int64_t *block = exactly(count);
    if (count > 0)
        memcpy(block, values, (size_t)count * sizeof(int64_t));
    return block;
}

static void fail(const char *what, uint64_t seed, int64_t out_cap)
{
    fprintf(stderr, "pair_counts: %s (set seed %llu, capacity %lld)\n", what,
            (unsigned long long)seed, (long long)out_cap);
    exit(1);
}

struct groups {
    int64_t width, count, n_ids;
    int64_t offsets[MAX_GROUPS + 1];
    int64_t ids[MAX_GROUPS * MAX_SIZE];
};

/* One call on exactly sized copies of the input; outputs of out_cap. */
static int64_t call(const struct groups *g, int64_t row, int64_t scratch_cap,
                    int64_t out_cap, int64_t *firsts, int64_t *seconds,
                    int64_t *counts, int64_t *next_row)
{
    int64_t *offsets = copy_of(g->offsets, g->count + 1);
    int64_t *ids = copy_of(g->ids, g->n_ids);
    int64_t *scratch = exactly(scratch_cap);
    int64_t found = pair_counts(g->width, g->count, offsets, ids, g->n_ids, row,
                                scratch, scratch_cap, out_cap, firsts, seconds,
                                counts, next_row);
    free(offsets);
    free(ids);
    free(scratch);
    calls++;
    return found;
}

static int64_t scratch_for(const struct groups *g)
{
    return 2 * g->width + 1 + 2 * g->n_ids + (g->width + 63) / 64;
}

static void random_groups(struct groups *g)
{
    g->width = 1 + below(MAX_WIDTH);
    g->count = below(MAX_GROUPS + 1);
    g->n_ids = 0;
    g->offsets[0] = 0;
    for (int64_t c = 0; c < g->count; c++) {
        /* Each id of the width joins with one chance in `spread`. */
        int64_t spread = 1 + below(g->width);
        int64_t size = 0;
        for (int64_t id = 0; id < g->width && size < MAX_SIZE; id++) {
            if (below(spread) == 0) {
                g->ids[g->n_ids++] = id;
                size++;
            }
        }
        g->offsets[c + 1] = g->n_ids;
    }
}

static void check_set(uint64_t seed)
{
    struct groups g;
    state = seed;
    random_groups(&g);
    int64_t w = g.width;
    int64_t *dense = calloc((size_t)(w * w), sizeof(int64_t));
    if (dense == NULL) {
        perror("calloc");
        exit(2);
    }
    for (int64_t c = 0; c < g.count; c++)
        for (int64_t a = g.offsets[c]; a < g.offsets[c + 1]; a++)
            for (int64_t b = a + 1; b < g.offsets[c + 1]; b++)
                dense[g.ids[a] * w + g.ids[b]]++;
    /* The expected pairs, in (i, j) order, and the widest row. */
    int64_t *expected = exactly(3 * (w * (w - 1) / 2));
    int64_t total = 0, widest = 0;
    for (int64_t i = 0; i < w; i++) {
        int64_t row = 0;
        for (int64_t j = i + 1; j < w; j++) {
            if (dense[i * w + j] > 0) {
                expected[3 * total] = i;
                expected[3 * total + 1] = j;
                expected[3 * total + 2] = dense[i * w + j];
                total++;
                row++;
            }
        }
        if (row > widest)
            widest = row;
    }

    for (int64_t out_cap = widest; out_cap <= total + 1; out_cap++) {
        int64_t row = 0, seen = 0;
        while (row < w) {
            int64_t *firsts = exactly(out_cap), *seconds = exactly(out_cap);
            int64_t *counts = exactly(out_cap), *next_row = exactly(1);
            int64_t found = call(&g, row, scratch_for(&g), out_cap, firsts, seconds,
                                 counts, next_row);
            if (found < 0 || found > out_cap || seen + found > total)
                fail("refused or overran a valid input", seed, out_cap);
            if (*next_row <= row || *next_row > w)
                fail("made no progress", seed, out_cap);
            for (int64_t t = 0; t < found; t++, seen++) {
                if (firsts[t] != expected[3 * seen] || seconds[t] != expected[3 * seen + 1]
                    || counts[t] != expected[3 * seen + 2])
                    fail("emitted a wrong pair", seed, out_cap);
                if (firsts[t] < row || firsts[t] >= *next_row)
                    fail("emitted a row outside the call's rows", seed, out_cap);
            }
            row = *next_row;
            free(firsts);
            free(seconds);
            free(counts);
            free(next_row);
        }
        if (seen != total)
            fail("missed pairs", seed, out_cap);
    }
    free(expected);
    free(dense);
}

/* A refused input leaves every output, next_row included, untouched. */
static void check_refused(const char *what, const struct groups *g, int64_t scratch_cap)
{
    int64_t out_cap = 64;
    int64_t *firsts = exactly(out_cap), *seconds = exactly(out_cap);
    int64_t *counts = exactly(out_cap), *next_row = exactly(1);
    int64_t found = call(g, 0, scratch_cap, out_cap, firsts, seconds, counts, next_row);
    if (found >= 0)
        fail(what, 0, out_cap);
    for (int64_t t = 0; t < out_cap; t++)
        if (firsts[t] != SENTINEL || seconds[t] != SENTINEL || counts[t] != SENTINEL)
            fail(what, 0, out_cap);
    if (*next_row != SENTINEL)
        fail(what, 0, out_cap);
    free(firsts);
    free(seconds);
    free(counts);
    free(next_row);
}

/* Groups {0, 1} then `bad`: the valid group's pair must not be written. */
static struct groups after_a_valid_group(const int64_t *bad, int64_t size)
{
    struct groups g = {.width = 4, .count = 2, .n_ids = 2 + size};
    g.offsets[0] = 0;
    g.offsets[1] = 2;
    g.offsets[2] = 2 + size;
    g.ids[0] = 0;
    g.ids[1] = 1;
    memcpy(g.ids + 2, bad, (size_t)size * sizeof(int64_t));
    return g;
}

int main(void)
{
    for (uint64_t seed = 1; seed <= SETS; seed++)
        check_set(seed);

    const int64_t at_width[] = {1, 4}, negative[] = {-1, 2};
    const int64_t descending[] = {3, 2}, repeated[] = {2, 2};
    struct groups g = after_a_valid_group(at_width, 2);
    check_refused("accepted an id at width", &g, scratch_for(&g));
    g = after_a_valid_group(negative, 2);
    check_refused("accepted a negative id", &g, scratch_for(&g));
    g = after_a_valid_group(descending, 2);
    check_refused("accepted descending ids", &g, scratch_for(&g));
    g = after_a_valid_group(repeated, 2);
    check_refused("accepted a repeated id", &g, scratch_for(&g));
    g = after_a_valid_group(descending, 0);
    check_refused("accepted too little scratch", &g, scratch_for(&g) - 1);
    g.n_ids = 1;
    check_refused("accepted offsets that end past the ids", &g, scratch_for(&g));
    /* Groups {0, 1}, then offsets 2 -> 1 -> 2: the last offset is right,
     * the middle one goes back. */
    g = after_a_valid_group(descending, 0);
    g.count = 3;
    g.offsets[2] = 1;
    g.offsets[3] = 2;
    check_refused("accepted decreasing offsets", &g, scratch_for(&g));
    /* Offsets 0 -> 3 -> 2 over two ids: the middle one is past the ids. */
    g.count = 2;
    g.offsets[1] = 3;
    g.offsets[2] = 2;
    check_refused("accepted an offset past the ids", &g, scratch_for(&g));

    printf("pair_counts: %d group sets at every capacity, %ld calls, all clean\n", SETS,
           calls);
    return 0;
}
