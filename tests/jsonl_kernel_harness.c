/*
 * Sanitizer harness for src/repro/httplog/_jsonl_kernel.c.
 *
 *   python tests/jsonl_kernel_seeds.py /tmp/jsonl_seeds.bin
 *   cc -std=c99 -g -O1 -fsanitize=address,undefined -fno-sanitize-recover=all \
 *       -o /tmp/jsonl_harness tests/jsonl_kernel_harness.c src/repro/httplog/_jsonl_kernel.c
 *   /tmp/jsonl_harness /tmp/jsonl_seeds.bin
 *
 * Every seed (a row of the loader tables in tests/test_columnar_trace.py),
 * every prefix of it, and every variant with one byte replaced by one of
 * SUBSTITUTES is copied into a heap buffer of exactly its length and
 * scanned to its end as repro.httplog.loader scans a block: once with
 * capacities sized from the length, as the loader sizes them, and once
 * with room for one row, one flagged line and one row's strings, so that
 * every early stop and resume runs as well.  Every output buffer is
 * allocated at exactly the capacity passed, so AddressSanitizer reports
 * any access outside the input or the outputs; the harness checks the
 * counts and spans the kernel returns.  Exit status 0: every variant
 * scanned cleanly.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t jsonl_scan(const char *data, int64_t start, int64_t end, int64_t row_cap,
                   int64_t *ids, int64_t *status, int64_t table_size, int64_t *table,
                   int64_t *entries, char *text, int64_t text_cap, char *stamps,
                   int64_t stamp_cap, int64_t flag_cap, int64_t *flags, int64_t *counts);

enum { FIELDS = 7, SHORTEST_ROW = 92 };
enum { ROWS, STRINGS, TEXT, STAMPS, FLAGGED, OFFSET, COUNTS };

static const unsigned char SUBSTITUTES[] = {'"', '\\', '\n', '\r', '\0', 0x80, 0xff, '}', ',', '7'};

static long variants;

static void *exactly(size_t count, size_t size)
{
    /* malloc(0) may return NULL; one byte keeps the pointer valid and
     * still lets AddressSanitizer flag any access past it. */
    size_t bytes = count * size;
    void *block = malloc(bytes > 0 ? bytes : 1);
    if (block == NULL) {
        perror("malloc");
        exit(2);
    }
    return block;
}

static void fail(const char *what, const unsigned char *bytes, int64_t n)
{
    fprintf(stderr, "jsonl_scan: %s on a %lld-byte input:\n", what, (long long)n);
    fwrite(bytes, 1, (size_t)n, stderr);
    fputc('\n', stderr);
    exit(1);
}

/* Scan a copy of bytes[0:n] to its end with the given capacities. */
static void scan(const unsigned char *bytes, int64_t n, int64_t rows, int64_t flag_cap,
                 int64_t table_size)
{
    char *data = exactly((size_t)n, 1);
    memcpy(data, bytes, (size_t)n);
    int64_t start = 0;
    while (start < n) {
        int64_t size = n - start;
        int64_t *ids = exactly((size_t)(FIELDS * rows), sizeof *ids);
        int64_t *status = exactly((size_t)rows, sizeof *status);
        int64_t *table = exactly((size_t)table_size, sizeof *table);
        int64_t *entries = exactly((size_t)(3 * (table_size / 2)), sizeof *entries);
        char *text = exactly((size_t)size, 1);
        char *stamps = exactly((size_t)size, 1);
        int64_t *flags = exactly((size_t)(3 * flag_cap), sizeof *flags);
        int64_t counts[COUNTS];
        int64_t full = jsonl_scan(data, start, n, rows, ids, status, table_size, table,
                                  entries, text, size, stamps, size, flag_cap, flags, counts);
        if (full != 0 && full != 1)
            fail("rejected its arguments", bytes, n);
        if (counts[OFFSET] <= start || counts[OFFSET] > n || (full == 0 && counts[OFFSET] != n))
            fail("reported a bad offset", bytes, n);
        if (counts[ROWS] > rows || counts[FLAGGED] > flag_cap ||
            counts[STRINGS] > table_size / 2 || counts[TEXT] > size || counts[STAMPS] > size)
            fail("overran a capacity", bytes, n);
        if (counts[ROWS] > 0 && counts[STRINGS] == 0)
            fail("emitted rows without strings", bytes, n);
        for (int64_t k = 0; k < FIELDS * counts[ROWS]; k++) {
            int64_t id = ids[(k / counts[ROWS]) * rows + k % counts[ROWS]];
            if (id < 0 || id >= counts[STRINGS])
                fail("emitted an unknown string id", bytes, n);
        }
        int64_t separators = 0;
        for (int64_t k = 0; k < counts[TEXT]; k++)
            separators += text[k] == '\n';
        if (counts[STRINGS] > 0 && separators != counts[STRINGS] - 1)
            fail("joined its strings wrongly", bytes, n);
        for (int64_t k = 0; k < counts[FLAGGED]; k++) {
            const int64_t *flag = flags + 3 * k;
            if (flag[0] < start || flag[1] <= flag[0] || flag[1] > counts[OFFSET] ||
                flag[2] > counts[ROWS] || (k > 0 && flag[0] <= flag[-2]))
                fail("flagged a bad span", bytes, n);
        }
        start = counts[OFFSET];
        free(ids);
        free(status);
        free(table);
        free(entries);
        free(text);
        free(stamps);
        free(flags);
    }
    free(data);
    variants++;
}

static void scan_both_ways(const unsigned char *bytes, int64_t n)
{
    scan(bytes, n, n / SHORTEST_ROW + 1, n / SHORTEST_ROW + 1, 1 << 10);
    scan(bytes, n, 1, 1, 2 * FIELDS + 2);
}

int main(int argc, char **argv)
{
    if (argc != 2) {
        fprintf(stderr, "usage: %s SEEDS_FILE\n", argv[0]);
        return 2;
    }
    FILE *seeds = fopen(argv[1], "rb");
    if (seeds == NULL) {
        perror(argv[1]);
        return 2;
    }
    long count = 0;
    int64_t n;
    while (fread(&n, sizeof n, 1, seeds) == 1) {
        if (n < 0 || n > (1 << 20)) {
            fprintf(stderr, "%s: bad seed length %lld\n", argv[1], (long long)n);
            return 2;
        }
        unsigned char *seed = exactly((size_t)n, 1);
        if (fread(seed, 1, (size_t)n, seeds) != (size_t)n) {
            fprintf(stderr, "%s: truncated seed\n", argv[1]);
            return 2;
        }
        for (int64_t length = 0; length <= n; length++)
            scan_both_ways(seed, length);
        unsigned char *variant = exactly((size_t)n, 1);
        for (int64_t at = 0; at < n; at++)
            for (size_t s = 0; s < sizeof SUBSTITUTES; s++) {
                memcpy(variant, seed, (size_t)n);
                variant[at] = SUBSTITUTES[s];
                scan_both_ways(variant, n);
            }
        free(variant);
        free(seed);
        count++;
    }
    fclose(seeds);
    if (count == 0) {
        fprintf(stderr, "%s: no seeds\n", argv[1]);
        return 2;
    }
    printf("%ld seeds, %ld scans, clean\n", count, variants);
    return 0;
}
