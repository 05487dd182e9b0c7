/*
 * Exact compiled pair counting for the dimension graphs: the upper
 * triangle of A·Aᵀ, where A is the server × artefact incidence matrix
 * given as groups of server ids (one group per shared client, IP,
 * filename, ...).  Gustavson's row-by-row sparse product with a dense
 * accumulator (ACM TOMS 1978): the groups are transposed once, so that
 * each server id knows the groups holding it and its position in each;
 * then row i counts the later members of those groups into a dense
 * accumulator of `width` entries, marks the columns it touched in a
 * bitmap, and emits them in ascending order by scanning the bitmap's
 * words from column i + 1 on.  Rows are emitted in ascending order
 * too, so the output is every co-occurring pair i < j with its count,
 * in ascending (i, j) order: exactly the sorted keys of
 * repro.core.interning's accumulate_pair_counts, which stays as the
 * reference.
 *
 * A group with fewer than two members contributes nothing.  The
 * caller applies the reference's group-size cap before the call.
 *
 * The kernel validates its whole input before it writes any output,
 * reads only inside the arrays it is given, writes only inside the
 * scratch and output capacities it is told, allocates nothing and
 * keeps no static state, so concurrent calls on distinct buffers are
 * safe.
 */

#include <stdint.h>

enum {
    PAIRS_BAD_ARGUMENTS = -1,
    PAIRS_BAD_OFFSETS = -2,
    PAIRS_ID_OUT_OF_RANGE = -3,
    PAIRS_NOT_ASCENDING = -4,
};

/* Scratch int64 entries pair_counts needs for `width` ids and `n_ids`
 * members, or -1 when that overflows. */
static int64_t scratch_size(int64_t width, int64_t n_ids)
{
    if (width < 0 || n_ids < 0 || width > (INT64_MAX - 1) / 4
        || n_ids > (INT64_MAX - 1 - 3 * width) / 2)
        return -1;
    return 2 * width + 1 + 2 * n_ids + (width + 63) / 64;
}

/*
 * Emit the co-occurring pairs of rows `row`, `row` + 1, ... of the
 * groups given by `offsets` (groups + 1 entries, from 0 up to n_ids)
 * and `ids` (n_ids entries, each group strictly ascending, every id in
 * [0, width)).  Pair t is (firsts[t], seconds[t]) with count counts[t].
 *
 * Returns the number of pairs written, at most out_cap, and stores in
 * *next_row the row to resume from: width once every row is emitted,
 * or the first row whose pairs did not fit.  A row has fewer than
 * width pairs, so out_cap >= width always makes progress.  A negative
 * return refuses the input; nothing was written then, not even
 * *next_row.
 *
 * `scratch` holds scratch_cap entries, at least
 * 2 * width + 1 + 2 * n_ids + ceil(width / 64); its contents on entry do
 * not matter.
 */
int64_t pair_counts(int64_t width, int64_t groups, const int64_t *offsets,
                    const int64_t *ids, int64_t n_ids, int64_t row,
                    int64_t *scratch, int64_t scratch_cap, int64_t out_cap,
                    int64_t *firsts, int64_t *seconds, int64_t *counts,
                    int64_t *next_row)
{
    int64_t needed = scratch_size(width, n_ids);
    if (needed < 0 || groups < 0 || row < 0 || row > width
        || out_cap < 0 || scratch_cap < needed)
        return PAIRS_BAD_ARGUMENTS;
    if (offsets[0] != 0 || offsets[groups] != n_ids)
        return PAIRS_BAD_OFFSETS;
    for (int64_t g = 0; g < groups; g++) {
        int64_t start = offsets[g];
        int64_t end = offsets[g + 1];
        if (end < start || end > n_ids)
            return PAIRS_BAD_OFFSETS;
        for (int64_t k = start; k < end; k++) {
            if (ids[k] < 0 || ids[k] >= width)
                return PAIRS_ID_OUT_OF_RANGE;
            if (k > start && ids[k] <= ids[k - 1])
                return PAIRS_NOT_ASCENDING;
        }
    }

    /* Scratch: row_start[width + 1] | later[2 * n_ids] | acc[width] |
     * touched[ceil(width / 64)], a bitmap of the columns with a nonzero
     * count.  Row i's occurrences in the groups are the entries s in
     * [row_start[i], row_start[i + 1]); the members after occurrence s
     * are ids[later[2s]] up to ids[later[2s + 1] - 1]. */
    int64_t *row_start = scratch;
    int64_t *later = row_start + width + 1;
    int64_t *acc = later + 2 * n_ids;
    uint64_t *touched = (uint64_t *)(acc + width);
    int64_t words = (width + 63) / 64;

    for (int64_t i = 0; i <= width; i++)
        row_start[i] = 0;
    for (int64_t g = 0; g < groups; g++) {
        int64_t start = offsets[g];
        int64_t end = offsets[g + 1];
        for (int64_t k = start; k < end - 1; k++)
            row_start[ids[k] + 1]++;
    }
    for (int64_t i = 0; i < width; i++) {
        row_start[i + 1] += row_start[i];
        acc[i] = row_start[i];  /* fill cursor */
    }
    for (int64_t g = 0; g < groups; g++) {
        int64_t start = offsets[g];
        int64_t end = offsets[g + 1];
        for (int64_t k = start; k < end - 1; k++) {
            int64_t s = acc[ids[k]]++;
            later[2 * s] = k + 1;
            later[2 * s + 1] = end;
        }
    }
    for (int64_t i = 0; i < width; i++)
        acc[i] = 0;
    for (int64_t w = 0; w < words; w++)
        touched[w] = 0;

    int64_t written = 0;
    for (int64_t i = row; i < width; i++) {
        int64_t touched_count = 0, highest = i;
        for (int64_t s = row_start[i]; s < row_start[i + 1]; s++) {
            for (int64_t k = later[2 * s]; k < later[2 * s + 1]; k++) {
                int64_t j = ids[k];
                if (acc[j]++ == 0) {
                    touched[j >> 6] |= (uint64_t)1 << (j & 63);
                    touched_count++;
                    if (j > highest)
                        highest = j;
                }
            }
        }
        /* Every touched column is above i: scan the words from i + 1's
         * to the highest's, in order, clearing them as we go. */
        int64_t fits = touched_count <= out_cap - written;
        for (int64_t w = (i + 1) >> 6; touched_count > 0 && w <= highest >> 6; w++) {
            uint64_t word = touched[w];
            touched[w] = 0;
            while (word != 0) {
                int64_t j = (w << 6) + __builtin_ctzll(word);
                word &= word - 1;
                if (fits) {
                    firsts[written] = i;
                    seconds[written] = j;
                    counts[written] = acc[j];
                    written++;
                }
                acc[j] = 0;
            }
        }
        if (!fits) {
            *next_row = i;
            return written;
        }
    }
    *next_row = width;
    return written;
}
