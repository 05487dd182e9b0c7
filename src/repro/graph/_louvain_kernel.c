/*
 * Exact compiled kernel for Louvain's two phases (Blondel, Guillaume,
 * Lambiotte & Lefebvre 2008): one local-move sweep, and the aggregation
 * of communities into super-nodes.  repro.graph.louvain drives it
 * through ctypes over CSR arrays it owns; the seeded shuffle stays in
 * Python, so the kernel sees the same node order the reference
 * `_local_move` visits.
 *
 * Every float is produced by the same operations in the same order as
 * the pure-Python reference (`_local_move`, `_aggregate`, `_Level`):
 * neighbour-community weights are summed in row order, gains are
 * evaluated in first-occurrence order with the strict
 * `gain > best_gain + min_gain` tie-break, coarse weights and self-loops
 * accumulate in node-major row order, and degrees and total weight are
 * left-to-right sums.  Build with -O2 -ffp-contract=off and never with
 * -ffast-math, which would license reassociation and fused
 * multiply-adds.
 *
 * The same file holds the CSR graph's queries (repro.graph.csr) and
 * the id-domain steps of ASH mining (repro.core.ashmining): the CSR
 * arrays built from ascending pairs, the induced subgraph of a sorted
 * member set, per-community modularity sums, and a partition's parts
 * in LouvainResult order.  Those four check their whole input before
 * they write anything, read only inside the arrays they are given and
 * write only inside the capacities they are told; a refused input
 * returns a negative code with every output untouched.
 *
 * The kernel keeps no static mutable state and allocates nothing:
 * every buffer belongs to the caller, so concurrent calls on distinct
 * buffers are safe.
 */

#include <stdint.h>
#include <stdlib.h>

/*
 * Degrees and total weight of a level, and the singleton partition it
 * starts from: community[i] = i, community_degree = degree.  A node's
 * degree is its row sum plus twice its self-loop; the total weight is
 * the sum of the row sums halved, plus the sum of the self-loops.
 */
static double init_level(int64_t n, const int64_t *indptr,
                         const double *weights, const double *loops,
                         double *degree, int64_t *community,
                         double *community_degree)
{
    double row_total = 0.0;
    double loop_total = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double row = 0.0;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
            row += weights[k];
        degree[i] = row + 2.0 * loops[i];
        community[i] = i;
        community_degree[i] = degree[i];
        row_total += row;
        loop_total += loops[i];
    }
    return row_total / 2.0 + loop_total;
}

double louvain_init_level(int64_t n, const int64_t *indptr,
                          const double *weights, const double *loops,
                          double *degree, int64_t *community,
                          double *community_degree)
{
    return init_level(n, indptr, weights, loops, degree, community,
                      community_degree);
}

/*
 * One local-move sweep over the nodes in `order`; returns the number of
 * accepted moves.  `acc` (n doubles), `touched` (n ints) and `seen`
 * (n bytes, all zero) are scratch; `seen` is all zero again on return.
 *
 * A node without neighbours is skipped.  That is exact: it is alone in
 * its community, so the reference's detach and re-attach compute
 * x - x + x = x and it stays put.
 */
int64_t louvain_sweep(int64_t n, const int64_t *indptr,
                      const int64_t *indices, const double *weights,
                      const double *degree, int64_t *community,
                      double *community_degree, const int64_t *order,
                      double total_weight, double m2_total, double min_gain,
                      double *acc, int64_t *touched, unsigned char *seen)
{
    int64_t moves = 0;
    for (int64_t p = 0; p < n; p++) {
        int64_t node = order[p];
        int64_t start = indptr[node];
        int64_t end = indptr[node + 1];
        if (start == end)
            continue;
        int64_t current = community[node];
        double node_degree = degree[node];
        /* Weight from `node` to each neighbouring community, in row order;
         * `touched` lists the communities in first-occurrence order. */
        int64_t count = 0;
        for (int64_t k = start; k < end; k++) {
            int64_t c = community[indices[k]];
            if (seen[c]) {
                acc[c] += weights[k];
            } else {
                seen[c] = 1;
                acc[c] = weights[k];
                touched[count++] = c;
            }
        }
        community_degree[current] -= node_degree;
        double current_degree = community_degree[current];
        double weight_to_current = seen[current] ? acc[current] : 0.0;
        int64_t best_community = current;
        double best_gain = 0.0;
        for (int64_t s = 0; s < count; s++) {
            int64_t c = touched[s];
            seen[c] = 0;
            if (c == current)
                continue;
            double gain = (acc[c] - weight_to_current) / total_weight
                - (node_degree * (community_degree[c] - current_degree))
                    / m2_total;
            if (gain > best_gain + min_gain) {
                best_gain = gain;
                best_community = c;
            }
        }
        community[node] = best_community;
        community_degree[best_community] += node_degree;
        if (best_community != current)
            moves++;
    }
    return moves;
}

static int compare_ids(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a;
    int64_t y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/*
 * Collapse the level's communities into super-nodes; returns their
 * number.  Super-node ids rank the community labels in ascending order.
 * The coarse level is written to `coarse_*` (capacity: n rows and the
 * level's entry count), initialised like `louvain_init_level` with its
 * total weight in `*coarse_total`, and `community` is overwritten with
 * the coarse singleton partition.  `membership` (n_members original
 * nodes) advances one level.  `work` holds 3n + 1 ints; `acc` and
 * `seen` are as in `louvain_sweep`.
 */
int64_t louvain_aggregate(int64_t n, const int64_t *indptr,
                          const int64_t *indices, const double *weights,
                          const double *loops, int64_t *community,
                          int64_t n_members, int64_t *membership,
                          int64_t *coarse_indptr, int64_t *coarse_indices,
                          double *coarse_weights, double *coarse_loops,
                          double *coarse_degree, double *coarse_total,
                          double *community_degree, int64_t *work,
                          double *acc, unsigned char *seen)
{
    int64_t *mapping = work;
    int64_t *group_start = work + n;
    int64_t *members = work + 2 * n + 1;

    /* Rank the community labels (members[] is scratch until it is filled). */
    for (int64_t c = 0; c < n; c++)
        members[c] = 0;
    for (int64_t i = 0; i < n; i++)
        members[community[i]] = 1;
    int64_t n_coarse = 0;
    for (int64_t c = 0; c < n; c++)
        if (members[c])
            members[c] = n_coarse++;
    for (int64_t i = 0; i < n; i++)
        mapping[i] = members[community[i]];

    /* Group the nodes of each super-node in ascending node order, so each
     * coarse sum accumulates in the reference's node-major order. */
    for (int64_t c = 0; c <= n_coarse; c++)
        group_start[c] = 0;
    for (int64_t i = 0; i < n; i++)
        group_start[mapping[i] + 1]++;
    for (int64_t c = 0; c < n_coarse; c++)
        group_start[c + 1] += group_start[c];
    for (int64_t c = 0; c < n_coarse; c++)
        coarse_indptr[c] = group_start[c];
    for (int64_t i = 0; i < n; i++)
        members[coarse_indptr[mapping[i]]++] = i;

    int64_t pos = 0;
    coarse_indptr[0] = 0;
    for (int64_t cu = 0; cu < n_coarse; cu++) {
        int64_t row_start = pos;
        double loop = 0.0;
        for (int64_t g = group_start[cu]; g < group_start[cu + 1]; g++) {
            int64_t node = members[g];
            loop += loops[node];
            for (int64_t k = indptr[node]; k < indptr[node + 1]; k++) {
                int64_t neighbor = indices[k];
                int64_t cv = mapping[neighbor];
                if (cv == cu) {
                    if (node < neighbor)
                        loop += weights[k];
                } else if (seen[cv]) {
                    acc[cv] += weights[k];
                } else {
                    seen[cv] = 1;
                    acc[cv] = 0.0;
                    acc[cv] += weights[k];
                    coarse_indices[pos++] = cv;
                }
            }
        }
        /* Coarse rows are sorted by neighbour id, like the reference's. */
        qsort(coarse_indices + row_start, (size_t)(pos - row_start),
              sizeof(int64_t), compare_ids);
        for (int64_t k = row_start; k < pos; k++) {
            int64_t cv = coarse_indices[k];
            coarse_weights[k] = acc[cv];
            seen[cv] = 0;
        }
        coarse_loops[cu] = loop;
        coarse_indptr[cu + 1] = pos;
    }

    for (int64_t i = 0; i < n_members; i++)
        membership[i] = mapping[membership[i]];
    *coarse_total = init_level(n_coarse, coarse_indptr, coarse_weights,
                               coarse_loops, coarse_degree, community,
                               community_degree);
    return n_coarse;
}

enum {
    GRAPH_BAD_ARGUMENTS = -1,
    GRAPH_OUT_OF_RANGE = -2,
    GRAPH_NOT_ASCENDING = -3,
    GRAPH_BAD_ROWS = -4,
    GRAPH_SHORT_CAPACITY = -5,
};

/*
 * The CSR arrays of the symmetric graph whose edges are the m pairs
 * (firsts[t], seconds[t]) weighing weights[t], with 0 <= i < j < n and
 * strictly ascending in (i, j).  Row r lists its lower neighbours (the
 * pairs (i, r)) and then its upper ones (the pairs (r, j)), each in
 * ascending order: the row-major, ascending-column order of a lexsort
 * of the symmetrised entries.  One counting pass sizes the rows; one
 * pass over the pairs fills them with indptr as the row cursors, which
 * works because every pair (i, r) comes before every pair (r, j).
 *
 * indptr holds n + 1 entries, indices and out_weights entry_cap >= 2m.
 * Returns 2m.
 */
int64_t csr_from_pairs(int64_t n, int64_t m, const int64_t *firsts,
                       const int64_t *seconds, const double *weights,
                       int64_t entry_cap, int64_t *indptr, int64_t *indices,
                       double *out_weights)
{
    if (n < 0 || m < 0 || m > INT64_MAX / 2 || entry_cap < 2 * m)
        return GRAPH_BAD_ARGUMENTS;
    for (int64_t t = 0; t < m; t++) {
        int64_t i = firsts[t];
        int64_t j = seconds[t];
        if (i < 0 || j >= n || i >= j)
            return GRAPH_OUT_OF_RANGE;
        if (t > 0 && (i < firsts[t - 1]
                      || (i == firsts[t - 1] && j <= seconds[t - 1])))
            return GRAPH_NOT_ASCENDING;
    }

    for (int64_t r = 0; r <= n; r++)
        indptr[r] = 0;
    for (int64_t t = 0; t < m; t++) {
        indptr[firsts[t] + 1]++;
        indptr[seconds[t] + 1]++;
    }
    for (int64_t r = 0; r < n; r++)
        indptr[r + 1] += indptr[r];
    for (int64_t t = 0; t < m; t++) {
        int64_t i = firsts[t];
        int64_t j = seconds[t];
        int64_t pos = indptr[i]++;
        indices[pos] = j;
        out_weights[pos] = weights[t];
        pos = indptr[j]++;
        indices[pos] = i;
        out_weights[pos] = weights[t];
    }
    /* Each cursor ended at its row's end, the next row's start. */
    for (int64_t r = n; r > 0; r--)
        indptr[r] = indptr[r - 1];
    indptr[0] = 0;
    return 2 * m;
}

/*
 * The members of row `row` (entries [start, end), ascending columns)
 * among the k ascending ids: returns how many there are.  With
 * sub_indices given, each match is written at pos, pos + 1, ... as its
 * position in ids and its weight, in column order, and the weight of
 * every match above `row` is added to *total.  The shorter of the two
 * sorted lists is walked and its items searched for in the longer one,
 * so a small community with a hub member costs O(k log degree).
 */
static int64_t gather_row(const int64_t *indices, const double *weights,
                          int64_t start, int64_t end, const int64_t *ids,
                          int64_t k, int64_t row, int64_t *sub_indices,
                          double *sub_weights, int64_t pos, double *total)
{
    int64_t found = 0;
    if (end - start <= k) {
        int64_t lo = 0;
        for (int64_t e = start; e < end && lo < k; e++) {
            int64_t col = indices[e];
            int64_t hi = k;
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (ids[mid] < col)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            if (lo < k && ids[lo] == col) {
                if (sub_indices != NULL) {
                    sub_indices[pos + found] = lo;
                    sub_weights[pos + found] = weights[e];
                    if (lo > row)
                        *total += weights[e];
                }
                found++;
                lo++;
            }
        }
    } else {
        int64_t lo = start;
        for (int64_t p = 0; p < k && lo < end; p++) {
            int64_t id = ids[p];
            int64_t hi = end;
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (indices[mid] < id)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            if (lo < end && indices[lo] == id) {
                if (sub_indices != NULL) {
                    sub_indices[pos + found] = p;
                    sub_weights[pos + found] = weights[lo];
                    if (p > row)
                        *total += weights[lo];
                }
                found++;
                lo++;
            }
        }
    }
    return found;
}

/*
 * The subgraph induced by the k strictly ascending node ids `ids` of a
 * CSR graph (n rows, n_entries entries, ascending columns in each row).
 * Returns the number of its entries, twice its edge count when the
 * graph has no self-loops.  With sub_indptr given, the subgraph is
 * written too, in local ids (positions in `ids`): sub_indptr holds
 * k + 1 entries, sub_indices and sub_weights out_cap, at least the
 * count (else GRAPH_SHORT_CAPACITY, nothing written), and *sub_total
 * the weights of its upper-triangle entries added left to right in
 * row-major order.
 */
int64_t csr_induced(int64_t n, const int64_t *indptr, const int64_t *indices,
                    const double *weights, int64_t n_entries, int64_t k,
                    const int64_t *ids, int64_t out_cap, int64_t *sub_indptr,
                    int64_t *sub_indices, double *sub_weights,
                    double *sub_total)
{
    if (n < 0 || n_entries < 0 || k < 0 || k > n)
        return GRAPH_BAD_ARGUMENTS;
    for (int64_t p = 0; p < k; p++) {
        int64_t id = ids[p];
        if (id < 0 || id >= n)
            return GRAPH_OUT_OF_RANGE;
        if (p > 0 && id <= ids[p - 1])
            return GRAPH_NOT_ASCENDING;
        if (indptr[id] < 0 || indptr[id] > indptr[id + 1]
            || indptr[id + 1] > n_entries)
            return GRAPH_BAD_ROWS;
    }
    int64_t count = 0;
    for (int64_t p = 0; p < k; p++)
        count += gather_row(indices, weights, indptr[ids[p]],
                            indptr[ids[p] + 1], ids, k, p, NULL, NULL, 0,
                            NULL);
    if (sub_indptr == NULL)
        return count;
    if (out_cap < count)
        return GRAPH_SHORT_CAPACITY;
    double total = 0.0;
    int64_t pos = 0;
    sub_indptr[0] = 0;
    for (int64_t p = 0; p < k; p++) {
        pos += gather_row(indices, weights, indptr[ids[p]], indptr[ids[p] + 1],
                          ids, k, p, sub_indices, sub_weights, pos, &total);
        sub_indptr[p + 1] = pos;
    }
    *sub_total = total;
    return count;
}

/*
 * Newman modularity's two sums for the partition `community` (n node
 * labels, each in [0, n_labels)) of a CSR graph: communities are
 * numbered by first occurrence in node order, and the r-th one met gets
 * degree[r], its members' row sums (each left to right, plus a
 * self-loop's weight once more) added in node order, and internal[r],
 * the weight of every entry with both ends in it (a self-loop's twice)
 * added in row-major order.  This is repro.graph.modularity's walk; the
 * caller adds up Q in Python.  rank (n_labels entries) is scratch;
 * internal and degree hold out_cap >= min(n, n_labels) entries.
 * Returns the number of communities.
 */
int64_t csr_community_sums(int64_t n, const int64_t *indptr,
                           const int64_t *indices, const double *weights,
                           int64_t n_entries, const int64_t *community,
                           int64_t n_labels, int64_t *rank, int64_t out_cap,
                           double *internal, double *degree)
{
    if (n < 0 || n_entries < 0 || n_labels < 0
        || out_cap < (n < n_labels ? n : n_labels))
        return GRAPH_BAD_ARGUMENTS;
    if (indptr[0] != 0 || indptr[n] > n_entries)
        return GRAPH_BAD_ROWS;
    for (int64_t i = 0; i < n; i++) {
        if (indptr[i + 1] < indptr[i])
            return GRAPH_BAD_ROWS;
        if (community[i] < 0 || community[i] >= n_labels)
            return GRAPH_OUT_OF_RANGE;
    }
    for (int64_t e = 0; e < indptr[n]; e++)
        if (indices[e] < 0 || indices[e] >= n)
            return GRAPH_OUT_OF_RANGE;

    for (int64_t c = 0; c < n_labels; c++)
        rank[c] = -1;
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t c = community[i];
        if (rank[c] < 0) {
            rank[c] = count;
            internal[count] = 0.0;
            degree[count] = 0.0;
            count++;
        }
        int64_t r = rank[c];
        double row = 0.0;
        double loop = 0.0;
        for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {
            int64_t j = indices[e];
            row += weights[e];
            if (j == i)
                loop = weights[e];
            if (community[j] == c)
                internal[r] += j == i ? 2.0 * weights[e] : weights[e];
        }
        degree[r] += row + loop;
    }
    return count;
}

/*
 * The parts of a partition of k nodes (membership[i] in [0, n_labels)),
 * in LouvainResult order: by decreasing size, then by smallest member,
 * each listing its members in ascending order.  Writes part_start (the
 * parts' offsets into members, part_cap >= k + 1 entries) and members
 * (member_cap >= k entries: ids[i] when ids is given, else i) and
 * returns the number of parts.  work holds work_cap >= n_labels + 2k + 1
 * entries of scratch.
 */
int64_t louvain_parts(int64_t k, const int64_t *membership, int64_t n_labels,
                      const int64_t *ids, int64_t work_cap, int64_t *work,
                      int64_t part_cap, int64_t *part_start,
                      int64_t member_cap, int64_t *members)
{
    if (k < 0 || n_labels < 0 || n_labels > INT64_MAX - 2 * k - 1
        || work_cap < n_labels + 2 * k + 1 || part_cap < k + 1
        || member_cap < k)
        return GRAPH_BAD_ARGUMENTS;
    for (int64_t i = 0; i < k; i++)
        if (membership[i] < 0 || membership[i] >= n_labels)
            return GRAPH_OUT_OF_RANGE;

    /* work: rank[n_labels] | size[k], then each rank's part | bucket[k + 1]. */
    int64_t *rank = work;
    int64_t *size = work + n_labels;
    int64_t *bucket = size + k;
    for (int64_t c = 0; c < n_labels; c++)
        rank[c] = -1;
    int64_t parts = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t c = membership[i];
        if (rank[c] < 0) {
            rank[c] = parts;
            size[parts++] = 0;
        }
        size[rank[c]]++;
    }
    /* Ranks follow the smallest members, so a stable counting sort by
     * decreasing size puts the parts in order. */
    for (int64_t s = 0; s <= k; s++)
        bucket[s] = 0;
    for (int64_t r = 0; r < parts; r++)
        bucket[size[r]]++;
    int64_t placed = 0;
    for (int64_t s = k; s > 0; s--) {
        int64_t here = bucket[s];
        bucket[s] = placed;
        placed += here;
    }
    part_start[0] = 0;
    for (int64_t r = 0; r < parts; r++) {
        int64_t p = bucket[size[r]]++;
        part_start[p + 1] = size[r];
        size[r] = p;
    }
    for (int64_t p = 0; p < parts; p++)
        part_start[p + 1] += part_start[p];
    /* Fill with part_start as the cursors, then shift them back. */
    for (int64_t i = 0; i < k; i++)
        members[part_start[size[rank[membership[i]]]]++] = ids != NULL ? ids[i] : i;
    for (int64_t p = parts; p > 0; p--)
        part_start[p] = part_start[p - 1];
    part_start[0] = 0;
    return parts;
}
