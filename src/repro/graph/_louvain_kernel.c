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
 * The kernel keeps no static mutable state: every buffer belongs to the
 * caller, so concurrent calls on distinct buffers are safe.
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
