"""Newman modularity of a weighted partition.

Modularity measures "the density of the links inside the community as
compared with the links between communities" (paper Section III-B1, citing
Blondel et al. 2008).  For a weighted graph with total edge weight ``m``:

    Q = (1 / 2m) * sum_ij [ A_ij - k_i k_j / 2m ] * delta(c_i, c_j)

where ``A`` is the weighted adjacency matrix, ``k_i`` the weighted degree
of node ``i`` and ``delta`` the community indicator.  Q lies in [-1, 1].
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable, Mapping

from repro.errors import GraphError
from repro.graph.wgraph import WeightedGraph, sum_in_order

Node = Hashable


def modularity(graph: WeightedGraph, partition: Mapping[Node, int]) -> float:
    """Modularity Q of *partition* over *graph*.

    ``partition`` maps every node of the graph to a community label.
    Raises :class:`GraphError` when a node is missing from the partition.
    An empty graph (no edges) has modularity 0 by convention.

    Graphs that carry their own ``_modularity`` implementation (the CSR
    backend, whose compiled kernel adds up each community's sums over
    its edge arrays) dispatch to it; the result is byte-identical to the
    walk below on the same logical graph.
    """
    impl = getattr(graph, "_modularity", None)
    if impl is not None:
        return impl(partition)
    m2 = 2.0 * graph.total_weight  # 2m
    if m2 == 0.0:
        return 0.0
    # Work on the graph's integer backend: same nodes in the same
    # insertion order, same per-row neighbour order, so every float
    # accumulates in exactly the order the label-keyed walk used — just
    # without materialising a label dict per node.
    labels = graph.nodes
    communities: list[int] = []
    for node in labels:
        if node not in partition:
            raise GraphError(f"partition is missing node {node!r}")
        communities.append(partition[node])

    internal: dict[int, float] = defaultdict(float)  # sum of internal weights * 2
    degree_sum: dict[int, float] = defaultdict(float)
    adjacency = graph._adj  # rows are id-indexed; labels[i] names row i
    for index in range(len(labels)):
        community = communities[index]
        row = adjacency[index]
        degree_sum[community] += sum_in_order(row.values()) + row.get(index, 0.0)
        for neighbor, weight in row.items():
            if communities[neighbor] == community:
                if neighbor == index:
                    internal[community] += 2.0 * weight
                else:
                    internal[community] += weight

    q = 0.0
    for community, deg in degree_sum.items():
        q += internal[community] / m2 - (deg / m2) ** 2
    return q
