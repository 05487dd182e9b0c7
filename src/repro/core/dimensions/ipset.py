"""IP-address-set similarity (Section III-B2, eq. 8).

    IP(Si, Sj) = |Ii ∩ Ij| / |Ii|  ×  |Ij ∩ Ii| / |Ij|

Captures domain fluxing: many malicious domains resolving into one small
IP pool (the paper's skolewcho.com / switcho81.com / ... example).  An
IP-literal "server" has itself as its IP set, so a fluxed domain herd and
the raw IP it hides behind associate naturally.

Server ids are interned once; each IP's posting list becomes an ascending
id group and :func:`sorted_pair_counts` gives every pair's shared-IP
count in pair order, which *is* the eq.-8 numerator — no candidate-pair
set, no per-pair set intersections.  A
popular shared IP is this dimension's heavy hitter; ``config.max_group_size``
(off by default) bounds it deterministically.
"""

from __future__ import annotations

from collections import defaultdict

from repro.config import DimensionConfig
from repro.core.interning import PairStats, add_overlap_edges, sorted_pair_counts
from repro.graph.csr import new_graph
from repro.graph.wgraph import WeightedGraph
from repro.httplog.trace import HttpTrace


def build_ipset_graph(trace: HttpTrace, config: DimensionConfig | None = None) -> WeightedGraph:
    """Build the IP-set similarity graph from the trace's resolutions."""
    config = config or DimensionConfig()
    ips_by_server = trace.ips_by_server
    # Canonical node order (see build_client_graph): sorted, not set order.
    ordered = sorted(ips_by_server)
    graph = new_graph(ordered, config.use_csr)
    width = len(ordered)
    index = {server: i for i, server in enumerate(ordered)}
    sizes = [len(ips_by_server[server]) for server in ordered]

    ids_by_ip: dict[str, list[int]] = defaultdict(list)
    for server, ips in ips_by_server.items():
        server_id = index[server]
        for ip in ips:
            ids_by_ip[ip].append(server_id)

    stats = PairStats()
    pairs = sorted_pair_counts(
        [sorted(group) for group in ids_by_ip.values()],
        width,
        config.max_group_size,
        stats,
        config.auto_cap_pairs,
        graph,
    )

    add_overlap_edges(graph, pairs, width, sizes, config.min_edge_weight)
    graph.build_stats = {"dimension": "ipset", **stats.to_dict()}
    return graph
