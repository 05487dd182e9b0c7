"""The main dimension: client-set similarity (Section III-B1, eq. 1).

    Client(Si, Sj) = |Ci ∩ Cj| / |Ci|  ×  |Ci ∩ Cj| / |Cj|

Two servers are similar when their shared clients are important to *both*
of them.  The graph is built from the client -> servers inverted index:
server ids are interned once (dense ints in canonical order), each
client's server set becomes an ascending id group, and the shared-client
count of every co-occurring pair comes out in pair order
(:func:`sorted_pair_counts`, compiled for CSR graphs) — the numerator of
eq. 1 falls out arithmetically, with no per-pair set intersections and
no per-group candidate materialisation.  The popular
servers that would create quadratic blow-ups were removed by the IDF
filter; ``config.max_group_size`` (off by default) additionally gates
pathologically busy clients.
"""

from __future__ import annotations

from repro.config import DimensionConfig
from repro.core.interning import PairStats, add_overlap_edges, sorted_pair_counts
from repro.graph.csr import new_graph
from repro.graph.wgraph import WeightedGraph
from repro.httplog.trace import HttpTrace


def client_similarity(
    clients_a: frozenset[str], clients_b: frozenset[str]
) -> float:
    """Eq. 1 for two explicit client sets."""
    if not clients_a or not clients_b:
        return 0.0
    common = len(clients_a & clients_b)
    return (common / len(clients_a)) * (common / len(clients_b))


def build_client_graph_from_indices(
    clients_by_server: dict[str, frozenset[str]],
    servers_by_client: dict[str, frozenset[str]],
    config: DimensionConfig | None = None,
) -> WeightedGraph:
    """Build the main-dimension graph from the two inverted indices.

    The pipeline calls this directly with the multi-client restriction of
    the preprocessed trace's indices — filtering a server namespace never
    changes a surviving server's client set, so deriving the restricted
    indices replaces materialising a filtered trace.
    """
    config = config or DimensionConfig()
    # Canonical node order: ids mirror the sorted server namespace, so
    # ascending-id iteration is the canonical label iteration and the
    # graph qualifies for the Louvain index fast path.
    ordered = sorted(clients_by_server)
    graph = new_graph(ordered, config.use_csr)
    width = len(ordered)
    index = {server: i for i, server in enumerate(ordered)}
    sizes = [len(clients_by_server[server]) for server in ordered]

    groups = [
        sorted(index[server] for server in servers)
        for servers in servers_by_client.values()
    ]
    stats = PairStats()
    pairs = sorted_pair_counts(
        groups, width, config.max_group_size, stats, config.auto_cap_pairs, graph
    )

    floor = max(config.min_edge_weight, config.client_min_edge_weight)
    add_overlap_edges(graph, pairs, width, sizes, floor)
    graph.build_stats = {"dimension": "client", **stats.to_dict()}
    return graph


def build_client_graph(
    trace: HttpTrace, config: DimensionConfig | None = None
) -> WeightedGraph:
    """Build the main-dimension similarity graph for *trace*.

    Every server of the trace becomes a node (so ASH mining can report
    servers "dropped by the main dimension"); edges carry eq. 1 weights
    and pairs below ``config.min_edge_weight`` are omitted.
    """
    return build_client_graph_from_indices(
        trace.clients_by_server, trace.servers_by_client, config
    )
