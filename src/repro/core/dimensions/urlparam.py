"""URI parameter-pattern similarity (the paper's stated extension).

Section V-A2's false-negative analysis finds 40 malicious servers
(Cycbot, Fake AV, Tidserv) that share **no** secondary dimension — but
"most of those servers share the same URI parameters pattern.  Thus, if
we extend our URI file dimension to consider the parameter pattern, we
could detect these threats."

This dimension makes that extension concrete: a server's *parameter
patterns* are the sorted tuples of query-parameter names it receives
(e.g. Bagle's ``("e", "id", "p")``); two servers are similar by the
overlap-ratio product of their pattern sets (the eq.-1/eq.-8 form).

Disabled by default so the stock pipeline matches the paper's published
system; enable with::

    SmashConfig(enabled_secondary_dimensions=("urifile", "ipset", "whois", "urlparam"))

Ubiquitous patterns (single generic names like ``("id",)`` appearing on a
large share of servers) never *generate* candidate pairs, mirroring the
URI-file dimension's ubiquity rule, but they still count toward the
overlap of pairs found through rarer patterns.  Candidate pairs and
their counts come from :func:`sorted_pair_counts` over the rare
patterns' posting lists, already in pair order; the ubiquitous remainder
of each overlap is added back per pair from the (tiny) per-server
ubiquitous-pattern sets (:func:`heavy_overlap`), reproducing the
full-set overlap exactly.
"""

from __future__ import annotations

from collections import defaultdict

from repro.config import DimensionConfig
from repro.core.interning import PairStats, add_overlap_edges, heavy_overlap, sorted_pair_counts
from repro.graph.csr import new_graph
from repro.graph.wgraph import WeightedGraph
from repro.httplog.trace import HttpTrace
from repro.httplog.uri import query_parameter_names

Pattern = tuple[str, ...]


def parameter_patterns_by_server(trace: HttpTrace) -> dict[str, frozenset[Pattern]]:
    """server -> set of sorted query-parameter-name tuples observed.

    Built once per trace and kept on it like the trace's own indexes, so
    the dimension cache's key and the graph builder read one object.  A
    trace prepared by the sharded preprocess arrives with it injected (an
    index-only trace has no requests to scan).
    """
    if trace._patterns_by_server is None:
        # Each distinct (host, URI) pair is visited once, in first-seen
        # order, and each distinct URI parsed once.
        patterns: dict[str, set[Pattern]] = defaultdict(set)
        names_of: dict[str, Pattern] = {}
        for host, uri in dict.fromkeys(zip(trace.column("host"), trace.column("uri"))):
            names = names_of.get(uri)
            if names is None:
                names = names_of[uri] = query_parameter_names(uri)
            if names:
                patterns[host].add(names)
        trace._patterns_by_server = {server: frozenset(found) for server, found in patterns.items()}
    return trace._patterns_by_server


def build_urlparam_graph(trace: HttpTrace, config: DimensionConfig | None = None) -> WeightedGraph:
    """Build the parameter-pattern similarity graph for *trace*.

    Servers with no parameterised requests become isolated nodes.
    """
    config = config or DimensionConfig()
    patterns_of = parameter_patterns_by_server(trace)
    # Canonical node order: trace.servers is a frozenset, so iterating it
    # directly would insert nodes in hash order.
    ordered = sorted(trace.servers)
    graph = new_graph(ordered, config.use_csr)
    width = len(ordered)
    if width < 2:
        return graph
    index = {server: i for i, server in enumerate(ordered)}

    ids_by_pattern: dict[Pattern, list[int]] = defaultdict(list)
    for server, patterns in patterns_of.items():
        server_id = index[server]
        for pattern in patterns:
            ids_by_pattern[pattern].append(server_id)

    # Split posting lists at the ubiquity threshold: rare patterns drive
    # candidate generation, ubiquitous ones only correct the overlap.
    max_servers = config.max_file_server_fraction * width
    rare_groups: list[list[int]] = []
    heavy_of: dict[int, set[int]] = {}
    for heavy_index, (pattern, members) in enumerate(ids_by_pattern.items()):
        if len(members) > max_servers:
            for server_id in members:
                heavy_of.setdefault(server_id, set()).add(heavy_index)
        else:
            rare_groups.append(sorted(members))

    stats = PairStats()
    pairs = sorted_pair_counts(
        rare_groups, width, config.max_group_size, stats, config.auto_cap_pairs, graph
    )

    heavy_sets: dict[int, frozenset[int]] = {
        server_id: frozenset(found) for server_id, found in heavy_of.items()
    }
    sizes = {
        index[server]: len(patterns) for server, patterns in patterns_of.items()
    }
    add_overlap_edges(
        graph,
        pairs,
        width,
        sizes,
        config.min_edge_weight,
        heavy_sets,
        heavy_overlap(heavy_sets, sizes),
    )
    graph.build_stats = {
        "dimension": "urlparam",
        "heavy_postings": len(ids_by_pattern) - len(rare_groups),
        **stats.to_dict(),
    }
    return graph
