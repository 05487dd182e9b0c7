"""Frozen pre-interning (PR 1-4 era) label-path mining core.

This module is a verbatim snapshot of the mining core as it stood before
the interned-ID rewrite: string server labels flow through candidate
generation (``itertools.combinations`` per sharing group), graph
construction, the Louvain bridge (re-index + re-sort on every call),
correlation (subgraph materialisation per density), pruning (uncached
referrer normalisation) and inference.

It exists for two reasons, both load-bearing:

* **equivalence tests** — the interned core must produce byte-identical
  results; ``tests/test_interned_equivalence.py`` runs both cores on the
  same traces and compares the full result documents;
* **the scaling benchmark** — ``repro.eval.bench.mine_scaling`` times
  :class:`LegacyPipeline` against :class:`~repro.core.pipeline.SmashPipeline`
  on the same machine, so the before/after speedup in ``BENCH_mine.json``
  is measured, not asserted.

Nothing in the live pipeline imports this module.  Do not "fix" or
optimise it: its value is that it stays exactly what the pre-refactor
core computed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from urllib.parse import urlparse

from repro.config import DimensionConfig, LouvainConfig, PreprocessConfig, SmashConfig
from repro.core.ashmining import MiningOutcome
from repro.core.pipeline import (
    MAIN_DIMENSION,
    MinedDimensions,
    _append_single_client_herds,
)
from repro.core.preprocess import PreprocessReport
from repro.core.results import Campaign, CandidateAsh, Herd, PruneReport, SmashResult
from repro.errors import PipelineError
from repro.httplog.records import HttpRequest
from repro.graph.louvain import LouvainResult
from repro.graph.modularity import modularity
from repro.graph.wgraph import WeightedGraph, canonical_nodes
from repro.httplog.trace import HttpTrace
from repro.synth.oracles import RedirectOracle
from repro.util.rng import make_rng
from repro.util.text import charset_cosine, overlap_ratio_product
from repro.whois.record import WhoisRecord
from repro.whois.registry import WhoisRegistry

#: Pre-refactor Whois posting-list cap (see whoisdim._MAX_POSTING_LIST).
_MAX_POSTING_LIST = 150


# -- pre-refactor Louvain (re-index + re-sort bridge, original local move) ---------


class _LegacyLevel:
    """One coarsening level, exactly as the pre-interning implementation."""

    def __init__(self, adjacency: list[dict[int, float]], loops: list[float]) -> None:
        self.adjacency = adjacency
        self.loops = loops
        self.n = len(adjacency)
        self.degree = [
            sum(neigh.values()) + 2.0 * loops[i] for i, neigh in enumerate(adjacency)
        ]
        self.total_weight = (
            sum(sum(neigh.values()) for neigh in adjacency) / 2.0 + sum(loops)
        )
        self.community = list(range(self.n))
        self.community_degree = list(self.degree)

    def neighbor_community_weights(self, node: int) -> dict[int, float]:
        weights: dict[int, float] = defaultdict(float)
        for neighbor, weight in self.adjacency[node].items():
            weights[self.community[neighbor]] += weight
        return weights


def _legacy_local_move(level: _LegacyLevel, config: LouvainConfig, rng) -> bool:
    m2 = 2.0 * level.total_weight
    if m2 == 0.0:
        return False
    moved_any = False
    order = list(range(level.n))
    for _ in range(config.max_sweeps):
        rng.shuffle(order)
        moved_this_sweep = False
        for node in order:
            current = level.community[node]
            degree = level.degree[node]
            neighbor_weights = level.neighbor_community_weights(node)
            level.community_degree[current] -= degree
            weight_to_current = neighbor_weights.get(current, 0.0)
            best_community = current
            best_gain = 0.0
            for community, weight_to in neighbor_weights.items():
                if community == current:
                    gain = 0.0
                else:
                    gain = (weight_to - weight_to_current) / level.total_weight - (
                        degree
                        * (
                            level.community_degree[community]
                            - level.community_degree[current]
                        )
                    ) / (m2 * level.total_weight)
                if gain > best_gain + config.min_modularity_gain:
                    best_gain = gain
                    best_community = community
            level.community[node] = best_community
            level.community_degree[best_community] += degree
            if best_community != current:
                moved_this_sweep = True
                moved_any = True
        if not moved_this_sweep:
            break
    return moved_any


def _legacy_aggregate(level: _LegacyLevel) -> tuple[_LegacyLevel, list[int]]:
    labels = sorted(set(level.community))
    relabel = {label: index for index, label in enumerate(labels)}
    mapping = [relabel[c] for c in level.community]
    n_coarse = len(labels)
    adjacency: list[dict[int, float]] = [defaultdict(float) for _ in range(n_coarse)]
    loops = [0.0] * n_coarse
    for node in range(level.n):
        cu = mapping[node]
        loops[cu] += level.loops[node]
        for neighbor, weight in level.adjacency[node].items():
            cv = mapping[neighbor]
            if cu == cv:
                if node < neighbor:
                    loops[cu] += weight
            else:
                adjacency[cu][cv] += weight
    coarse = _LegacyLevel([dict(sorted(neigh.items())) for neigh in adjacency], loops)
    return coarse, mapping


def legacy_louvain(
    graph: WeightedGraph, config: LouvainConfig | None = None
) -> LouvainResult:
    """Louvain exactly as the pre-interning core ran it.

    Always takes the original bridge: canonical node re-sort, edge
    re-accumulation, and a per-level adjacency sort — the work the
    integer-indexed backend now avoids — with the original (unhoisted)
    local-move loop.
    """
    config = config or LouvainConfig()
    config.validate()
    rng = make_rng(config.seed)

    nodes = canonical_nodes(graph.nodes)
    if not nodes:
        return LouvainResult(communities=(), partition={}, modularity=0.0, levels=0)
    index_of = {node: i for i, node in enumerate(nodes)}

    adjacency: list[dict[int, float]] = [{} for _ in nodes]
    loops = [0.0] * len(nodes)
    for u, v, weight in graph.edges():
        if weight <= 0.0:
            continue
        if u == v:
            loops[index_of[u]] += weight
        else:
            iu, iv = index_of[u], index_of[v]
            adjacency[iu][iv] = adjacency[iu].get(iv, 0.0) + weight
            adjacency[iv][iu] = adjacency[iv].get(iu, 0.0) + weight
    adjacency = [dict(sorted(neigh.items())) for neigh in adjacency]

    level = _LegacyLevel(adjacency, loops)
    membership = list(range(len(nodes)))

    levels_run = 0
    for _ in range(config.max_levels):
        moved = _legacy_local_move(level, config, rng)
        levels_run += 1
        coarse, mapping = _legacy_aggregate(level)
        membership = [mapping[m] for m in membership]
        if not moved or coarse.n == level.n:
            level = coarse
            break
        level = coarse

    groups: dict[int, list] = defaultdict(list)
    for original_index, community in enumerate(membership):
        groups[community].append(nodes[original_index])
    community_sets = sorted(
        (frozenset(members) for members in groups.values()),
        key=lambda s: (-len(s), min(repr(x) for x in s)),
    )
    partition = {
        node: index
        for index, community in enumerate(community_sets)
        for node in community
    }
    q = modularity(graph, partition)
    return LouvainResult(
        communities=tuple(community_sets),
        partition=partition,
        modularity=q,
        levels=levels_run,
    )


# -- pre-refactor trace indexing and preprocessing ---------------------------------
#
# The interned rewrite also touched the substrate: HttpTrace now builds
# its indices in segments with a distinct-URI parse cache, filtered
# traces derive their indices from the parent's, and normalisation
# screens IP literals cheaply.  The pre-refactor core paid for none of
# that, so the legacy pipeline reproduces the old behaviour — one
# monolithic index pass per trace (URI parse per request), a fresh
# index build after every filter, and exception-driven IP detection —
# by injecting old-style-built indices into the traces it creates.
# The injected values are identical to what lazy builds would produce;
# only the cost is the pre-refactor cost.


def _legacy_build_all_indices(trace: HttpTrace) -> None:
    from collections import defaultdict as dd

    clients: dict[str, set[str]] = dd(set)
    files: dict[str, set[str]] = dd(set)
    ips: dict[str, set[str]] = dd(set)
    per_server: dict[str, list[HttpRequest]] = dd(list)
    servers_of: dict[str, set[str]] = dd(set)
    for request in trace.requests:
        clients[request.host].add(request.client)
        files[request.host].add(request.uri_file)
        ips[request.host].add(request.server_ip)
        per_server[request.host].append(request)
        servers_of[request.client].add(request.host)
    trace._clients_by_server = {s: frozenset(v) for s, v in clients.items()}
    trace._files_by_server = {s: frozenset(v) for s, v in files.items()}
    trace._ips_by_server = {s: frozenset(v) for s, v in ips.items()}
    trace._requests_by_server = {s: tuple(v) for s, v in per_server.items()}
    trace._servers_by_client = {c: frozenset(v) for c, v in servers_of.items()}
    trace._servers = frozenset(trace._clients_by_server)


def _legacy_aggregate_trace(trace: HttpTrace) -> HttpTrace:
    cache: dict[str, str] = {}

    def rename(host: str) -> str:
        if host not in cache:
            cache[host] = _legacy_normalize_server_name(host)
        return cache[host]

    renamed = []
    for request in trace.requests:
        new_host = rename(request.host)
        if new_host == request.host:
            renamed.append(request)
        else:
            renamed.append(
                HttpRequest(
                    timestamp=request.timestamp,
                    client=request.client,
                    host=new_host,
                    server_ip=request.server_ip,
                    uri=request.uri,
                    user_agent=request.user_agent,
                    referrer=request.referrer,
                    status=request.status,
                    method=request.method,
                )
            )
    return HttpTrace(renamed, name=f"{trace.name}:aggregated")


def _legacy_filter_servers(trace: HttpTrace, keep, name: str) -> HttpTrace:
    filtered = HttpTrace(
        [request for request in trace.requests if keep(request.host)], name=name
    )
    _legacy_build_all_indices(filtered)
    return filtered


def legacy_preprocess(
    trace: HttpTrace, config: PreprocessConfig | None = None
) -> tuple[HttpTrace, PreprocessReport]:
    config = config or PreprocessConfig()
    config.validate()

    _legacy_build_all_indices(trace)
    raw_servers = len(trace.servers)
    raw_requests = len(trace)
    aggregated = (
        _legacy_aggregate_trace(trace) if config.aggregate_second_level else trace
    )
    if config.aggregate_second_level:
        _legacy_build_all_indices(aggregated)
    aggregated_servers = len(aggregated.servers)

    counts = aggregated.client_counts()
    popular = {
        server for server, count in counts.items() if count > config.idf_threshold
    }
    too_rare = {
        server for server, count in counts.items() if count < config.min_clients
    }
    removed = popular | too_rare
    kept = _legacy_filter_servers(
        aggregated,
        lambda server: server not in removed,
        name=f"{trace.name}:preprocessed",
    )
    report = PreprocessReport(
        raw_servers=raw_servers,
        aggregated_servers=aggregated_servers,
        popular_servers_removed=len(popular),
        kept_servers=len(kept.servers),
        raw_requests=raw_requests,
        kept_requests=len(kept),
    )
    return kept, report


# -- pre-refactor dimension builders -----------------------------------------------


def legacy_build_client_graph(
    trace: HttpTrace, config: DimensionConfig | None = None
) -> WeightedGraph:
    config = config or DimensionConfig()
    clients_by_server = trace.clients_by_server
    graph = WeightedGraph()
    for server in sorted(clients_by_server):
        graph.add_node(server)

    pair_common: Counter[tuple[str, str]] = Counter()
    for servers in trace.servers_by_client.values():
        members = sorted(servers)
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                pair_common[(first, second)] += 1

    floor = max(config.min_edge_weight, config.client_min_edge_weight)
    for (first, second), common in sorted(pair_common.items()):
        weight = (common / len(clients_by_server[first])) * (
            common / len(clients_by_server[second])
        )
        if weight >= floor:
            graph.add_edge(first, second, weight)
    return graph


def legacy_build_ipset_graph(
    trace: HttpTrace, config: DimensionConfig | None = None
) -> WeightedGraph:
    config = config or DimensionConfig()
    ips_by_server = trace.ips_by_server
    graph = WeightedGraph()
    for server in sorted(ips_by_server):
        graph.add_node(server)

    servers_by_ip: dict[str, set[str]] = defaultdict(set)
    for server, ips in ips_by_server.items():
        for ip in ips:
            servers_by_ip[ip].add(server)

    candidates: set[tuple[str, str]] = set()
    for servers in servers_by_ip.values():
        if len(servers) < 2:
            continue
        candidates.update(combinations(sorted(servers), 2))

    for first, second in sorted(candidates):
        weight = overlap_ratio_product(ips_by_server[first], ips_by_server[second])
        if weight >= config.min_edge_weight:
            graph.add_edge(first, second, weight)
    return graph


def legacy_build_urifile_graph(
    trace: HttpTrace, config: DimensionConfig | None = None
) -> WeightedGraph:
    from repro.core.dimensions.urifile import file_similarity

    config = config or DimensionConfig()
    files_by_server = trace.files_by_server
    num_servers = len(files_by_server)
    graph = WeightedGraph()
    for server in sorted(files_by_server):
        graph.add_node(server)
    if num_servers < 2:
        return graph

    server_count_of_file: dict[str, int] = defaultdict(int)
    for files in files_by_server.values():
        for filename in files:
            server_count_of_file[filename] += 1
    max_servers = config.max_file_server_fraction * num_servers
    ubiquitous = {
        filename for filename, count in server_count_of_file.items() if count > max_servers
    }

    effective: dict[str, frozenset[str]] = {
        server: frozenset(f for f in files if f not in ubiquitous)
        for server, files in files_by_server.items()
    }

    cutoff = config.filename_length_cutoff
    servers_by_file: dict[str, set[str]] = defaultdict(set)
    for server, files in effective.items():
        for filename in files:
            if len(filename) <= cutoff:
                servers_by_file[filename].add(server)

    candidates: set[tuple[str, str]] = set()
    for servers in servers_by_file.values():
        if len(servers) < 2:
            continue
        for pair in combinations(sorted(servers), 2):
            candidates.add(pair)

    long_names: dict[str, set[str]] = defaultdict(set)
    for server, files in effective.items():
        for filename in files:
            if len(filename) > cutoff:
                long_names[filename].add(server)
    names = sorted(long_names)
    parent = {name: name for name in names}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for first, second in combinations(names, 2):
        if charset_cosine(first, second) > config.filename_cosine_threshold:
            parent[find(first)] = find(second)
    families: dict[str, set[str]] = defaultdict(set)
    for name in names:
        families[find(name)] |= long_names[name]
    for servers in families.values():
        if len(servers) < 2:
            continue
        for pair in combinations(sorted(servers), 2):
            candidates.add(pair)

    for first, second in sorted(candidates):
        weight = file_similarity(effective[first], effective[second], config)
        if weight >= config.min_edge_weight:
            graph.add_edge(first, second, weight)
    return graph


def legacy_build_whois_graph(
    trace: HttpTrace,
    whois: WhoisRegistry,
    config: DimensionConfig | None = None,
) -> WeightedGraph:
    from repro.core.dimensions.whoisdim import comparable_fields, whois_similarity

    config = config or DimensionConfig()
    graph = WeightedGraph()
    records: dict[str, WhoisRecord] = {}
    for server in sorted(trace.servers):
        graph.add_node(server)
        record = whois.lookup(server)
        if record is not None:
            records[server] = record

    postings: dict[tuple[str, object], set[str]] = defaultdict(set)
    for server, record in records.items():
        for field_name, value in comparable_fields(record).items():
            postings[(field_name, value)].add(server)

    candidates: set[tuple[str, str]] = set()
    for servers in postings.values():
        if len(servers) < 2 or len(servers) > _MAX_POSTING_LIST:
            continue
        for pair in combinations(sorted(servers), 2):
            candidates.add(pair)

    for first, second in sorted(candidates):
        weight = whois_similarity(records[first], records[second], config)
        if weight >= max(config.min_edge_weight, 1e-12):
            graph.add_edge(first, second, weight)
    return graph


def legacy_build_urlparam_graph(
    trace: HttpTrace, config: DimensionConfig | None = None
) -> WeightedGraph:
    from repro.core.dimensions.urlparam import parameter_patterns_by_server

    config = config or DimensionConfig()
    patterns_of = parameter_patterns_by_server(trace)
    graph = WeightedGraph()
    for server in sorted(trace.servers):
        graph.add_node(server)
    num_servers = len(trace.servers)
    if num_servers < 2:
        return graph

    servers_by_pattern: dict[tuple[str, ...], set[str]] = defaultdict(set)
    for server, patterns in patterns_of.items():
        for pattern in patterns:
            servers_by_pattern[pattern].add(server)

    max_servers = config.max_file_server_fraction * num_servers
    candidates: set[tuple[str, str]] = set()
    for servers in servers_by_pattern.values():
        if len(servers) < 2 or len(servers) > max_servers:
            continue
        for pair in combinations(sorted(servers), 2):
            candidates.add(pair)

    for first, second in sorted(candidates):
        weight = overlap_ratio_product(patterns_of[first], patterns_of[second])
        if weight >= config.min_edge_weight:
            graph.add_edge(first, second, weight)
    return graph


def legacy_build_time_graph(
    trace: HttpTrace,
    config: DimensionConfig | None = None,
) -> WeightedGraph:
    from repro.core.dimensions.timedim import active_windows_by_server

    config = config or DimensionConfig()
    windows_of = active_windows_by_server(trace)
    graph = WeightedGraph()
    for server in sorted(trace.servers):
        graph.add_node(server)
    num_servers = len(trace.servers)
    if num_servers < 2:
        return graph

    servers_by_window: dict[int, set[str]] = defaultdict(set)
    for server, windows in windows_of.items():
        for window in windows:
            servers_by_window[window].add(server)

    max_servers = config.max_file_server_fraction * num_servers
    candidates: set[tuple[str, str]] = set()
    for servers in servers_by_window.values():
        if len(servers) < 2 or len(servers) > max_servers:
            continue
        for pair in combinations(sorted(servers), 2):
            candidates.add(pair)

    for first, second in sorted(candidates):
        weight = overlap_ratio_product(windows_of[first], windows_of[second])
        if weight >= config.min_edge_weight:
            graph.add_edge(first, second, weight)
    return graph


# -- pre-refactor ASH mining (subgraph-per-herd densities) -------------------------


def _legacy_refine_community(
    graph: WeightedGraph,
    community: frozenset,
    config: LouvainConfig,
    depth: int,
) -> list[frozenset]:
    if depth >= config.max_refine_depth or len(community) <= config.min_refine_size:
        return [community]
    subgraph = graph.subgraph(community)
    if subgraph.density() >= config.refine_density_stop:
        return [community]
    local = legacy_louvain(subgraph, config)
    non_trivial = [c for c in local.communities if len(c) >= 1]
    if len(non_trivial) <= 1 or local.modularity <= config.refine_min_modularity:
        return [community]
    refined: list[frozenset] = []
    for part in non_trivial:
        refined.extend(_legacy_refine_community(graph, part, config, depth + 1))
    return refined


def legacy_mine_herds(
    graph: WeightedGraph,
    dimension: str,
    config: LouvainConfig | None = None,
) -> MiningOutcome:
    config = config or LouvainConfig()
    result = legacy_louvain(graph, config)
    communities: list[frozenset] = list(result.communities)
    if config.refine:
        refined: list[frozenset] = []
        for community in communities:
            refined.extend(_legacy_refine_community(graph, community, config, 0))
        communities = refined
    herds: list[Herd] = []
    dropped: list[str] = []
    index = 0
    for community in communities:
        if len(community) < 2:
            dropped.extend(community)
            continue
        subgraph = graph.subgraph(community)
        herds.append(
            Herd(
                dimension=dimension,
                index=index,
                servers=frozenset(community),
                density=subgraph.density(),
            )
        )
        index += 1
    return MiningOutcome(
        herds=tuple(herds),
        dropped=frozenset(dropped),
        modularity=result.modularity,
        graph=graph,
    )


# -- pre-refactor correlation ------------------------------------------------------


def legacy_correlate(
    main: MiningOutcome,
    secondary: dict[str, MiningOutcome],
    config,
    thresh: float | None = None,
):
    from repro.core.correlation import CorrelationOutcome, phi

    config.validate()
    threshold = config.thresh if thresh is None else thresh

    secondary_herd_of = {
        dimension: outcome.herd_of() for dimension, outcome in secondary.items()
    }

    scores: dict[str, float] = {}
    contributions: dict[str, dict[str, float]] = {}
    intersections: dict[tuple[int, str, int], set[str]] = {}
    density_cache: dict[tuple[int, str, int], tuple[float, float]] = {}

    def intersection_densities(key, overlap, dimension):
        if key not in density_cache:
            if len(overlap) == 1:
                density_cache[key] = (1.0, 1.0)
            else:
                sec_density = secondary[dimension].graph.subgraph(overlap).density()
                main_density = main.graph.subgraph(overlap).density()
                density_cache[key] = (sec_density, main_density)
        return density_cache[key]

    for main_herd in main.herds:
        for server in sorted(main_herd.servers):
            per_dim: dict[str, float] = {}
            for dimension, herd_of in secondary_herd_of.items():
                sec_herd = herd_of.get(server)
                if sec_herd is None:
                    continue
                overlap = main_herd.servers & sec_herd.servers
                if not overlap:
                    continue
                key = (main_herd.index, dimension, sec_herd.index)
                sec_density, main_density = intersection_densities(
                    key, frozenset(overlap), dimension
                )
                contribution = (
                    sec_density * main_density * phi(len(overlap), config.mu, config.sigma)
                )
                if contribution <= 0.0:
                    continue
                per_dim[dimension] = contribution
                intersections.setdefault(key, set()).update(overlap)
            if per_dim:
                scores[server] = sum(per_dim.values())
                contributions[server] = per_dim

    surviving = {server for server, score in scores.items() if score >= threshold}

    ashes: list[CandidateAsh] = []
    for (main_index, dimension, secondary_index), servers in sorted(intersections.items()):
        kept = frozenset(servers & surviving)
        if len(kept) >= 2:
            ashes.append(
                CandidateAsh(
                    main_index=main_index,
                    secondary_dimension=dimension,
                    secondary_index=secondary_index,
                    servers=kept,
                )
            )
    return CorrelationOutcome(
        scores=scores,
        contributions=contributions,
        candidate_ashes=tuple(ashes),
    )


# -- pre-refactor pruning (uncached referrer normalisation) ------------------------


def _legacy_is_ip_address(server: str) -> bool:
    """Pre-refactor IP check: let ``ipaddress`` raise on every domain."""
    import ipaddress

    try:
        ipaddress.ip_address(server)
    except ValueError:
        return False
    return True


def _legacy_normalize_server_name(server: str) -> str:
    """Pre-refactor normalisation (slow-path IP detection included)."""
    from repro.domains.names import second_level_domain

    cleaned = server.strip().lower()
    if not cleaned:
        raise ValueError("empty server name")
    if _legacy_is_ip_address(cleaned):
        return cleaned
    return second_level_domain(cleaned)


def _legacy_referrer_host(referrer: str) -> str | None:
    if not referrer:
        return None
    parsed = urlparse(referrer if "//" in referrer else f"http://{referrer}")
    host = parsed.netloc.split(":")[0]
    if not host:
        return None
    try:
        return _legacy_normalize_server_name(host)
    except ValueError:
        return None


def _legacy_dominant_referrers(trace: HttpTrace) -> dict[str, str]:
    referrers_of: dict[str, Counter[str]] = defaultdict(Counter)
    totals: Counter[str] = Counter()
    for request in trace:
        landing = _legacy_referrer_host(request.referrer)
        server = request.host
        totals[server] += 1
        if landing is not None and landing != server:
            referrers_of[server][landing] += 1
    dominant: dict[str, str] = {}
    for server, counts in referrers_of.items():
        landing, hits = counts.most_common(1)[0]
        if hits * 2 > totals[server]:
            dominant[server] = landing
    return dominant


def legacy_prune_ashes(
    ashes: tuple[CandidateAsh, ...],
    trace: HttpTrace,
    redirects: RedirectOracle | None = None,
    config=None,
) -> tuple[tuple[CandidateAsh, ...], PruneReport]:
    from repro.config import PruningConfig

    config = config or PruningConfig()
    config.validate()
    redirect_oracle = redirects or RedirectOracle()
    referrer_of = _legacy_dominant_referrers(trace) if config.prune_referrer_groups else {}

    redirection_replacements: dict[str, str] = {}
    referrer_replacements: dict[str, str] = {}
    kept: list[CandidateAsh] = []
    dropped = 0

    for ash in ashes:
        members: set[str] = set()
        for server in sorted(ash.servers):
            replacement = server
            if config.prune_redirection_groups:
                landing = redirect_oracle.landing_server(server)
                if landing is not None and landing != server:
                    redirection_replacements[server] = landing
                    replacement = landing
            if replacement == server and server in referrer_of:
                landing = referrer_of[server]
                referrer_replacements[server] = landing
                replacement = landing
            members.add(replacement)
        if len(members) >= 2:
            kept.append(
                CandidateAsh(
                    main_index=ash.main_index,
                    secondary_dimension=ash.secondary_dimension,
                    secondary_index=ash.secondary_index,
                    servers=frozenset(members),
                )
            )
        else:
            dropped += 1

    report = PruneReport(
        redirection_replacements=redirection_replacements,
        referrer_replacements=referrer_replacements,
        dropped_ashes=dropped,
    )
    return tuple(kept), report


# -- pre-refactor inference --------------------------------------------------------


def legacy_infer_campaigns(
    ashes: tuple[CandidateAsh, ...],
    main: MiningOutcome,
    trace: HttpTrace,
    scores: dict[str, float],
    contributions: dict[str, dict[str, float]],
    prune_report: PruneReport | None = None,
) -> tuple[Campaign, ...]:
    by_main: dict[int, set[str]] = defaultdict(set)
    for ash in ashes:
        by_main[ash.main_index].update(ash.servers)

    replacements: dict[str, str] = {}
    if prune_report is not None:
        replacements.update(prune_report.redirection_replacements)
        replacements.update(prune_report.referrer_replacements)

    clients_by_server = trace.clients_by_server
    campaigns: list[Campaign] = []
    for campaign_id, main_index in enumerate(sorted(by_main)):
        servers = frozenset(by_main[main_index])
        clients: set[str] = set()
        for server in servers:
            clients |= clients_by_server.get(server, frozenset())
        campaigns.append(
            Campaign(
                campaign_id=campaign_id,
                main_index=main_index,
                servers=servers,
                clients=frozenset(clients),
                server_scores={
                    server: scores[server] for server in sorted(servers) if server in scores
                },
                contributions={
                    server: dict(contributions[server])
                    for server in sorted(servers)
                    if server in contributions
                },
                replaced_servers={
                    replaced: landing
                    for replaced, landing in replacements.items()
                    if landing in servers
                },
            )
        )
    return tuple(campaigns)


# -- the frozen pipeline -----------------------------------------------------------


class LegacyPipeline:
    """Serial pre-refactor pipeline with the signatures of ``SmashPipeline``.

    ``workers`` / ``executor`` / ``cache`` arguments are accepted so the
    streaming engine can drive a :class:`LegacyPipeline` unmodified in
    equivalence tests, but they are ignored: the legacy core always mines
    serially and cold, which by the incremental-cache invariant produces
    the same results anyway.
    """

    def __init__(self, config: SmashConfig | None = None) -> None:
        self.config = config or SmashConfig()
        self.config.validate()

    def close(self) -> None:
        """Nothing to release: the legacy core starts no shard workers."""

    def mine(
        self,
        trace: HttpTrace,
        whois: WhoisRegistry | None = None,
        workers: int | None = None,
        executor: str | None = None,
        cache=None,
    ) -> MinedDimensions:
        if len(trace) == 0:
            raise PipelineError("cannot run SMASH on an empty trace")
        config = self.config
        prepared, report = legacy_preprocess(trace, config.preprocess)

        clients_by_server = prepared.clients_by_server
        single_client_servers = {
            server for server, clients in clients_by_server.items() if len(clients) == 1
        }
        multi_trace = _legacy_filter_servers(
            prepared,
            lambda server: server not in single_client_servers,
            name=prepared.name,
        )

        graph = legacy_build_client_graph(multi_trace, config.dimensions)
        main = legacy_mine_herds(graph, MAIN_DIMENSION, config.louvain)
        main = _append_single_client_herds(main, single_client_servers, clients_by_server)

        secondary: dict[str, MiningOutcome] = {}
        for dimension in config.enabled_secondary_dimensions:
            if dimension == "urifile":
                built = legacy_build_urifile_graph(prepared, config.dimensions)
            elif dimension == "ipset":
                built = legacy_build_ipset_graph(prepared, config.dimensions)
            elif dimension == "whois":
                built = (
                    None
                    if whois is None
                    else legacy_build_whois_graph(prepared, whois, config.dimensions)
                )
            elif dimension == "urlparam":
                built = legacy_build_urlparam_graph(prepared, config.dimensions)
            elif dimension == "time":
                built = legacy_build_time_graph(prepared, config.dimensions)
            else:  # pragma: no cover - guarded by SmashConfig.validate
                raise PipelineError(f"unknown dimension {dimension!r}")
            if built is not None:
                secondary[dimension] = legacy_mine_herds(
                    built, dimension, config.louvain
                )
        return MinedDimensions(
            trace=prepared,
            preprocess_report=report,
            main=main,
            secondary=secondary,
        )

    def finish(
        self,
        mined: MinedDimensions,
        redirects: RedirectOracle | None = None,
        thresh: float | None = None,
    ) -> SmashResult:
        config = self.config
        outcome = legacy_correlate(
            mined.main, mined.secondary, config.correlation, thresh=thresh
        )
        pruned, prune_report = legacy_prune_ashes(
            outcome.candidate_ashes, mined.trace, redirects, config.pruning
        )
        campaigns = legacy_infer_campaigns(
            pruned,
            mined.main,
            mined.trace,
            outcome.scores,
            outcome.contributions,
            prune_report,
        )
        herds_by_dimension = {MAIN_DIMENSION: mined.main.herds}
        for dimension, mining in mined.secondary.items():
            herds_by_dimension[dimension] = mining.herds
        return SmashResult(
            herds_by_dimension=herds_by_dimension,
            scores=outcome.scores,
            contributions=outcome.contributions,
            candidate_ashes=pruned,
            campaigns=campaigns,
            prune_report=prune_report,
            main_dimension_dropped=mined.main.dropped,
        )

    def run(
        self,
        trace: HttpTrace,
        whois: WhoisRegistry | None = None,
        redirects: RedirectOracle | None = None,
        thresh: float | None = None,
    ) -> SmashResult:
        mined = self.mine(trace, whois)
        return self.finish(mined, redirects, thresh=thresh)

    def run_sweep(
        self,
        trace: HttpTrace,
        thresholds: tuple[float, ...],
        whois: WhoisRegistry | None = None,
        redirects: RedirectOracle | None = None,
    ) -> dict[float, SmashResult]:
        mined = self.mine(trace, whois)
        return {
            threshold: self.finish(mined, redirects, thresh=threshold)
            for threshold in thresholds
        }
