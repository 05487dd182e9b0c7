"""Temporal co-occurrence similarity (Section VI's extension suggestion).

"We can also add time based dimensions [Gao et al.] to characterize the
relationship among servers."  Servers of one campaign are contacted by
the same bots in the same activity windows (a beaconing cycle hits the
download tier and the C&C tier back to back), while independent benign
servers spread over their visitors' schedules.

The similarity is window co-occurrence: bucket the trace into fixed-size
time windows, take each server's set of active windows, and score a pair
by the overlap-ratio product (eq.-1 form).  Windows containing a large
share of all servers (global rush hours) never generate candidate pairs,
mirroring the IDF rule, but still count toward the overlap of pairs
found through quieter windows.  Candidates and their counts come from
:func:`sorted_pair_counts` over the quiet windows' posting lists,
already in pair order; the rush-hour remainder is added back per pair
(:func:`heavy_overlap`), reproducing the full-set overlap exactly.

Disabled by default; enable via
``SmashConfig(enabled_secondary_dimensions=(..., "time"))``.
"""

from __future__ import annotations

from collections import defaultdict

from repro.config import DimensionConfig
from repro.core.interning import PairStats, add_overlap_edges, heavy_overlap, sorted_pair_counts
from repro.graph.wgraph import WeightedGraph
from repro.httplog.trace import HttpTrace

#: Default window size: 10 minutes.
DEFAULT_WINDOW_SECONDS = 600.0


def active_windows_by_server(
    trace: HttpTrace, window_seconds: float = DEFAULT_WINDOW_SECONDS
) -> dict[str, frozenset[int]]:
    """server -> set of window indices in which it received requests.

    At the default width the index is built once per trace and kept on
    it like the trace's own indexes, so the dimension cache's key and the
    graph builder read one object; a trace prepared by the sharded
    preprocess arrives with it injected.  Any other width scans the
    requests (and an index-only trace fails loudly on their absence).
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be > 0")
    if window_seconds != DEFAULT_WINDOW_SECONDS:
        return _scan_windows(trace, window_seconds)
    if trace._windows_by_server is None:
        trace._windows_by_server = _scan_windows(trace, window_seconds)
    return trace._windows_by_server


def _scan_windows(trace: HttpTrace, window_seconds: float) -> dict[str, frozenset[int]]:
    windows: dict[str, set[int]] = defaultdict(set)
    for host, stamp in zip(trace.column("host"), trace.column("timestamp")):
        windows[host].add(int(stamp // window_seconds))
    return {server: frozenset(found) for server, found in windows.items()}


def build_time_graph(
    trace: HttpTrace,
    config: DimensionConfig | None = None,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
) -> WeightedGraph:
    """Build the temporal co-occurrence graph for *trace*."""
    # Deferred (it loads numpy): shard map jobs import this module for
    # its window width and build no graph.
    from repro.graph.csr import new_graph

    config = config or DimensionConfig()
    windows_of = active_windows_by_server(trace, window_seconds)
    # Canonical node order: trace.servers is a frozenset, so iterating it
    # directly would insert nodes in hash order.
    ordered = sorted(trace.servers)
    graph = new_graph(ordered, config.use_csr)
    width = len(ordered)
    if width < 2:
        return graph
    index = {server: i for i, server in enumerate(ordered)}

    ids_by_window: dict[int, list[int]] = defaultdict(list)
    for server, windows in windows_of.items():
        server_id = index[server]
        for window in windows:
            ids_by_window[window].append(server_id)

    max_servers = config.max_file_server_fraction * width
    quiet_groups: list[list[int]] = []
    heavy_of: dict[int, set[int]] = {}
    for window, members in ids_by_window.items():
        if len(members) > max_servers:
            for server_id in members:
                heavy_of.setdefault(server_id, set()).add(window)
        else:
            quiet_groups.append(sorted(members))

    stats = PairStats()
    pairs = sorted_pair_counts(
        quiet_groups, width, config.max_group_size, stats, config.auto_cap_pairs, graph
    )

    heavy_sets: dict[int, frozenset[int]] = {
        server_id: frozenset(found) for server_id, found in heavy_of.items()
    }
    sizes = {
        index[server]: len(windows) for server, windows in windows_of.items()
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
        "dimension": "time",
        "heavy_postings": len(ids_by_window) - len(quiet_groups),
        **stats.to_dict(),
    }
    return graph
