"""URI-file similarity (Section III-B2, eqs. 2-7, Appendix B).

Per-file similarity:

* filenames of length <= ``len`` (paper: 25) must match **exactly**
  (short names are usually not obfuscated);
* longer filenames are compared by character-frequency cosine and are
  similar when ``cos(theta) > 0.8`` (the Figure-4 obfuscation case).

Per-server similarity (eq. 7) is the product of the two directed
mean-of-max terms:

    File(Si, Sj) = mean_m( max_n sim(f_m, f_n) ) × mean_n( max_m sim(f_n, f_m) )

Implementation notes
--------------------
* A mixed short/long comparison is exact-match by the short-name rule,
  and two different-length strings are never equal, so only long-long
  pairs ever go through the cosine.
* Ubiquitous filenames (present on more than ``max_file_server_fraction``
  of all servers — ``index.html`` and friends) carry no campaign signal
  and are excluded from *candidate generation* and from the per-server
  file inventories used in eq. 7; without this, the inverted index would
  enumerate O(N^2) benign pairs.
* Candidate pairs and their counts come from :func:`sorted_pair_counts`
  over the short-name posting lists and the long-name cosine families
  (union-find over matches), already in pair order; a filename shared
  below the ubiquity threshold is this dimension's heavy hitter, gated by
  ``config.max_group_size`` (off by default).
* A family group holds only servers with long names, so when at most
  one server of a pair has any and no group was skipped, the pair's
  count is ``|short_a ∩ short_b|``, the matched count in both directions,
  and eq. 7 is the overlap-ratio form ``(c/|Fa|) * (c/|Fb|)``, computed
  vectorised.  Only pairs where both servers have long names (every pair,
  once a cap skipped a group) take the per-pair matching.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection
from itertools import chain, combinations

from repro.config import DimensionConfig
from repro.core.interning import PairStats, add_overlap_edges, sorted_pair_counts
from repro.graph.csr import new_graph
from repro.graph.wgraph import WeightedGraph
from repro.httplog.trace import HttpTrace
from repro.util.text import charset_cosine


def filename_similarity(
    first: str, second: str, config: DimensionConfig | None = None
) -> float:
    """Per-file similarity sim(fi, fj) of eqs. 2-6 (returns 0.0 or 1.0)."""
    config = config or DimensionConfig()
    cutoff = config.filename_length_cutoff
    if len(first) <= cutoff or len(second) <= cutoff:
        return 1.0 if first == second else 0.0
    if charset_cosine(first, second) > config.filename_cosine_threshold:
        return 1.0
    return 0.0


def file_similarity(
    files_a: frozenset[str] | set[str],
    files_b: frozenset[str] | set[str],
    config: DimensionConfig | None = None,
) -> float:
    """Eq. 7 between two servers' file inventories."""
    config = config or DimensionConfig()
    if not files_a or not files_b:
        return 0.0
    cutoff = config.filename_length_cutoff
    short_a = {f for f in files_a if len(f) <= cutoff}
    short_b = {f for f in files_b if len(f) <= cutoff}
    long_a = [f for f in files_a if len(f) > cutoff]
    long_b = [f for f in files_b if len(f) > cutoff]

    def directed(
        short_from: set[str],
        long_from: list[str],
        short_to: set[str],
        long_to: list[str],
        total: int,
    ) -> float:
        matched = len(short_from & short_to)
        for name in long_from:
            if any(
                charset_cosine(name, other) > config.filename_cosine_threshold
                for other in long_to
            ):
                matched += 1
        return matched / total

    forward = directed(short_a, long_a, short_b, long_b, len(files_a))
    backward = directed(short_b, long_b, short_a, long_a, len(files_b))
    return forward * backward


def build_urifile_graph(trace: HttpTrace, config: DimensionConfig | None = None) -> WeightedGraph:
    """Build the URI-file similarity graph for *trace*."""
    config = config or DimensionConfig()
    files_by_server = trace.files_by_server
    # Canonical node order (see build_client_graph): sorted, not set order.
    ordered = sorted(files_by_server)
    graph = new_graph(ordered, config.use_csr)
    width = len(ordered)
    if width < 2:
        return graph
    index = {server: i for i, server in enumerate(ordered)}

    # Identify ubiquitous filenames to ignore.
    server_count_of_file: dict[str, int] = defaultdict(int)
    for files in files_by_server.values():
        for filename in files:
            server_count_of_file[filename] += 1
    max_servers = config.max_file_server_fraction * width
    ubiquitous = {
        filename
        for filename, count in server_count_of_file.items()
        if count > max_servers
    }

    effective: dict[str, frozenset[str]] = {
        server: frozenset(f for f in files if f not in ubiquitous)
        for server, files in files_by_server.items()
    }

    cutoff = config.filename_length_cutoff
    # Posting lists: exact short names, and long names for the cosine
    # families below.
    ids_by_file: dict[str, list[int]] = defaultdict(list)
    long_names: dict[str, list[int]] = defaultdict(list)
    for server in ordered:
        server_id = index[server]
        for filename in effective[server]:
            if len(filename) <= cutoff:
                ids_by_file[filename].append(server_id)
            else:
                long_names[filename].append(server_id)

    # Long-name charset families: cluster long names by cosine (union-find
    # over matches), then each family's servers form one group.  Every
    # unordered long-name pair is compared here exactly once; the
    # verdicts are kept so the per-pair eq.-7 weights below never have to
    # run a cosine again.
    threshold = config.filename_cosine_threshold
    names = sorted(long_names)
    parent = {name: name for name in names}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    similar_pairs: set[tuple[str, str]] = set()
    for first, second in combinations(names, 2):
        if charset_cosine(first, second) > threshold:
            parent[find(first)] = find(second)
            similar_pairs.add((first, second))
    # A name compared against itself (two servers sharing one long
    # filename) goes through the same cosine predicate, not an equality
    # shortcut: with threshold == 1.0 even identical names don't match.
    self_similar = {
        name: charset_cosine(name, name) > threshold for name in names
    }
    families: dict[str, set[int]] = defaultdict(set)
    for name in names:
        families[find(name)].update(long_names[name])

    stats = PairStats()
    pairs = sorted_pair_counts(
        [sorted(group) for group in chain(ids_by_file.values(), families.values())],
        width,
        config.max_group_size,
        stats,
        config.auto_cap_pairs,
        graph,
    )

    # Per-server eq.-7 inputs, split once instead of once per pair.
    split_of: dict[int, tuple[set[str], list[str], int]] = {}
    for server in ordered:
        files = effective[server]
        if files:
            split_of[index[server]] = (
                {f for f in files if len(f) <= cutoff},
                [f for f in files if len(f) > cutoff],
                len(files),
            )

    def long_name_matches(name: str, long_to: list[str]) -> bool:
        for other in long_to:
            if name == other:
                if self_similar[name]:
                    return True
            elif (
                (name, other) if name < other else (other, name)
            ) in similar_pairs:
                return True
        return False

    def directed(
        short_from: set[str],
        long_from: list[str],
        short_to: set[str],
        long_to: list[str],
        total: int,
    ) -> float:
        matched = len(short_from & short_to)
        for name in long_from:
            if long_name_matches(name, long_to):
                matched += 1
        return matched / total

    def eq7(first_id: int, second_id: int, _count: int) -> float:
        short_a, long_a, total_a = split_of[first_id]
        short_b, long_b, total_b = split_of[second_id]
        # eq. 7 with the same matched counts file_similarity computes;
        # only the cosine verdicts come from the precomputed table.
        return directed(short_a, long_a, short_b, long_b, total_a) * directed(
            short_b, long_b, short_a, long_a, total_b
        )

    # A pair's count is its matched count in both directions unless both
    # servers have long names, or a cap skipped a group: those pairs take
    # eq7, the rest the overlap-ratio form with the file totals.
    if stats.skipped_groups:
        per_pair: Collection[int] = range(width)
    else:
        per_pair = {server_id for server_id, split in split_of.items() if split[1]}
    totals = [len(effective[server]) for server in ordered]
    add_overlap_edges(graph, pairs, width, totals, config.min_edge_weight, per_pair, eq7)
    graph.build_stats = {
        "dimension": "urifile",
        "ubiquitous_files": len(ubiquitous),
        "long_name_families": len(families),
        **stats.to_dict(),
    }
    return graph
