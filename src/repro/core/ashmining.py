"""ASH mining (Section III-B3).

Run Louvain community detection on one dimension's similarity graph; the
communities that still hold at least two connected servers become that
dimension's Associated Server Herds.  Nodes that end up alone (no edges,
or singleton communities) are "dropped" by the dimension — for the main
dimension the paper reports these as servers that "can not be correlated
with other servers in client similarity" (Section V-C1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import LouvainConfig
from repro.core.results import Herd
from repro.graph.louvain import louvain_communities
from repro.graph.wgraph import WeightedGraph


@dataclass(frozen=True)
class MiningOutcome:
    """Herds plus the servers the dimension could not correlate.

    ``graph`` is the similarity graph the herds were mined from; the
    correlation stage measures intersection-ASH densities on it (eq. 9).
    The ``louvain_*`` fields aggregate the work done by the top-level
    Louvain run plus every refinement re-run — observability metadata,
    never consumed by later stages.  ``louvain_kernel`` is True when the
    compiled kernel ran every one of those runs; it is excluded from
    equality, because the reference produces the same outcome.
    """

    herds: tuple[Herd, ...]
    dropped: frozenset[str]
    modularity: float
    graph: WeightedGraph
    louvain_runs: int = 0
    louvain_levels: int = 0
    louvain_moves: int = 0
    louvain_sweeps: int = 0
    louvain_kernel: bool = field(default=False, compare=False)

    def herd_of(self) -> dict[str, Herd]:
        """server -> its herd (each server is in at most one herd)."""
        mapping: dict[str, Herd] = {}
        for herd in self.herds:
            for server in herd.servers:
                mapping[server] = herd
        return mapping


def _tally(tally: list[int], result) -> None:
    """Fold one Louvain run into a ``[runs, levels, moves, sweeps, compiled runs]`` tally."""
    tally[0] += 1
    tally[1] += result.levels
    tally[2] += result.moves
    tally[3] += result.sweeps
    tally[4] += result.compiled


def _refine_community(
    graph: WeightedGraph,
    community: frozenset,
    config: LouvainConfig,
    depth: int,
    tally: list[int],
) -> list[tuple[frozenset, float | None]]:
    """Recursively split *community* by re-running Louvain on its subgraph.

    Splitting stops when the local run keeps everything together (the
    community is cohesive — e.g. a clique) or the depth/size floors hit.
    Each returned part carries its density when this function measured
    it (``None`` otherwise), so herd construction never measures the
    same community twice.
    """
    if depth >= config.max_refine_depth or len(community) <= config.min_refine_size:
        return [(community, None)]
    density = graph.density_of(community)
    if density >= config.refine_density_stop:
        # Already a tight herd; splitting a quasi-clique only shreds it.
        # (density_of == subgraph().density(), minus the subgraph build.)
        return [(community, density)]
    subgraph = graph.subgraph(community)
    local = louvain_communities(subgraph, config)
    _tally(tally, local)
    if len(local.communities) <= 1 or local.modularity <= config.refine_min_modularity:
        return [(community, density)]
    refined: list[tuple[frozenset, float | None]] = []
    for part in local.communities:
        refined.extend(_refine_community(graph, part, config, depth + 1, tally))
    return refined


def mine_herds(
    graph: WeightedGraph,
    dimension: str,
    config: LouvainConfig | None = None,
) -> MiningOutcome:
    """Extract the ASHs of *dimension* from its similarity graph."""
    config = config or LouvainConfig()
    result = louvain_communities(graph, config)
    tally = [0, 0, 0, 0, 0]  # runs, levels, moves, sweeps, compiled runs
    _tally(tally, result)
    # A community is a herd only if its members are actually connected to
    # each other; isolated nodes form singleton communities, which
    # refinement would return unchanged (min_refine_size >= 2).
    parts: list[tuple[frozenset, float | None]] = []
    dropped: list[str] = []
    for community in result.communities:
        if len(community) < 2:
            dropped.extend(community)  # type: ignore[arg-type]
        elif config.refine:
            parts.extend(_refine_community(graph, community, config, 0, tally))
        else:
            parts.append((community, None))
    herds: list[Herd] = []
    index = 0
    for community, density in parts:
        if len(community) < 2:
            dropped.extend(community)  # type: ignore[arg-type]
            continue
        herds.append(
            Herd(
                dimension=dimension,
                index=index,
                servers=frozenset(community),  # type: ignore[arg-type]
                density=graph.density_of(community) if density is None else density,
            )
        )
        index += 1
    return MiningOutcome(
        herds=tuple(herds),
        dropped=frozenset(dropped),
        modularity=result.modularity,
        graph=graph,
        louvain_runs=tally[0],
        louvain_levels=tally[1],
        louvain_moves=tally[2],
        louvain_sweeps=tally[3],
        louvain_kernel=tally[4] == tally[0],
    )
