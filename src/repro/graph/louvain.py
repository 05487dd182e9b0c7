"""Louvain community detection (Blondel, Guillaume, Lambiotte, Lefebvre 2008).

This is the algorithm the paper uses for ASH extraction ([17] in the
references): it "automatically finds high modularity partitions of large
networks in short time".  The implementation follows the original
two-phase scheme:

1. **Local move** — repeatedly move each node to the neighbouring community
   with the largest positive modularity gain until no move improves Q.
2. **Aggregation** — collapse communities into super-nodes (preserving
   intra-community weight as self-loops) and repeat on the coarser graph.

The node visiting order is shuffled with a seeded RNG so results are both
randomised (as in the reference implementation) and reproducible.

Determinism
-----------
The run is a pure function of the graph's *contents* and the config seed,
independent of graph insertion order and of ``PYTHONHASHSEED``: nodes are
indexed in canonical sorted order and the integer adjacency lists are
sorted once per level, so the seeded shuffle, the neighbour-community
accumulation order, and therefore every equal-gain tie-break are fixed by
construction.

Index fast path
---------------
:class:`~repro.graph.wgraph.WeightedGraph` is integer-indexed internally;
when a graph reports (via ``louvain_view``) that its ids are already in
canonical order with ascending, loop-free, positive-weight rows — true
for every graph the dimension builders produce — the entry level consumes
the graph's adjacency directly, skipping the re-index/re-accumulate/
re-sort bridge entirely.  The bridge remains as the fallback for
arbitrary graphs and is byte-identical to the fast path on graphs where
both apply (same ids, same row order, same float accumulation order).

Compiled kernel
---------------
A frozen :class:`~repro.graph.csr.CsrGraph` (one whose ``csr_view`` is
not ``None``) runs both phases in an exact C kernel,
``_louvain_kernel.c``, which :mod:`repro.graph._kernel` compiles on
first use and loads through ctypes.  :func:`_kernel_membership` holds
the level arrays and makes one foreign call per sweep and one per
aggregation.  The seeded shuffle stays here: each sweep shuffles the
same list the reference shuffles and copies it into the kernel's order
buffer, so the RNG draws are the reference's.  The kernel repeats every
float operation of :func:`_local_move`, :func:`_aggregate` and
:class:`_Level` in the same order, so the result is identical.
``WeightedGraph`` inputs (``use_csr=False``, ``--pure-python``), mutated
CSR graphs and machines without a C compiler run the pure-Python
reference.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.config import LouvainConfig
from repro.errors import GraphError
from repro.graph.csr import np as _np
from repro.graph.modularity import modularity
from repro.graph.wgraph import WeightedGraph, canonical_nodes, sum_in_order
from repro.util.rng import make_rng

Node = Hashable


@dataclass(frozen=True)
class LouvainResult:
    """Outcome of a Louvain run.

    Attributes
    ----------
    communities:
        The final partition as a list of frozensets of original nodes,
        sorted by decreasing size then lexicographic representative for
        determinism.
    partition:
        node -> community index into :attr:`communities`.
    modularity:
        Modularity Q of the final partition on the input graph.
    levels:
        Number of coarsening levels executed.
    moves:
        Total number of accepted node moves across all levels.
    sweeps:
        Total number of local-move sweeps executed across all levels.
    compiled:
        Whether the compiled kernel ran the two phases.  Metadata only:
        both implementations produce the same result, so it is excluded
        from equality.
    """

    communities: tuple[frozenset[Node], ...]
    partition: dict[Node, int]
    modularity: float
    levels: int
    moves: int = 0
    sweeps: int = 0
    compiled: bool = field(default=False, compare=False)

    def community_of(self, node: Node) -> frozenset[Node]:
        return self.communities[self.partition[node]]


class _Level:
    """One coarsening level: dense-int adjacency plus community bookkeeping."""

    def __init__(self, adjacency: list[dict[int, float]], loops: list[float]) -> None:
        self.adjacency = adjacency
        self.loops = loops  # self-loop weight per node (counted once)
        self.n = len(adjacency)
        # Weighted degree: neighbours + 2 * self-loop.
        row_sums = [sum_in_order(neigh.values()) for neigh in adjacency]
        self.degree = [row + 2.0 * loop for row, loop in zip(row_sums, loops)]
        self.total_weight = sum_in_order(row_sums) / 2.0 + sum_in_order(loops)
        self.community = list(range(self.n))
        # Sum of degrees per community.
        self.community_degree = list(self.degree)


def _local_move(level: _Level, config: LouvainConfig, rng) -> tuple[int, int]:
    """Phase 1: greedy node moves.  Returns ``(moves, sweeps)`` counts.

    The loop is the pipeline's single hottest region, so the invariants
    are hoisted (``m2 * total_weight`` is the same float every
    evaluation; ``community_degree[current]`` does not change while the
    node is detached) and the neighbour-community accumulation is
    inlined.  Every arithmetic operation, accumulation order and
    tie-break is exactly the original's — outputs are byte-identical.
    """
    m2 = 2.0 * level.total_weight
    if m2 == 0.0:
        return 0, 0
    total_weight = level.total_weight
    m2_total = m2 * total_weight
    adjacency = level.adjacency
    degrees = level.degree
    community_of = level.community
    community_degree = level.community_degree
    min_gain = config.min_modularity_gain
    moves = 0
    sweeps = 0
    order = list(range(level.n))
    for _ in range(config.max_sweeps):
        rng.shuffle(order)
        sweeps += 1
        moved_this_sweep = False
        for node in order:
            current = community_of[node]
            degree = degrees[node]
            # Total edge weight from `node` to each neighbouring
            # community, accumulated in row order (ascending neighbour
            # ids — the order that fixes every equal-gain tie-break).
            neighbor_weights: dict[int, float] = {}
            get_weight = neighbor_weights.get
            for neighbor, weight in adjacency[node].items():
                community = community_of[neighbor]
                seen = get_weight(community)
                neighbor_weights[community] = (
                    weight if seen is None else seen + weight
                )
            # Remove the node from its community for gain computation.
            community_degree[current] -= degree
            current_degree = community_degree[current]
            weight_to_current = get_weight(current, 0.0)
            best_community = current
            best_gain = 0.0
            for community, weight_to in neighbor_weights.items():
                if community == current:
                    continue  # gain 0.0 can never beat best_gain + min_gain
                # Delta-Q of moving `node` from `current` to `community`,
                # both evaluated with the node removed.
                gain = (weight_to - weight_to_current) / total_weight - (
                    degree * (community_degree[community] - current_degree)
                ) / m2_total
                if gain > best_gain + min_gain:
                    best_gain = gain
                    best_community = community
            community_of[node] = best_community
            community_degree[best_community] += degree
            if best_community != current:
                moved_this_sweep = True
                moves += 1
        if not moved_this_sweep:
            break
    return moves, sweeps


def _aggregate(level: _Level) -> tuple[_Level, list[int]]:
    """Phase 2: collapse communities into super-nodes.

    Returns the coarser level and the mapping node -> super-node index.
    """
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
    # Keep the coarse adjacency lists in sorted-index order as well, so
    # every level inherits the entry level's order-independence.
    coarse = _Level([dict(sorted(neigh.items())) for neigh in adjacency], loops)
    return coarse, mapping


def _reference_membership(
    level: _Level, n_nodes: int, config: LouvainConfig, rng
) -> tuple[list[int], int, int, int]:
    """Both phases in pure Python: ``(membership, levels, moves, sweeps)``.

    ``membership[i]`` is the community label of original node ``i`` on
    the current level, and at the end its final community.
    """
    membership = list(range(n_nodes))
    levels_run = 0
    total_moves = 0
    total_sweeps = 0
    for _ in range(config.max_levels):
        level_moves, level_sweeps = _local_move(level, config, rng)
        total_moves += level_moves
        total_sweeps += level_sweeps
        levels_run += 1
        coarse, mapping = _aggregate(level)
        # `mapping` already composes the community assignment with the
        # coarse relabeling, so one hop advances each original node.
        membership = [mapping[m] for m in membership]
        if not level_moves or coarse.n == level.n:
            break
        level = coarse
    return membership, levels_run, total_moves, total_sweeps


def _carve(dtype, sizes: tuple[int, ...]) -> tuple[list, list[int]]:
    """One zeroed block of *dtype* split into views of *sizes*, with the
    address of each view for the kernel."""
    block = _np.zeros(sum(sizes), dtype=dtype)
    base = block.ctypes.data
    views: list = []
    addresses: list[int] = []
    offset = 0
    for size in sizes:
        views.append(block[offset : offset + size])
        addresses.append(base + offset * block.itemsize)
        offset += size
    return views, addresses


class _KernelLevels:
    """One Louvain run's levels in the compiled kernel.

    The twin of :class:`_Level`, :func:`_local_move` and
    :func:`_aggregate`, over CSR arrays: ``level`` holds the current
    level's ``(indptr, indices, weights, loops, degree)``.  The entry
    level is the graph's own arrays; coarse levels alternate between two
    buffer slots sized for the entry level, which bounds every coarser
    one.  ``membership`` maps each original node to its super-node on
    the current level.
    """

    def __init__(self, kernel, view) -> None:
        n = len(view.labels)
        indptr = _np.ascontiguousarray(view.indptr, dtype=_np.int64)
        indices = _np.ascontiguousarray(view.indices, dtype=_np.int64)
        weights = _np.ascontiguousarray(view.weights, dtype=_np.float64)
        entries = len(indices)
        # The kernel indexes with these arrays unchecked: refuse any that
        # could send it out of bounds.
        if (
            len(indptr) != n + 1
            or indptr[0] != 0
            or indptr[n] != entries
            or len(weights) != entries
            or (n and _np.any(indptr[1:] < indptr[:-1]))
            or (entries and not 0 <= indices.min() <= indices.max() < n)
        ):
            raise GraphError("malformed CSR view: indptr, indices and weights disagree")
        self._kernel = kernel
        self._n_members = n
        # ints: community, order, membership, touched (n each) and the
        # aggregation work (3n + 1), then per slot indptr and indices.
        ints, int_at = _carve(_np.int64, (n, n, n, n, 3 * n + 1, n + 1, entries, n + 1, entries))
        # floats: entry loops (all zero) and degree, community degree and
        # neighbour-weight scratch (n each), the coarse total weight, then
        # per slot weights, loops and degree.
        floats, float_at = _carve(_np.float64, (n, n, n, n, 1, entries, n, n, entries, n, n))
        self._seen = _np.zeros(n, dtype=_np.uint8)
        self._seen_at = self._seen.ctypes.data
        self.community, self._order, self.membership = ints[:3]
        self.community_degree = floats[2]
        self._total = floats[4]
        (
            self._community_at,
            self._order_at,
            self._membership_at,
            self._touched_at,
            self._work_at,
        ) = int_at[:5]
        self._community_degree_at, self._acc_at, self._total_at = float_at[2:5]
        # Per slot: (indptr, indices, weights, loops, degree), as views
        # and as addresses, in the kernel's argument order.
        self._slots = [
            (
                (ints[i], ints[i + 1], *floats[f : f + 3]),
                (int_at[i], int_at[i + 1], *float_at[f : f + 3]),
            )
            for i, f in ((5, 5), (7, 8))
        ]
        self._next_slot = 0
        self.membership[:] = _np.arange(n, dtype=_np.int64)
        self.n = n
        # The entry level is the graph's arrays, with zero self-loops.
        self.level = (indptr, indices, weights, floats[0], floats[1])
        self._level_at = tuple(array.ctypes.data for array in self.level)
        indptr_at, _, weights_at, loops_at, degree_at = self._level_at
        self.total_weight = kernel.louvain_init_level(
            n,
            indptr_at,
            weights_at,
            loops_at,
            degree_at,
            self._community_at,
            self._community_degree_at,
        )

    def local_move(self, config: LouvainConfig, rng) -> tuple[int, int]:
        """Phase 1, exactly :func:`_local_move`: ``(moves, sweeps)``.

        Each sweep shuffles the list ``_local_move`` shuffles, with the
        same RNG, and copies it into the kernel's order buffer; then one
        foreign call runs the sweep.
        """
        m2 = 2.0 * self.total_weight
        if m2 == 0.0:
            return 0, 0
        total_weight = self.total_weight
        m2_total = m2 * total_weight
        n = self.n
        indptr, indices, weights, _, degree = self._level_at
        sweep = self._kernel.louvain_sweep
        order_buffer = self._order
        min_gain = config.min_modularity_gain
        moves = 0
        sweeps = 0
        order = list(range(n))
        for _ in range(config.max_sweeps):
            rng.shuffle(order)
            order_buffer[:n] = order
            sweeps += 1
            moved = sweep(
                n,
                indptr,
                indices,
                weights,
                degree,
                self._community_at,
                self._community_degree_at,
                self._order_at,
                total_weight,
                m2_total,
                min_gain,
                self._acc_at,
                self._touched_at,
                self._seen_at,
            )
            if not moved:
                break
            moves += moved
        return moves, sweeps

    def aggregate(self) -> None:
        """Phase 2, exactly :func:`_aggregate`: advance to the coarse level
        and compose ``membership`` with the relabeling."""
        views, addresses = self._slots[self._next_slot]
        self._next_slot ^= 1
        indptr, indices, weights, loops, _ = self._level_at
        self.n = self._kernel.louvain_aggregate(
            self.n,
            indptr,
            indices,
            weights,
            loops,
            self._community_at,
            self._n_members,
            self._membership_at,
            *addresses,
            self._total_at,
            self._community_degree_at,
            self._work_at,
            self._acc_at,
            self._seen_at,
        )
        self.total_weight = float(self._total[0])
        self.level = views
        self._level_at = addresses


def _kernel_membership(kernel, view, config: LouvainConfig, rng) -> tuple[list[int], int, int, int]:
    """:func:`_reference_membership` in the compiled kernel."""
    levels = _KernelLevels(kernel, view)
    levels_run = 0
    total_moves = 0
    total_sweeps = 0
    for _ in range(config.max_levels):
        level_moves, level_sweeps = levels.local_move(config, rng)
        total_moves += level_moves
        total_sweeps += level_sweeps
        levels_run += 1
        n_level = levels.n
        levels.aggregate()
        if not level_moves or levels.n == n_level:
            break
    return levels.membership.tolist(), levels_run, total_moves, total_sweeps


def _ordered_communities(
    nodes: list[Node], membership: list[int]
) -> tuple[tuple[frozenset[Node], ...], dict[Node, int]]:
    """The final partition, sorted by decreasing size then representative.

    *nodes* is in canonical (``repr``) order on every entry path, so a
    community's first member index orders it exactly as its smallest
    ``repr`` would.  Singletons all come last, in index order, and are
    sorted apart: most nodes of a sparse graph are singletons.
    """
    groups: dict[int, list[int]] = {
        label: [] for label, size in Counter(membership).items() if size > 1
    }
    singletons: list[int] = []
    for index, label in enumerate(membership):
        members = groups.get(label)
        if members is None:
            singletons.append(index)
        else:
            members.append(index)
    communities: list[frozenset[Node]] = []
    partition: dict[Node, int] = {}
    for members in sorted(groups.values(), key=lambda members: (-len(members), members[0])):
        position = len(communities)
        labels = [nodes[i] for i in members]
        communities.append(frozenset(labels))
        for label in labels:
            partition[label] = position
    for index in singletons:
        label = nodes[index]
        partition[label] = len(communities)
        communities.append(frozenset((label,)))
    return tuple(communities), partition


def louvain_communities(
    graph: WeightedGraph,
    config: LouvainConfig | None = None,
    use_index: bool = True,
) -> LouvainResult:
    """Run Louvain community detection on *graph*.

    Isolated nodes come back as singleton communities.  The empty graph
    yields an empty result.  ``use_index=False`` forces the rebuild
    bridge even on index-ready graphs (the pre-interning behaviour; the
    equivalence tests and the legacy benchmark core rely on it).
    """
    config = config or LouvainConfig()
    config.validate()
    rng = make_rng(config.seed)

    view_of = getattr(graph, "csr_view", None) if use_index else None
    csr = view_of() if view_of is not None else None
    kernel = None
    if csr is not None and len(csr.labels):
        from repro.graph import _kernel  # deferred: nothing loads at import

        kernel = _kernel.load()
    if kernel is not None:
        nodes = list(csr.labels)
        membership, levels_run, total_moves, total_sweeps = _kernel_membership(
            kernel, csr, config, rng
        )
    else:
        view = graph.louvain_view() if use_index else None
        if view is not None:
            # Fast path: the graph's ids are already canonical and its rows
            # ascending and loop-free, so its adjacency *is* the entry
            # level.  `_Level` and `_aggregate` only read it; the labels
            # are snapshotted because callers may grow the graph afterwards.
            nodes, adjacency = list(view[0]), view[1]
            loops = [0.0] * len(nodes)
        else:
            # Canonical node indexing: the integer id of a node depends
            # only on the node set, not on graph insertion order, so the
            # seeded shuffle visits the same servers in the same order on
            # every run.
            nodes = canonical_nodes(graph.nodes)
            index_of = {node: i for i, node in enumerate(nodes)}
            adjacency = [{} for _ in nodes]
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
            # Sort each adjacency list by neighbour index: the iteration
            # order of `_local_move`'s neighbour-community accumulation
            # (and with it every equal-gain tie-break) becomes a function
            # of the topology alone.
            adjacency = [dict(sorted(neigh.items())) for neigh in adjacency]
        if not nodes:
            return LouvainResult(communities=(), partition={}, modularity=0.0, levels=0)
        membership, levels_run, total_moves, total_sweeps = _reference_membership(
            _Level(adjacency, loops), len(nodes), config, rng
        )

    communities, partition = _ordered_communities(nodes, membership)
    return LouvainResult(
        communities=communities,
        partition=partition,
        modularity=modularity(graph, partition),
        levels=levels_run,
        moves=total_moves,
        sweeps=total_sweeps,
        compiled=kernel is not None,
    )
