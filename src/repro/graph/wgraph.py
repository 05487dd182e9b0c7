"""A weighted undirected graph, integer-indexed with string-friendly labels.

This is the data structure underneath every similarity dimension: nodes
are servers, edge weights are similarity scores.  The public API speaks
node *labels* (strings in the pipeline), but the backend stores a dense
integer adjacency — ``_labels[i]`` names node ``i`` and ``_adj[i]`` maps
neighbour ids to weights — so the hot consumers can work on small ints:

* builders insert nodes pre-sorted and edges in ascending id order, which
  the graph tracks with a *canonical* flag;
* :func:`~repro.graph.louvain.louvain_communities` consumes the indexed
  adjacency of a canonical graph directly (via :meth:`louvain_view`),
  with no per-call re-indexing or re-sorting;
* :meth:`density_of` measures induced-subgraph density (the ASH weight of
  eq. 9) without materialising the subgraph.

Insertion order is preserved exactly as the label-keyed implementation
preserved it (ids mirror insertion; per-row neighbour order mirrors edge
insertion), so every float accumulation that iterates the graph —
modularity, Louvain degrees — visits weights in the same order and the
outputs stay byte-identical.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from functools import reduce
from operator import add, le

from repro.errors import GraphError

Node = Hashable


def sum_in_order(values: Iterable[float], start: float = 0.0) -> float:
    """Left-to-right float sum: ``total += value`` from *start*, in order.

    Every float sum in :mod:`repro.graph` goes through here.  Since
    Python 3.12, ``sum()`` of floats is compensated (Neumaier), so it can
    disagree in the last bit with the running ``+=`` totals the graph
    backends and the compiled Louvain kernel keep, and results would
    depend on the interpreter version.
    """
    return reduce(add, values, start)


def node_sort_key(node: Node) -> str:
    """Canonical sort key for graph nodes.

    ``repr`` is total and stable across processes for the label types the
    pipeline uses (strings, ints, tuples of those), unlike ``hash`` which
    varies with ``PYTHONHASHSEED``.  Every place that materialises a node
    *set* into an iteration order sorts with this key, so graph contents —
    not interpreter hash state — determine downstream behaviour.
    """
    return repr(node)


def sorted_namespace(
    labels: Iterable[Node],
) -> tuple[list[Node], dict[Node, int], bool, str | None]:
    """What one ``add_node`` per label leaves, computed in bulk.

    Returns the labels (first occurrences, in order), their ids, the
    canonical flag and the last sort key ``add_node`` recorded: the last
    label's key, or the first key that broke the order.
    """
    unique = list(dict.fromkeys(labels))
    index = dict(zip(unique, range(len(unique))))
    keys = list(map(node_sort_key, unique))
    ascending = list(map(le, keys, keys[1:]))
    if all(ascending):
        return unique, index, True, keys[-1] if keys else None
    return unique, index, False, keys[ascending.index(False) + 1]


def canonical_nodes(nodes: Iterable[Node]) -> list[Node]:
    """Sort *nodes* into the canonical deterministic order."""
    return sorted(nodes, key=node_sort_key)


class WeightedGraph:
    """Undirected graph with non-negative edge weights and optional self-loops.

    Adding an edge twice accumulates the weight, which is convenient when
    building similarity graphs incrementally.
    """

    __slots__ = (
        "_labels",
        "_index",
        "_adj",
        "_total_weight",
        "_canonical",
        "_last_key",
        "_num_loops",
        "_has_nonpositive",
        "build_stats",
    )

    def __init__(self) -> None:
        self._labels: list[Node] = []
        self._index: dict[Node, int] = {}
        self._adj: list[dict[int, float]] = []
        self._total_weight: float = 0.0  # sum of edge weights (each edge once)
        #: True while nodes were appended in canonical ``node_sort_key``
        #: order and every row's neighbour ids were inserted ascending —
        #: the precondition for handing ``_adj`` to Louvain untouched.
        self._canonical: bool = True
        self._last_key: str | None = None
        self._num_loops: int = 0
        self._has_nonpositive: bool = False
        #: Builder-attached diagnostics (candidate-pair accounting etc.);
        #: purely informational, never read by the algorithms.
        self.build_stats: dict[str, object] = {}

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_sorted_labels(cls, labels: Iterable[Node]) -> "WeightedGraph":
        """Graph with nodes pre-inserted from an already-sorted iterable.

        Exactly what one ``add_node`` per label leaves, built in bulk.
        """
        graph = cls()
        graph._labels, graph._index, graph._canonical, graph._last_key = sorted_namespace(labels)
        graph._adj = [{} for _ in graph._labels]
        return graph

    def add_node(self, node: Node) -> None:
        if node in self._index:
            return
        if self._canonical:
            key = node_sort_key(node)
            if self._last_key is not None and key < self._last_key:
                self._canonical = False
            self._last_key = key
        self._index[node] = len(self._labels)
        self._labels.append(node)
        self._adj.append({})

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or reinforce) the undirected edge ``{u, v}``.

        Self-loops are allowed and count once toward the total weight; their
        full weight contributes to the node degree (the 2x convention is
        handled inside the modularity computation).
        """
        iu = self._index.get(u)
        if iu is None:
            self.add_node(u)
            iu = self._index[u]
        iv = self._index.get(v)
        if iv is None:
            self.add_node(v)
            iv = self._index[v]
        self.add_edge_ids(iu, iv, weight)

    def add_edge_ids(self, iu: int, iv: int, weight: float = 1.0) -> None:
        """``add_edge`` addressed by node ids (the builders' fast path)."""
        if weight < 0:
            raise GraphError(f"edge weight must be non-negative, got {weight}")
        row_u = self._adj[iu]
        if iu == iv:
            if iu not in row_u:
                self._num_loops += 1
            stored = row_u.get(iu, 0.0) + weight
            row_u[iu] = stored
        else:
            row_v = self._adj[iv]
            existing = row_u.get(iv)
            if existing is None:
                if self._canonical and (
                    (row_u and next(reversed(row_u)) > iv)
                    or (row_v and next(reversed(row_v)) > iu)
                ):
                    self._canonical = False
                stored = weight
                row_u[iv] = weight
                row_v[iu] = weight
            else:
                stored = existing + weight
                row_u[iv] = stored
                row_v[iu] = stored
        if stored <= 0.0:
            self._has_nonpositive = True
        self._total_weight += weight

    def add_sorted_edges(
        self, edges: Iterable[tuple[int, int, float]]
    ) -> None:
        """Bulk ``add_edge_ids`` for builder output, checks elided.

        The caller guarantees what the dimension builders guarantee by
        construction: pairs are distinct, non-negative-weighted, with
        ``iu < iv``, and strictly ascending in ``(iu, iv)``.  Under those
        preconditions the per-edge canonical/loop tracking of
        :meth:`add_edge_ids` is a no-op, so this path skips it; the
        stored weights and the total-weight accumulation sequence are
        exactly what the one-at-a-time path produces.
        """
        adj = self._adj
        total = self._total_weight
        for iu, iv, weight in edges:
            adj[iu][iv] = weight
            adj[iv][iu] = weight
            if weight <= 0.0:
                self._has_nonpositive = True
            total += weight
        self._total_weight = total

    def remove_node(self, node: Node) -> None:
        target = self._index.get(node)
        if target is None:
            raise GraphError(f"node not in graph: {node!r}")
        for neighbor, weight in self._adj[target].items():
            self._total_weight -= weight
            if neighbor != target:
                del self._adj[neighbor][target]
            else:
                self._num_loops -= 1
        # Compact the index space: ids above the removed node shift down
        # by one, preserving relative (and therefore canonical) order.
        del self._labels[target]
        del self._adj[target]
        self._index = {label: i for i, label in enumerate(self._labels)}
        self._adj = [
            {(j - 1 if j > target else j): w for j, w in row.items()}
            for row in self._adj
        ]
        if self._canonical:
            self._last_key = (
                node_sort_key(self._labels[-1]) if self._labels else None
            )

    # -- id-level queries ----------------------------------------------------------

    def id_of(self, node: Node) -> int:
        """Dense id of *node*; raises :class:`GraphError` when absent."""
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"node not in graph: {node!r}") from None

    def label_of(self, index: int) -> Node:
        return self._labels[index]

    def louvain_view(self) -> tuple[list[Node], list[dict[int, float]]] | None:
        """The indexed adjacency, when Louvain may consume it directly.

        Returns ``(labels, adjacency)`` — live internals, callers must
        not mutate — iff the graph was built canonically (node ids in
        ``node_sort_key`` order, rows ascending), has no self-loops and
        no non-positive edge weights.  Otherwise ``None``, and the caller
        falls back to the re-index + re-sort bridge, which handles every
        graph shape (and is exactly the pre-interning behaviour).
        """
        if self._canonical and self._num_loops == 0 and not self._has_nonpositive:
            return self._labels, self._adj
        return None

    # -- queries -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: same nodes, edges and weights.

        Insertion order is ignored, so two graphs built by different
        executions compare equal exactly when they describe the same
        weighted topology.
        """
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._label_adjacency() == other._label_adjacency()

    __hash__ = None  # mutable container; unhashable like list/dict

    def _label_adjacency(self) -> dict[Node, dict[Node, float]]:
        labels = self._labels
        return {
            labels[i]: {labels[j]: w for j, w in row.items()}
            for i, row in enumerate(self._adj)
        }

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._labels)

    @property
    def nodes(self) -> list[Node]:
        return list(self._labels)

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Yield each undirected edge once as ``(u, v, weight)``.

        A pair is yielded from the endpoint with the smaller id — the row
        where it was scanned first in the label-keyed implementation — so
        the sequence (and with it every downstream float accumulation)
        matches the old first-occurrence order without a seen-set.
        """
        labels = self._labels
        for i, row in enumerate(self._adj):
            label = labels[i]
            for j, weight in row.items():
                if j >= i:
                    yield label, labels[j], weight

    def num_edges(self) -> int:
        """Number of undirected edges (self-loops count once)."""
        entries = sum(len(row) for row in self._adj)
        return (entries - self._num_loops) // 2 + self._num_loops

    def neighbors(self, node: Node) -> dict[Node, float]:
        """Neighbor -> weight mapping (includes the node itself for loops)."""
        index = self._index.get(node)
        if index is None:
            raise GraphError(f"node not in graph: {node!r}")
        labels = self._labels
        return {labels[j]: w for j, w in self._adj[index].items()}

    def has_edge(self, u: Node, v: Node) -> bool:
        iu = self._index.get(u)
        if iu is None:
            return False
        iv = self._index.get(v)
        return iv is not None and iv in self._adj[iu]

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``{u, v}``; 0.0 when absent."""
        iu = self._index.get(u)
        if iu is None:
            return 0.0
        iv = self._index.get(v)
        if iv is None:
            return 0.0
        return self._adj[iu].get(iv, 0.0)

    def degree(self, node: Node) -> float:
        """Weighted degree; a self-loop contributes twice its weight."""
        index = self._index.get(node)
        if index is None:
            raise GraphError(f"node not in graph: {node!r}")
        row = self._adj[index]
        return sum_in_order(row.values()) + row.get(index, 0.0)

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights, each undirected edge counted once."""
        return self._total_weight

    # -- derived graphs --------------------------------------------------------------

    def subgraph(self, nodes: Iterable[Node]) -> "WeightedGraph":
        """Induced subgraph on *nodes* (missing nodes are ignored).

        Nodes are inserted in canonical order so the subgraph's iteration
        order depends only on its contents, never on the hash order of the
        *nodes* set handed in (communities are usually frozensets).
        """
        index = self._index
        keep = {index[node] for node in nodes if node in index}
        if self._canonical:
            ordered = sorted(keep)
        else:
            labels = self._labels
            ordered = sorted(keep, key=lambda i: node_sort_key(labels[i]))
        sub = WeightedGraph()
        for i in ordered:
            sub.add_node(self._labels[i])
        local = {i: k for k, i in enumerate(ordered)}
        sub_adj = sub._adj
        for i in ordered:
            li = local[i]
            row_li = sub_adj[li]
            for j, weight in self._adj[i].items():
                lj = local.get(j)
                if lj is None:
                    continue
                if i == j or lj not in row_li:
                    sub.add_edge_ids(li, lj, weight)
        return sub

    def density(self) -> float:
        """Edge density ``2|e| / (|v| (|v|-1))`` used as the ASH weight.

        Matches Section III-C: the number of edges in the group over the
        number of edges of the complete graph on the same vertices.
        Self-loops are excluded.  A graph with fewer than two nodes has
        density 0 (a single server cannot be "well connected").
        """
        n = len(self._labels)
        if n < 2:
            return 0.0
        edges = (sum(len(row) for row in self._adj) - self._num_loops) // 2
        return 2.0 * edges / (n * (n - 1))

    def density_of(self, nodes: Iterable[Node]) -> float:
        """Density of the induced subgraph, without materialising it.

        Exactly ``self.subgraph(nodes).density()`` — the edge count is the
        same integer — at a fraction of the cost; correlation measures
        every intersection-ASH weight (eq. 9) through this.
        """
        index = self._index
        members = {index[node] for node in nodes if node in index}
        n = len(members)
        if n < 2:
            return 0.0
        adj = self._adj
        edges = 0
        for i in members:
            row = adj[i]
            if len(row) <= n:
                shared = sum(1 for j in row if j in members)
            else:
                shared = sum(1 for j in members if j in row)
            if i in row:
                shared -= 1
            edges += shared
        edges //= 2
        return 2.0 * edges / (n * (n - 1))
