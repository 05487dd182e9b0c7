"""CSR (compressed sparse row) backend for the similarity graphs.

:class:`CsrGraph` stores the symmetric adjacency of a canonically built
dimension graph as three numpy arrays — ``indptr``/``indices``/
``weights`` — instead of one python dict per row.  It is a drop-in for
:class:`~repro.graph.wgraph.WeightedGraph` across the whole mining API
(same methods, same float accumulation orders, byte-identical pipeline
output) while giving the hot consumers contiguous neighbor slices:

* Louvain runs both of its phases in the compiled kernel
  (``repro.graph._louvain_kernel.c``) over the arrays ``csr_view``
  hands over;
* modularity becomes masked segment sums over the edge arrays;
* ``subgraph`` extracts refinement communities with vectorised row
  gathers, returning another ``CsrGraph``.

Byte-identity with the dict backend is an invariant, not an accident:
``np.bincount`` accumulates its weights sequentially in input order
(exactly the dict-accumulation order), elementwise float64 arithmetic is
bit-identical to python scalar arithmetic, and every order-sensitive
reduction (total weight, modularity Q) stays a sequential python-float
sum (:func:`~repro.graph.wgraph.sum_in_order`, never ``sum()``, which
compensates since Python 3.12).  Pairwise reductions (``np.sum``,
``np.add.reduceat``) are never used on weights.

Construction mirrors the builders' contract (sorted labels, then one
bulk load of ascending ``iu < iv`` edges); the arrays are frozen after
that.  Post-construction mutation — the pipeline appends single-client
herd edges to the built main graph — goes to a small dict overlay with
the dict backend's exact insertion-order semantics, and disables the
vectorised views (queries stay correct via the merged rows).

numpy is optional: when it is unavailable this module still imports and
``HAVE_NUMPY`` is False; callers fall back to the pure-python
``WeightedGraph`` (see :func:`resolve_use_csr` / :func:`new_graph`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Hashable, Iterable, Iterator

from repro.errors import GraphError
from repro.graph.wgraph import WeightedGraph, node_sort_key, sum_in_order

try:  # pragma: no cover - exercised via both CI paths
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

HAVE_NUMPY = np is not None

Node = Hashable


def resolve_use_csr(use_csr: bool | None) -> bool:
    """Resolve the three-state ``use_csr`` config flag.

    ``None`` (the default) auto-detects: CSR when numpy is importable,
    pure python otherwise.  ``True`` demands numpy and raises
    :class:`GraphError` when it is missing; ``False`` always selects the
    pure-python reference path.
    """
    if use_csr is None:
        return HAVE_NUMPY
    if use_csr and not HAVE_NUMPY:
        raise GraphError("use_csr=True requires numpy, which is not installed")
    return bool(use_csr)


def new_graph(
    sorted_labels: Iterable[Node], use_csr: bool | None = None
) -> "WeightedGraph | CsrGraph":
    """Dimension-builder graph factory: dict or CSR backend.

    *sorted_labels* must already be in canonical order (every builder
    sorts its namespace first); the choice of backend never changes any
    output, only the representation the hot paths run on.
    """
    if resolve_use_csr(use_csr):
        return CsrGraph.from_sorted_labels(sorted_labels)
    return WeightedGraph.from_sorted_labels(sorted_labels)


class CsrView:
    """The frozen CSR arrays of a pure-base canonical graph.

    Handed to Louvain's compiled kernel by :meth:`CsrGraph.csr_view`; all
    fields are live internals and must not be mutated.
    """

    __slots__ = ("labels", "indptr", "indices", "weights")

    def __init__(self, labels, indptr, indices, weights) -> None:
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        self.weights = weights


class CsrGraph:
    """Array-backed weighted undirected graph (see module docstring).

    The semantic contract is :class:`WeightedGraph`'s: same node/edge
    API, structural ``__eq__`` across both backends, and every float
    visible to callers is a python ``float`` produced by the same
    accumulation sequence the dict backend runs.
    """

    __slots__ = (
        "_labels",
        "_index",
        "_canonical",
        "_last_key",
        "_total_weight",
        "_has_nonpositive",
        "_num_loops",
        "_finalized",
        "_n0",
        "_pend_u",
        "_pend_v",
        "_pend_w",
        "_indptr",
        "_indices",
        "_weights",
        "_indptr_list",
        "_indices_list",
        "_weights_list",
        "_extra_adj",
        "_extra_pairs",
        "build_stats",
        "pair_kernel",
    )

    def __init__(self) -> None:
        if not HAVE_NUMPY:
            raise GraphError("CsrGraph requires numpy, which is not installed")
        self._labels: list[Node] = []
        self._index: dict[Node, int] = {}
        self._canonical: bool = True
        self._last_key: str | None = None
        self._total_weight: float = 0.0
        self._has_nonpositive: bool = False
        self._num_loops: int = 0
        self._finalized: bool = False
        self._n0: int = 0
        # Pending half-edge batches (ascending iu < iv), frozen into the
        # CSR arrays on first query.
        self._pend_u: list = []
        self._pend_v: list = []
        self._pend_w: list = []
        self._indptr = None
        self._indices = None
        self._weights = None
        # Python-int/float mirrors of the arrays, built lazily for the
        # per-row scalar paths (density_of, merged rows).
        self._indptr_list: list[int] | None = None
        self._indices_list: list[int] | None = None
        self._weights_list: list[float] | None = None
        # Post-freeze mutation overlay: id -> {neighbor id: weight delta}
        # per direction, plus the set of overlay pairs (iu <= iv).
        self._extra_adj: dict[int, dict[int, float]] = {}
        self._extra_pairs: set[tuple[int, int]] = set()
        self.build_stats: dict[str, object] = {}
        #: True when the builder's pair counts came from the compiled
        #: kernel (``repro.core.interning.sorted_pair_counts``); traced as
        #: a span attribute, kept out of ``build_stats``, which the
        #: reference path must reproduce exactly.
        self.pair_kernel: bool = False

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_sorted_labels(cls, labels: Iterable[Node]) -> "CsrGraph":
        """Graph with nodes pre-inserted from an already-sorted iterable."""
        graph = cls()
        for label in labels:
            graph.add_node(label)
        return graph

    @classmethod
    def _from_arrays(
        cls, labels: list[Node], indptr, indices, weights, total_weight: float
    ) -> "CsrGraph":
        """Internal: wrap already-built CSR arrays (subgraph fast path)."""
        graph = cls()
        graph._labels = labels
        graph._index = {label: i for i, label in enumerate(labels)}
        graph._last_key = node_sort_key(labels[-1]) if labels else None
        graph._total_weight = total_weight
        graph._finalized = True
        graph._n0 = len(labels)
        graph._indptr = indptr
        graph._indices = indices
        graph._weights = weights
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

    def add_sorted_edges(self, edges: Iterable[tuple[int, int, float]]) -> None:
        """Bulk edge load (same contract as ``WeightedGraph.add_sorted_edges``).

        Pairs are distinct with ``iu < iv``, ascending in ``(iu, iv)``.
        Accepts any iterable of triples; :meth:`add_sorted_edge_arrays`
        is the zero-copy variant for array-producing builders.
        """
        if self._finalized:
            # Rare path (tests): the arrays are frozen, route through the
            # overlay one edge at a time.
            for iu, iv, weight in edges:
                self.add_edge_ids(iu, iv, weight)
            return
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        for iu, iv, weight in edges:
            us.append(iu)
            vs.append(iv)
            ws.append(weight)
        self._pend_u.append(us)
        self._pend_v.append(vs)
        self._pend_w.append(ws)
        self._accumulate_total(ws)

    def add_sorted_edge_arrays(self, us, vs, ws) -> None:
        """Array-input twin of :meth:`add_sorted_edges` (numpy int64/float64)."""
        if self._finalized:
            self.add_sorted_edges(zip(us.tolist(), vs.tolist(), ws.tolist()))
            return
        self._pend_u.append(us)
        self._pend_v.append(vs)
        self._pend_w.append(ws)
        self._accumulate_total(ws.tolist())

    def _accumulate_total(self, ws: list[float]) -> None:
        # Sequential accumulation, exactly the dict backend's
        # ``total += weight`` loop.
        self._total_weight = sum_in_order(ws, self._total_weight)
        for weight in ws:
            if weight <= 0.0:
                self._has_nonpositive = True
                break

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        n0 = len(self._labels)
        self._n0 = n0
        if self._pend_u:
            us = np.concatenate(
                [np.asarray(part, dtype=np.int64) for part in self._pend_u]
            )
            vs = np.concatenate(
                [np.asarray(part, dtype=np.int64) for part in self._pend_v]
            )
            ws = np.concatenate(
                [np.asarray(part, dtype=np.float64) for part in self._pend_w]
            )
        else:
            us = np.zeros(0, dtype=np.int64)
            vs = np.zeros(0, dtype=np.int64)
            ws = np.zeros(0, dtype=np.float64)
        self._pend_u = self._pend_v = self._pend_w = []
        # Symmetrise: each half-edge (u, v) appears as entries (u, v) and
        # (v, u); row-major/ascending-column order reproduces the dict
        # backend's insertion order for ascending (iu, iv) input.
        rows = np.concatenate([us, vs])
        cols = np.concatenate([vs, us])
        both = np.concatenate([ws, ws])
        order = np.lexsort((cols, rows))
        self._indices = cols[order]
        self._weights = both[order]
        indptr = np.zeros(n0 + 1, dtype=np.int64)
        if len(rows):
            np.cumsum(np.bincount(rows, minlength=n0), out=indptr[1:])
        self._indptr = indptr

    def _lists(self) -> tuple[list[int], list[int], list[float]]:
        """Python mirrors of the arrays for per-row scalar iteration."""
        self._finalize()
        if self._indptr_list is None:
            self._indptr_list = self._indptr.tolist()
            self._indices_list = self._indices.tolist()
            self._weights_list = self._weights.tolist()
        return self._indptr_list, self._indices_list, self._weights_list

    @property
    def _mutated(self) -> bool:
        return bool(self._extra_adj) or (
            self._finalized and len(self._labels) != self._n0
        )

    # -- mutation overlay ----------------------------------------------------------

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or reinforce) edge ``{u, v}`` post-construction."""
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
        if weight < 0:
            raise GraphError(f"edge weight must be non-negative, got {weight}")
        self._finalize()
        pair = (iu, iv) if iu <= iv else (iv, iu)
        row_u = self._extra_adj.setdefault(iu, {})
        if iu == iv:
            if pair not in self._extra_pairs:
                self._num_loops += 1
            delta = row_u.get(iu, 0.0) + weight
            row_u[iu] = delta
            stored = delta  # the base never holds self-loops
        else:
            row_v = self._extra_adj.setdefault(iv, {})
            delta = row_u.get(iv, 0.0) + weight
            row_u[iv] = delta
            row_v[iu] = delta
            stored = self._base_weight(iu, iv) + delta
        self._extra_pairs.add(pair)
        if stored <= 0.0:
            self._has_nonpositive = True
        self._total_weight += weight

    def remove_node(self, node: Node) -> None:
        raise GraphError(
            "CsrGraph is frozen after construction and does not support "
            "remove_node; use the pure-python WeightedGraph"
        )

    def _base_slice(self, index: int) -> tuple[int, int]:
        self._finalize()
        if 0 <= index < self._n0:
            ip = self._indptr_list
            if ip is None:
                ip, _, _ = self._lists()
            return ip[index], ip[index + 1]
        return 0, 0

    def _base_weight(self, iu: int, iv: int) -> float:
        start, end = self._base_slice(iu)
        if start == end:
            return 0.0
        _, cols, wts = self._lists()
        pos = bisect_left(cols, iv, start, end)
        if pos < end and cols[pos] == iv:
            return wts[pos]
        return 0.0

    def _base_has(self, iu: int, iv: int) -> bool:
        start, end = self._base_slice(iu)
        if start == end:
            return False
        _, cols, _ = self._lists()
        pos = bisect_left(cols, iv, start, end)
        return pos < end and cols[pos] == iv

    def _merged_row(self, index: int) -> dict[int, float]:
        """Row ``index`` as the dict backend would hold it.

        Base entries in ascending-column order, overlay-only neighbors
        appended in overlay insertion order, deltas on base entries
        folded in place — exactly the dict backend's insertion-order
        semantics for a canonically built then mutated graph.
        """
        start, end = self._base_slice(index)
        if start == end:
            row: dict[int, float] = {}
        else:
            _, cols, wts = self._lists()
            row = dict(zip(cols[start:end], wts[start:end]))
        extra = self._extra_adj.get(index)
        if extra:
            for j, delta in extra.items():
                base = row.get(j)
                row[j] = delta if base is None else base + delta
        return row

    # -- id-level queries ----------------------------------------------------------

    def id_of(self, node: Node) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"node not in graph: {node!r}") from None

    def label_of(self, index: int) -> Node:
        return self._labels[index]

    def louvain_view(self):
        """Dict-row entry view, same contract as ``WeightedGraph.louvain_view``.

        Rows are materialised with ``dict(zip(...))`` over the list
        mirrors — C-speed, ascending-column by construction, so the
        pure-Python reference consumes them exactly as it consumes the
        dict backend's rows.  Louvain reads :meth:`csr_view` instead
        whenever the compiled kernel is available.
        """
        if self.csr_view() is None:
            return None
        ip, cols, wts = self._lists()
        adjacency = [
            dict(zip(cols[ip[i] : ip[i + 1]], wts[ip[i] : ip[i + 1]]))
            for i in range(self._n0)
        ]
        return self._labels, adjacency

    def csr_view(self) -> CsrView | None:
        """The frozen arrays, when Louvain's compiled kernel may run on them.

        Same contract as ``WeightedGraph.louvain_view``: non-``None``
        iff the graph is canonical, loop-free, all-positive — and, for
        this backend, unmutated since construction.  The kernel reads
        ``indptr``/``indices`` as int64 and ``weights`` as float64, in
        place, as its entry level; a ``None`` here sends the graph to
        the pure-Python reference.
        """
        self._finalize()
        if (
            self._canonical
            and not self._mutated
            and self._num_loops == 0
            and not self._has_nonpositive
        ):
            return CsrView(self._labels, self._indptr, self._indices, self._weights)
        return None

    # -- queries -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (CsrGraph, WeightedGraph)):
            return NotImplemented
        return self._label_adjacency() == other._label_adjacency()

    __hash__ = None  # mutable container; unhashable like list/dict

    def _label_adjacency(self) -> dict[Node, dict[Node, float]]:
        labels = self._labels
        return {
            labels[i]: {labels[j]: w for j, w in self._merged_row(i).items()}
            for i in range(len(labels))
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
        """Yield each undirected edge once (same order as the dict backend)."""
        labels = self._labels
        for i in range(len(labels)):
            label = labels[i]
            for j, weight in self._merged_row(i).items():
                if j >= i:
                    yield label, labels[j], weight

    def num_edges(self) -> int:
        self._finalize()
        base = len(self._indices) // 2
        extra = sum(
            1
            for iu, iv in self._extra_pairs
            if iu == iv or not self._base_has(iu, iv)
        )
        return base + extra

    def neighbors(self, node: Node) -> dict[Node, float]:
        index = self._index.get(node)
        if index is None:
            raise GraphError(f"node not in graph: {node!r}")
        labels = self._labels
        return {labels[j]: w for j, w in self._merged_row(index).items()}

    def has_edge(self, u: Node, v: Node) -> bool:
        iu = self._index.get(u)
        if iu is None:
            return False
        iv = self._index.get(v)
        if iv is None:
            return False
        extra = self._extra_adj.get(iu)
        if extra is not None and iv in extra:
            return True
        return self._base_has(iu, iv)

    def edge_weight(self, u: Node, v: Node) -> float:
        iu = self._index.get(u)
        if iu is None:
            return 0.0
        iv = self._index.get(v)
        if iv is None:
            return 0.0
        weight = self._base_weight(iu, iv)
        extra = self._extra_adj.get(iu)
        if extra is not None:
            weight += extra.get(iv, 0.0)
        return weight

    def degree(self, node: Node) -> float:
        index = self._index.get(node)
        if index is None:
            raise GraphError(f"node not in graph: {node!r}")
        row = self._merged_row(index)
        return sum_in_order(row.values()) + row.get(index, 0.0)

    @property
    def total_weight(self) -> float:
        return self._total_weight

    # -- derived graphs ------------------------------------------------------------

    def subgraph(self, nodes: Iterable[Node]) -> "CsrGraph | WeightedGraph":
        """Induced subgraph on *nodes* (missing nodes are ignored)."""
        self._finalize()
        index = self._index
        keep = {index[node] for node in nodes if node in index}
        if self._canonical:
            ordered = sorted(keep)
        else:
            labels = self._labels
            ordered = sorted(keep, key=lambda i: node_sort_key(labels[i]))
        if self._mutated or not self._canonical:
            return self._subgraph_generic(ordered)
        return self._subgraph_arrays(ordered)

    def _subgraph_arrays(self, ordered: list[int]) -> "CsrGraph":
        labels = [self._labels[i] for i in ordered]
        k = len(ordered)
        indptr = self._indptr
        ids = np.asarray(ordered, dtype=np.int64)
        counts = indptr[ids + 1] - indptr[ids] if k else np.zeros(0, dtype=np.int64)
        total = int(counts.sum()) if k else 0
        if not total:
            return CsrGraph._from_arrays(
                labels,
                np.zeros(k + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
                0.0,
            )
        # Gather every member row's entry positions in row-major order.
        starts = indptr[ids]
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = np.repeat(starts - offsets, counts) + np.arange(total)
        cols_sel = self._indices[pos]
        w_sel = self._weights[pos]
        rows_local = np.repeat(np.arange(k, dtype=np.int64), counts)
        remap = np.full(self._n0, -1, dtype=np.int64)
        remap[ids] = np.arange(k, dtype=np.int64)
        cols_local = remap[cols_sel]
        mask = cols_local >= 0
        rows_f = rows_local[mask]
        cols_f = cols_local[mask]
        w_f = w_sel[mask]
        sub_indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows_f, minlength=k), out=sub_indptr[1:])
        # Total weight: the dict backend adds each edge at its first
        # encounter — upper-triangle entries in row-major order.
        total_weight = sum_in_order(w_f[cols_f > rows_f].tolist())
        return CsrGraph._from_arrays(labels, sub_indptr, cols_f, w_f, total_weight)

    def _subgraph_generic(self, ordered: list[int]) -> WeightedGraph:
        # Mutated/non-canonical source: replicate WeightedGraph.subgraph
        # over the merged rows (identical insertion and accumulation
        # order); the result is a dict-backend graph, which every
        # consumer accepts interchangeably.
        sub = WeightedGraph()
        for i in ordered:
            sub.add_node(self._labels[i])
        local = {i: k for k, i in enumerate(ordered)}
        sub_adj = sub._adj
        for i in ordered:
            li = local[i]
            row_li = sub_adj[li]
            for j, weight in self._merged_row(i).items():
                lj = local.get(j)
                if lj is None:
                    continue
                if i == j or lj not in row_li:
                    sub.add_edge_ids(li, lj, weight)
        return sub

    def density(self) -> float:
        n = len(self._labels)
        if n < 2:
            return 0.0
        edges = self.num_edges() - self._num_loops
        return 2.0 * edges / (n * (n - 1))

    def density_of(self, nodes: Iterable[Node]) -> float:
        """Density of the induced subgraph (same integer count as the
        dict backend, without materialising anything).

        The edge count is an integer — no float accumulation — so the
        base count runs as one gather + searchsorted over the member
        rows' entries with nothing to prove about ordering.
        """
        index = self._index
        members = {index[node] for node in nodes if node in index}
        n = len(members)
        if n < 2:
            return 0.0
        self._finalize()
        ids = np.fromiter(members, dtype=np.int64, count=n)
        ids.sort()
        base_ids = ids[ids < self._n0] if len(self._labels) != self._n0 else ids
        edges = 0
        if len(base_ids) and len(self._indices):
            starts = self._indptr[base_ids]
            counts = self._indptr[base_ids + 1] - starts
            total = int(counts.sum())
            if total:
                offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
                pos = np.repeat(starts - offsets, counts) + np.arange(total)
                cols_sel = self._indices[pos]
                loc = np.minimum(np.searchsorted(ids, cols_sel), n - 1)
                # Every internal adjacency shows up in both endpoint rows.
                edges = int((ids[loc] == cols_sel).sum()) // 2
        if self._extra_pairs:
            for iu, iv in self._extra_pairs:
                if (
                    iu != iv
                    and iu in members
                    and iv in members
                    and not self._base_has(iu, iv)
                ):
                    edges += 1
        return 2.0 * edges / (n * (n - 1))

    # -- modularity ----------------------------------------------------------------

    def _modularity(self, partition) -> float:
        """Newman modularity Q (the ``repro.graph.modularity`` dispatch).

        Vectorised over the frozen arrays when the graph is unmutated;
        the merged-row scalar walk (the dict backend's exact loop)
        otherwise.  Both accumulate Q in first-occurrence community
        order with python floats.
        """
        m2 = 2.0 * self._total_weight
        if m2 == 0.0:
            return 0.0
        self._finalize()
        labels = self._labels
        if self._mutated:
            return self._modularity_generic(partition, m2)
        try:
            communities = [partition[node] for node in labels]
        except KeyError as exc:
            raise GraphError(f"partition is missing node {exc.args[0]!r}") from None
        comm = np.asarray(communities, dtype=np.int64)
        if len(comm) and (comm.min() < 0 or comm.max() > 4 * len(comm) + 16):
            # Sparse or negative community labels: bincount would blow
            # up; the scalar walk handles any labelling.
            return self._modularity_generic(partition, m2)
        n_bins = int(comm.max()) + 1 if len(comm) else 0
        indptr = self._indptr
        rows = np.repeat(
            np.arange(self._n0, dtype=np.int64), np.diff(indptr)
        )
        row_sums = np.bincount(rows, weights=self._weights, minlength=self._n0)
        degree_sum = np.bincount(comm, weights=row_sums, minlength=n_bins)
        comm_rows = comm[rows]
        internal_mask = comm_rows == comm[self._indices]
        internal = np.bincount(
            comm_rows[internal_mask],
            weights=self._weights[internal_mask],
            minlength=n_bins,
        )
        # Q accumulates per community in first-occurrence (node id) order,
        # with python floats — the dict-iteration order of the reference.
        uniq, first_idx = np.unique(comm, return_index=True)
        order = np.argsort(first_idx)
        uniq_l = uniq.tolist()
        internal_l = internal.tolist()
        degree_l = degree_sum.tolist()
        q = 0.0
        for pos in order.tolist():
            community = uniq_l[pos]
            q += internal_l[community] / m2 - (degree_l[community] / m2) ** 2
        return q

    def _modularity_generic(self, partition, m2: float) -> float:
        labels = self._labels
        communities: list[int] = []
        for node in labels:
            if node not in partition:
                raise GraphError(f"partition is missing node {node!r}")
            communities.append(partition[node])
        internal: dict[int, float] = {}
        degree_sum: dict[int, float] = {}
        for index in range(len(labels)):
            community = communities[index]
            row = self._merged_row(index)
            contribution = sum_in_order(row.values()) + row.get(index, 0.0)
            degree_sum[community] = degree_sum.get(community, 0.0) + contribution
            for neighbor, weight in row.items():
                if communities[neighbor] == community:
                    add = 2.0 * weight if neighbor == index else weight
                    internal[community] = internal.get(community, 0.0) + add
        q = 0.0
        for community, deg in degree_sum.items():
            q += internal.get(community, 0.0) / m2 - (deg / m2) ** 2
        return q
