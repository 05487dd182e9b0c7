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
* the same kernel builds the arrays from the builders' ascending pairs
  in one counting pass, gathers the induced subgraph of a member set
  for ``subgraph`` and ``density_of``, and sums modularity's terms per
  community.  Without the library, ``_finalize`` lexsorts and the
  queries take the scalar paths kept for mutated graphs.

Byte-identity with the dict backend is an invariant, not an accident:
the kernel adds every weight sequentially in the dict backend's order
(row sums left to right, community sums in node order, a subgraph's
total weight over its upper-triangle entries in row-major order), and
the last step of modularity, ``q += internal/m2 - (degree/m2) ** 2``,
runs in Python over communities in first-occurrence order.  Python-side
sums go through :func:`~repro.graph.wgraph.sum_in_order`, never
``sum()``, which compensates since Python 3.12.

Construction mirrors the builders' contract (sorted labels, then one
bulk load of ascending ``iu < iv`` edges); the arrays are frozen after
that.  Post-construction mutation — the pipeline appends single-client
herd edges to the built main graph — goes to a small dict overlay with
the dict backend's exact insertion-order semantics, and disables the
array views (queries stay correct via the merged rows).

numpy is optional: when it is unavailable this module still imports and
``HAVE_NUMPY`` is False; callers fall back to the pure-python
``WeightedGraph`` (see :func:`resolve_use_csr` / :func:`new_graph`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Hashable, Iterable, Iterator
from ctypes import addressof, c_char

from repro.errors import GraphError
from repro.graph.wgraph import WeightedGraph, node_sort_key, sorted_namespace, sum_in_order

try:  # pragma: no cover - exercised via both CI paths
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

HAVE_NUMPY = np is not None

#: ``csr_from_pairs``' refusal of pairs that are not strictly ascending.
_NOT_ASCENDING = -3

Node = Hashable


def _library():
    """The compiled kernels, or ``None`` (deferred: nothing loads at import)."""
    from repro.graph import _kernel

    return _kernel.load()


def _address(values) -> int:
    """Address of a numpy array's first element, for a kernel argument.

    ``ndarray.ctypes.data`` costs about four times as much per call.
    """
    try:
        return addressof(c_char.from_buffer(values))
    except (TypeError, ValueError):  # empty or read-only
        return values.ctypes.data


def _arrays_from_pairs(kernel, n: int, us, vs, ws):
    """``(indptr, indices, weights)`` from the pairs ``(us[t], vs[t])``, in
    the kernel's one counting pass.  Returns ``None`` when the pairs do
    not ascend strictly (the caller lexsorts them, as it does without
    the library); raises :class:`GraphError` when one is not
    ``0 <= iu < iv < n``."""
    m = len(us)
    if len(vs) != m or len(ws) != m:
        raise GraphError(f"edge columns disagree: {m}, {len(vs)} and {len(ws)} entries")
    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(2 * m, dtype=np.int64)
    weights = np.empty(2 * m, dtype=np.float64)
    code = kernel.csr_from_pairs(
        n,
        m,
        _address(us),
        _address(vs),
        _address(ws),
        2 * m,
        _address(indptr),
        _address(indices),
        _address(weights),
    )
    if code == _NOT_ASCENDING:
        return None
    if code < 0:
        raise GraphError(f"edge pairs refused (code {code}): each must satisfy 0 <= iu < iv < n")
    return indptr, indices, weights


def induced_entries(kernel, n: int, arrays_at, n_entries: int, ids: array, *outputs) -> int:
    """The kernel's induced-subgraph gather (``csr_induced``).

    *arrays_at* are the addresses of a CSR graph's ``indptr``, ``indices``
    and ``weights`` (*n* rows, *n_entries* entries) and *ids* ascending
    node ids.  Returns the subgraph's entry count; with *outputs*
    (``cap`` and the addresses of ``indptr``, ``indices``, ``weights`` and
    ``total``) the subgraph is written there too.
    """
    count = kernel.csr_induced(
        n, *arrays_at, n_entries, len(ids), ids.buffer_info()[0], *(outputs or (0,) + (None,) * 4)
    )
    if count < 0:
        raise GraphError(f"induced subgraph refused (code {count})")
    return count


def modularity_from_sums(internal: list[float], degree: list[float], m2: float) -> float:
    """Q from per-community sums listed in first-occurrence order.

    The last loop of ``repro.graph.modularity``, kept in Python: CPython's
    ``** 2`` calls libm ``pow``, which a C compiler may turn into ``x*x``.
    """
    q = 0.0
    for inside, total in zip(internal, degree):
        q += inside / m2 - (total / m2) ** 2
    return q


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
        """Graph with nodes pre-inserted from an already-sorted iterable.

        Exactly what one ``add_node`` per label leaves, built in bulk.
        """
        graph = cls()
        graph._labels, graph._index, graph._canonical, graph._last_key = sorted_namespace(labels)
        return graph

    @classmethod
    def _from_arrays(
        cls, labels: list[Node], indptr, indices, weights, total_weight: float
    ) -> "CsrGraph":
        """Internal: wrap already-built CSR arrays (subgraph fast path)."""
        graph = cls()
        graph._labels = labels
        graph._index = dict(zip(labels, range(len(labels))))
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
        n0 = len(self._labels)
        us, vs, ws = (
            self._pending(parts, dtype)
            for parts, dtype in (
                (self._pend_u, np.int64),
                (self._pend_v, np.int64),
                (self._pend_w, np.float64),
            )
        )
        kernel = _library()
        arrays = None if kernel is None else _arrays_from_pairs(kernel, n0, us, vs, ws)
        if arrays is None:
            # Symmetrise: each half-edge (u, v) appears as entries (u, v)
            # and (v, u); row-major/ascending-column order reproduces the
            # dict backend's insertion order for ascending (iu, iv) input.
            rows = np.concatenate([us, vs])
            cols = np.concatenate([vs, us])
            order = np.lexsort((cols, rows))
            indptr = np.zeros(n0 + 1, dtype=np.int64)
            if len(rows):
                np.cumsum(np.bincount(rows, minlength=n0), out=indptr[1:])
            arrays = indptr, cols[order], np.concatenate([ws, ws])[order]
        # Arrays first, the flag next, the pending columns last: a reader
        # that sees the flag sees the arrays.
        self._indptr, self._indices, self._weights = arrays
        self._n0 = n0
        self._finalized = True
        self._pend_u = self._pend_v = self._pend_w = []

    @staticmethod
    def _pending(parts: list, dtype):
        """One contiguous array of a pending column (no copy for one part)."""
        if len(parts) == 1:
            return np.ascontiguousarray(parts[0], dtype=dtype)
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate([np.asarray(part, dtype=dtype) for part in parts])

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
        kernel = None if self._mutated or not self._canonical else _library()
        if kernel is None:
            return self._subgraph_generic(ordered)
        ids = array("q", ordered)
        k = len(ordered)
        count = self._induced(kernel, ids)
        indptr = np.empty(k + 1, dtype=np.int64)
        indices = np.empty(count, dtype=np.int64)
        weights = np.empty(count, dtype=np.float64)
        total = np.empty(1, dtype=np.float64)
        self._induced(kernel, ids, indptr, indices, weights, total)
        labels = [self._labels[i] for i in ordered]
        return CsrGraph._from_arrays(labels, indptr, indices, weights, float(total[0]))

    def _induced(self, kernel, ids: array, *outputs) -> int:
        """:func:`induced_entries` over the base arrays; *outputs* are
        ``indptr, indices, weights, total`` arrays sized for the subgraph."""
        arrays_at = (_address(self._indptr), _address(self._indices), _address(self._weights))
        if outputs:
            outputs = (len(outputs[1]), *map(_address, outputs))
        return induced_entries(kernel, self._n0, arrays_at, len(self._indices), ids, *outputs)

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

        Base edges are counted from the members' rows (by the kernel's
        gather when the library loads), overlay edges from the members'
        overlay rows, each pair once at its smaller id.
        """
        index = self._index
        members = {index[node] for node in nodes if node in index}
        n = len(members)
        if n < 2:
            return 0.0
        self._finalize()
        n0 = self._n0
        base = sorted(members) if len(self._labels) == n0 else sorted(i for i in members if i < n0)
        kernel = _library()
        if kernel is not None:
            # Each internal adjacency shows up in both endpoint rows.
            edges = self._induced(kernel, array("q", base)) // 2
        else:
            ip, cols, _ = self._lists()
            edges = sum(len(members.intersection(cols[ip[i] : ip[i + 1]])) for i in base) // 2
        extra_adj = self._extra_adj
        if extra_adj:
            for i in members:
                row = extra_adj.get(i)
                if row:
                    for j in row:
                        if j > i and j in members and not self._base_has(i, j):
                            edges += 1
        return 2.0 * edges / (n * (n - 1))

    # -- modularity ----------------------------------------------------------------

    def _modularity(self, partition) -> float:
        """Newman modularity Q (the ``repro.graph.modularity`` dispatch).

        The kernel sums each community's internal and degree weights over
        the frozen arrays when the graph is unmutated and the library
        loads; the merged-row scalar walk (the dict backend's exact loop)
        runs otherwise.  Both accumulate Q in first-occurrence community
        order with python floats.
        """
        m2 = 2.0 * self._total_weight
        if m2 == 0.0:
            return 0.0
        self._finalize()
        labels = self._labels
        kernel = None if self._mutated else _library()
        if kernel is None:
            return self._modularity_generic(partition, m2)
        try:
            communities = [partition[node] for node in labels]
        except KeyError as exc:
            raise GraphError(f"partition is missing node {exc.args[0]!r}") from None
        try:
            community = array("q", communities)
        except (TypeError, OverflowError):
            return self._modularity_generic(partition, m2)
        n = len(community)
        if n and (min(community) < 0 or max(community) > 4 * n + 16):
            # Sparse or negative community labels: the scalar walk
            # handles any labelling.
            return self._modularity_generic(partition, m2)
        n_labels = max(community) + 1 if n else 0
        rank = np.empty(n_labels, dtype=np.int64)
        internal = np.empty(n, dtype=np.float64)
        degree = np.empty(n, dtype=np.float64)
        count = kernel.csr_community_sums(
            n,
            _address(self._indptr),
            _address(self._indices),
            _address(self._weights),
            len(self._indices),
            community.buffer_info()[0],
            n_labels,
            _address(rank),
            n,
            _address(internal),
            _address(degree),
        )
        if count < 0:
            raise GraphError(f"community sums refused (code {count})")
        return modularity_from_sums(internal[:count].tolist(), degree[:count].tolist(), m2)

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
