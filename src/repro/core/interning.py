"""Dense integer interning of the server namespace.

The mining core used to push string server labels through every layer:
candidate generation hashed and sorted label tuples, graphs were keyed by
labels, and Louvain re-indexed the whole namespace on every call.  This
module is the substrate of the interned rewrite:

* :class:`Interner` assigns each label a dense integer id **in canonical
  ``node_sort_key`` order**, so ascending-id iteration is exactly the
  canonical label iteration the deterministic core already used — outputs
  stay byte-identical while every hot set operation moves from strings to
  small ints;
* :func:`sorted_pair_counts` turns the per-sharing-group
  ``itertools.combinations`` pattern into the co-occurrence counts of
  every server pair, already in the ascending pair order the graph
  builders load edges in.  For CSR-backed graphs they come from
  ``_pairs_kernel.c``, Gustavson's row-by-row sparse product with a
  dense accumulator; :func:`accumulate_pair_counts`, which accumulates a
  flat ``packed-pair -> count`` map with ``Counter.update``, is the
  reference, and the pure-python path and the no-compiler fallback.

Heavy-hitter groups (a popular shared IP, a common URI filename) still
cost O(group**2) co-occurrences; the ``cap`` argument — wired to
``DimensionConfig.max_group_size`` and **off by default** — skips groups
above a fixed size deterministically, trading bounded recall for bounded
cost exactly like the existing ubiquity/posting-list rules.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from collections.abc import (
    Callable,
    Collection,
    Container,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)
from dataclasses import dataclass

from repro.errors import PipelineError
from repro.graph.wgraph import node_sort_key

Label = Hashable


class Interner:
    """Bidirectional label <-> dense-int mapping in canonical order.

    The constructor namespace is sorted with
    :func:`~repro.graph.wgraph.node_sort_key` (the order every
    deterministic iteration in the mining core already uses), so for ids
    ``i < j`` the labels satisfy ``node_sort_key(label_of(i)) <
    node_sort_key(label_of(j))`` — ``sorted(ids)`` decodes to the same
    sequence as the label-path's ``canonical_nodes``.  Labels interned
    *after* construction (e.g. a pruning landing server outside the
    mined namespace) are appended in first-seen order and sort after the
    base namespace; they decode correctly but carry no order guarantee.
    """

    __slots__ = ("_labels", "_ids", "_base")

    def __init__(self, labels: Iterable[Label] = ()) -> None:
        self._labels: list[Label] = sorted(set(labels), key=node_sort_key)
        self._ids: dict[Label, int] = {label: i for i, label in enumerate(self._labels)}
        self._base = len(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Label) -> bool:
        return label in self._ids

    @property
    def labels(self) -> tuple[Label, ...]:
        """All known labels, id order (canonical base, then appended)."""
        return tuple(self._labels)

    @property
    def base_size(self) -> int:
        """Size of the canonical constructor namespace (appended ids excluded)."""
        return self._base

    def id_of(self, label: Label) -> int:
        """Id of a known label; raises ``KeyError`` for unknown labels."""
        return self._ids[label]

    def label_of(self, index: int) -> Label:
        return self._labels[index]

    def intern(self, label: Label) -> int:
        """Id of *label*, appending a fresh id if it is unknown."""
        index = self._ids.get(label)
        if index is None:
            index = len(self._labels)
            self._ids[label] = index
            self._labels.append(label)
        return index

    # -- bulk helpers ---------------------------------------------------------------

    def encode(self, labels: Iterable[Label]) -> list[int]:
        ids = self._ids
        return [ids[label] for label in labels]

    def encode_set(self, labels: Iterable[Label]) -> frozenset[int]:
        ids = self._ids
        return frozenset(ids[label] for label in labels)

    def decode_set(self, ids: Iterable[int]) -> frozenset[Label]:
        labels = self._labels
        return frozenset(labels[index] for index in ids)

    def decode_sorted(self, ids: Iterable[int]) -> list[Label]:
        """Decode *ids* in ascending-id (canonical) order."""
        labels = self._labels
        return [labels[index] for index in sorted(ids)]


#: Bits of the content-derived stable id.  63 keeps ids positive in a
#: signed 64-bit word; at 10**6 servers the birthday-bound collision
#: probability is ~5e-8, and a collision is *detected* (never silent).
_STABLE_ID_BITS = 63


def stable_label_id(label: str) -> int:
    """Content-derived 63-bit id of a server label.

    A pure function of the label bytes (blake2b), so every shard worker
    assigns the same id to the same server without any coordination or
    global pass — the namespace-stable property sharded mining needs.
    Independent of ``PYTHONHASHSEED`` by construction.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> (64 - _STABLE_ID_BITS)


def stable_shard_of(label: str, shards: int) -> int:
    """Hash-partition of the server namespace: which of *shards* owns *label*."""
    return stable_label_id(label) % shards


class StableInterner:
    """Label <-> id mapping whose ids are stable across processes.

    Unlike :class:`Interner`, whose dense ids depend on the full sorted
    namespace (a global pass), a ``StableInterner`` id is a pure content
    hash of the label (:func:`stable_label_id`): shard workers interning
    disjoint or overlapping slices of the namespace independently agree
    on every id, so their inverted-index partials merge by plain key
    union.  The ids are sparse and carry **no order guarantee** — before
    pair accumulation the merged namespace is re-keyed once into a dense
    canonical :class:`Interner` (a namespace-sized pass, not a trace
    pass).

    Hash collisions (two labels, one id) are detected on ``intern`` and
    on ``merge`` and raise :class:`~repro.errors.PipelineError` — the
    probability is negligible (~5e-8 at a million servers) but the
    failure mode must be loud, not a silently corrupted index.
    """

    __slots__ = ("_label_of",)

    def __init__(self, labels: Iterable[str] = ()) -> None:
        self._label_of: dict[int, str] = {}
        for label in labels:
            self.intern(label)

    def __len__(self) -> int:
        return len(self._label_of)

    def __contains__(self, label: str) -> bool:
        return self._label_of.get(stable_label_id(label)) == label

    def intern(self, label: str) -> int:
        """The stable id of *label*, registering it in the vocabulary."""
        stable = stable_label_id(label)
        known = self._label_of.get(stable)
        if known is None:
            self._label_of[stable] = label
        elif known != label:
            raise PipelineError(
                f"stable-id collision: {known!r} and {label!r} both hash to "
                f"{stable}; the sharded namespace cannot be merged"
            )
        return stable

    def label_of(self, stable: int) -> str:
        return self._label_of[stable]

    def merge(self, vocabulary: Mapping[int, str]) -> None:
        """Union another shard's ``{stable id: label}`` vocabulary in.

        Raises :class:`~repro.errors.PipelineError` on any id mapped to
        two different labels (a cross-shard hash collision).
        """
        label_of = self._label_of
        for stable, label in vocabulary.items():
            known = label_of.get(stable)
            if known is None:
                label_of[stable] = label
            elif known != label:
                raise PipelineError(
                    f"stable-id collision while merging shard vocabularies: "
                    f"{known!r} and {label!r} both map to id {stable}"
                )

    def to_dict(self) -> dict[int, str]:
        """The ``{stable id: label}`` vocabulary (shard-partial payload)."""
        return dict(self._label_of)

    def to_interner(self) -> "Interner":
        """Re-key the vocabulary into a dense canonical :class:`Interner`."""
        return Interner(self._label_of.values())


@dataclass
class PairStats:
    """Accounting of one :func:`accumulate_pair_counts` or
    :func:`sorted_pair_counts` run (the same on both of its paths).

    ``enumerated_pairs`` counts pair co-occurrences actually walked (the
    quadratic cost the cap bounds); ``candidate_pairs`` the distinct
    pairs that came out.  The benchmark reads these off the built graphs
    (``WeightedGraph.build_stats``) to show pair counts are measured,
    not asserted.
    """

    groups: int = 0
    skipped_groups: int = 0
    largest_group: int = 0
    enumerated_pairs: int = 0
    candidate_pairs: int = 0
    #: Group-size cap engaged by the ``auto_cap_pairs`` budget for this
    #: build (0 = auto-capping off or the uncapped work fit the budget).
    auto_cap: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "groups": self.groups,
            "skipped_groups": self.skipped_groups,
            "largest_group": self.largest_group,
            "enumerated_pairs": self.enumerated_pairs,
            "candidate_pairs": self.candidate_pairs,
            "auto_cap": self.auto_cap,
        }


def pack_pair(first: int, second: int, width: int) -> int:
    """Pack an ordered id pair into one int key (``first < second < width``)."""
    return first * width + second


def unpack_pair(key: int, width: int) -> tuple[int, int]:
    return divmod(key, width)


def resolve_auto_cap(sizes: Iterable[int], cap: int, auto_cap: int) -> int:
    """Group-size cap implied by an enumerated-pair budget.

    *sizes* is the full group-size distribution of one accumulation run;
    *auto_cap* the budget on walked pair co-occurrences (``sum C(s, 2)``
    over admitted groups).  A pure function of the distribution, so the
    single-pass and sharded accumulators — which both see every group —
    reach the identical decision and stay byte-identical.

    Returns *cap* unchanged when an explicit cap is already set, when
    auto-capping is off, or when the uncapped work fits the budget.
    Otherwise returns the largest cap ``C >= 2`` whose admitted groups
    (``size <= C``) fit; when even the size-2 groups blow the budget the
    floor of 2 is returned — the gate bounds heavy hitters, it never
    disables a dimension outright.
    """
    if cap or auto_cap <= 0:
        return cap
    per_size: Counter[int] = Counter()
    for size in sizes:
        if size >= 2:
            per_size[size] += 1
    total = sum(size * (size - 1) // 2 * count for size, count in per_size.items())
    if total <= auto_cap:
        return cap
    budget = auto_cap
    resolved = 2
    for size in sorted(per_size):
        budget -= size * (size - 1) // 2 * per_size[size]
        if budget < 0:
            break
        resolved = size
    return max(resolved, 2)


def accumulate_pair_counts(
    groups: Iterable[Sequence[int]],
    width: int,
    cap: int = 0,
    stats: PairStats | None = None,
    auto_cap: int = 0,
) -> Counter[int]:
    """Accumulate co-occurrence counts over id *groups*.

    Each group is an **ascending-sorted** sequence of server ids sharing
    one artefact (a client, an IP, a filename, ...).  The result maps
    ``pack_pair(i, j, width)`` (``i < j``) to the number of groups
    containing both — for overlap-ratio dimensions this *is*
    ``|A_i ∩ A_j|``, so edge weights fall out arithmetically instead of
    via per-pair set intersections.

    ``cap`` > 0 skips groups with more than ``cap`` members (the
    deterministic heavy-hitter gate, off by default); groups with fewer
    than two members contribute nothing by construction.  ``auto_cap``
    > 0 (and no explicit cap) engages the load-adaptive gate: the group
    stream is materialised once and :func:`resolve_auto_cap` picks the
    cap from its size distribution; the engaged cap is recorded in
    ``stats.auto_cap``.
    """
    if auto_cap > 0 and not cap:
        groups = groups if isinstance(groups, (list, tuple)) else list(groups)
        cap = resolve_auto_cap(map(len, groups), cap, auto_cap)
        if stats is not None:
            stats.auto_cap = cap
    counts: Counter[int] = Counter()
    update = counts.update
    record = stats is not None
    for group in groups:
        size = len(group)
        if record:
            stats.groups += 1
            if size > stats.largest_group:
                stats.largest_group = size
        if size < 2:
            continue
        if cap and size > cap:
            if record:
                stats.skipped_groups += 1
            continue
        if record:
            stats.enumerated_pairs += size * (size - 1) // 2
        for position in range(size - 1):
            base = group[position] * width
            update(map(base.__add__, group[position + 1 :]))
    if record:
        stats.candidate_pairs = len(counts)
    return counts


#: Pairs the first kernel call may emit before its buffers grow.
_FIRST_BLOCK = 1 << 16

_REFUSALS = {
    -1: "bad sizes or capacities",
    -2: "offsets that do not bound the ids",
    -3: "an id outside [0, width)",
    -4: "a group that is not strictly ascending",
}

#: ``(firsts, seconds, counts)``: pair ``t`` is ``firsts[t] < seconds[t]``,
#: held together by ``counts[t]`` groups; ascending in ``(first, second)``.
SortedPairs = tuple[array, array, array]


def sorted_pair_counts(
    groups: Iterable[Sequence[int]],
    width: int,
    cap: int = 0,
    stats: PairStats | None = None,
    auto_cap: int = 0,
    graph=None,
) -> SortedPairs:
    """Every co-occurring pair of *groups* with its count, in pair order.

    The same pairs and counts as :func:`accumulate_pair_counts` (same
    *cap*, *auto_cap* and *stats*), as three ``array('q')`` sorted by
    ``(first, second)`` — the order ``add_sorted_edges`` needs.  When
    *graph*, the graph being built, is CSR-backed and the compiled
    kernels load, ``_pairs_kernel.c`` computes them and
    ``graph.pair_kernel`` is set; otherwise the ``Counter`` reference
    does, sorted into the same arrays.  Groups must be ascending and
    inside ``[0, width)``; the kernel refuses any that are not with
    :class:`~repro.errors.PipelineError`.
    """
    groups = groups if isinstance(groups, (list, tuple)) else list(groups)
    library = None
    if hasattr(graph, "add_sorted_edge_arrays"):
        from repro.graph import _kernel  # deferred: nothing loads at import

        library = _kernel.load()
    if library is None:
        counts = accumulate_pair_counts(groups, width, cap, stats, auto_cap)
        keys = sorted(counts)
        return (
            array("q", [key // width for key in keys]),
            array("q", [key % width for key in keys]),
            array("q", map(counts.__getitem__, keys)),
        )
    if auto_cap > 0 and not cap:
        cap = resolve_auto_cap(map(len, groups), cap, auto_cap)
        if stats is not None:
            stats.auto_cap = cap
    # The reference's admission rule and accounting; only the admitted
    # groups reach the kernel, flattened into ids and offsets.
    offsets, ids = array("q", [0]), array("q")
    extend, close = ids.extend, offsets.append
    enumerated = skipped = 0
    for group in groups:
        size = len(group)
        if size < 2:
            continue
        if cap and size > cap:
            skipped += 1
            continue
        enumerated += size * (size - 1) // 2
        extend(group)
        close(len(ids))
    pairs = _compiled_pair_counts(library, offsets, ids, width, enumerated)
    graph.pair_kernel = True
    if stats is not None:
        stats.groups += len(groups)
        stats.largest_group = max(stats.largest_group, max(map(len, groups), default=0))
        stats.skipped_groups += skipped
        stats.enumerated_pairs += enumerated
        stats.candidate_pairs = len(pairs[0])
    return pairs


def _compiled_pair_counts(library, offsets, ids, width, enumerated) -> SortedPairs:
    """Drive ``pair_counts`` over the flattened groups until every row is out.

    The outputs start at ``_FIRST_BLOCK`` pairs (fewer when fewer pairs
    were enumerated, never fewer than *width*, which lets every call
    finish at least one row) and double whenever a call stops before a
    row that would overflow them; the next call resumes at that row.
    """
    scratch = array("q", [0]) * (2 * width + 1 + 2 * len(ids) + (width + 63) // 64)
    next_row = array("q", [0])
    capacity = max(width, min(enumerated, _FIRST_BLOCK))
    outputs = tuple(array("q", [0]) * capacity for _ in range(3))
    written = row = 0
    while True:
        found = library.pair_counts(
            width,
            len(offsets) - 1,
            offsets.buffer_info()[0],
            ids.buffer_info()[0],
            len(ids),
            row,
            scratch.buffer_info()[0],
            len(scratch),
            capacity - written,
            *(output.buffer_info()[0] + 8 * written for output in outputs),
            next_row.buffer_info()[0],
        )
        if found < 0:
            raise PipelineError(f"pair counting refused its input: {_REFUSALS.get(found, found)}")
        written += found
        row = next_row[0]
        if row >= width:
            break
        grown = max(2 * capacity, written + width)
        for output in outputs:
            output.extend(array("q", [0]) * (grown - capacity))
        capacity = grown
    for output in outputs:
        del output[written:]
    return outputs


def overlap_ratio_edges(
    pairs: SortedPairs,
    sizes: Mapping[int, int] | Sequence[int],
    floor: float,
    special: Container[int] = (),
    weight_of: Callable[[int, int, int], float] | None = None,
) -> Iterator[tuple[int, int, float]]:
    """Edges for the overlap-ratio dimensions (eq. 1 / eq. 8 form).

    For every pair of :func:`sorted_pair_counts`, the weight is
    ``(common / |A_i|) * (common / |A_j|)``; pairs below *floor* are
    dropped.  A pair whose two ids are both in *special* is weighed by
    ``weight_of(i, j, common)`` instead (:func:`heavy_overlap` adds the
    ubiquitous artefacts back; urifile's eq. 7 matches long names).
    Pairs are yielded in ascending ``(i, j)`` order — exactly the
    precondition of ``WeightedGraph.add_sorted_edges``.
    """
    for first, second, common in zip(*pairs):
        if first in special and second in special:
            weight = weight_of(first, second, common)
        else:
            weight = (common / sizes[first]) * (common / sizes[second])
        if weight >= floor:
            yield first, second, weight


def overlap_ratio_edge_arrays(
    pairs: SortedPairs,
    width: int,
    sizes: Mapping[int, int] | Sequence[int],
    floor: float,
    special: Collection[int] = (),
    weight_of: Callable[[int, int, int], float] | None = None,
):
    """Array form of :func:`overlap_ratio_edges` (numpy required).

    Returns ``(us, vs, ws)`` int64/int64/float64 arrays holding exactly
    the triples :func:`overlap_ratio_edges` would yield, in the same
    order, with bit-identical weights: int64 true division is the same
    correctly-rounded float64 operation as python ``int / int`` for
    counts far below 2**53, and the product is a single elementwise
    multiply either way.  Only the *special* pairs' ``weight_of`` calls
    stay a python loop, masked down to pairs whose two ids are special.
    """
    import numpy as _np  # only CSR graphs, which need numpy, take this path

    firsts, seconds, common = (_np.frombuffer(part, dtype=_np.int64) for part in pairs)
    if isinstance(sizes, Mapping):
        size_arr = _np.ones(width, dtype=_np.int64)
        for index, size in sizes.items():
            size_arr[index] = size
    else:
        size_arr = _np.asarray(sizes, dtype=_np.int64)
    ws = (common / size_arr[firsts]) * (common / size_arr[seconds])
    if special:
        special_ids = _np.fromiter(special, dtype=_np.int64, count=len(special))
        affected = _np.isin(firsts, special_ids) & _np.isin(seconds, special_ids)
        for position in _np.nonzero(affected)[0].tolist():
            ws[position] = weight_of(
                int(firsts[position]), int(seconds[position]), int(common[position])
            )
    keep = ws >= floor
    return firsts[keep], seconds[keep], ws[keep]


def heavy_overlap(
    heavy_sets: Mapping[int, frozenset[int]], sizes: Mapping[int, int] | Sequence[int]
) -> Callable[[int, int, int], float]:
    """``weight_of`` for pairs of servers that both carry heavy artefacts.

    *heavy_sets* maps a server id to its artefacts whose posting lists
    were too ubiquitous to generate candidates; the pair's shared ones
    are added back to its count, so the weight sees the full-set
    intersection.
    """

    def weight_of(first: int, second: int, common: int) -> float:
        common += len(heavy_sets[first] & heavy_sets[second])
        return (common / sizes[first]) * (common / sizes[second])

    return weight_of


def add_overlap_edges(
    graph,
    pairs: SortedPairs,
    width: int,
    sizes: Mapping[int, int] | Sequence[int],
    floor: float,
    special: Collection[int] = (),
    weight_of: Callable[[int, int, int], float] | None = None,
) -> None:
    """Add an overlap-ratio dimension's edges to *graph*, fastest way first.

    CSR-backed graphs expose ``add_sorted_edge_arrays`` and take the
    vectorised :func:`overlap_ratio_edge_arrays` route; the pure-python
    backend streams :func:`overlap_ratio_edges`.  Same edges, same
    order, same bits either way.
    """
    fast = getattr(graph, "add_sorted_edge_arrays", None)
    if fast is not None and pairs[0]:
        fast(*overlap_ratio_edge_arrays(pairs, width, sizes, floor, special, weight_of))
    else:
        graph.add_sorted_edges(overlap_ratio_edges(pairs, sizes, floor, special, weight_of))
