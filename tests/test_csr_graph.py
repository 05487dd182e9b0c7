"""CSR graph backend unit tests (edge cases and backend parity).

The CSR backend (:mod:`repro.graph.csr`) must be indistinguishable from
the pure-python :class:`~repro.graph.wgraph.WeightedGraph` reference in
every observable way — the byte-identity contract the pipeline-level
equivalence tests enforce end to end is pinned down here at the graph
API, on the shapes most likely to break an array implementation: empty
graphs, single nodes, isolated nodes, duplicate-edge accumulation, and
post-finalize mutation.  The ``resolve_auto_cap`` tests cover the
load-adaptive heavy-hitter gate that rides the same PR.
"""

from __future__ import annotations

import pytest

from repro.core.interning import (
    PairStats,
    accumulate_pair_counts,
    add_overlap_edges,
    overlap_ratio_edges,
    resolve_auto_cap,
    sorted_pair_counts,
)
from repro.errors import GraphError
from repro.graph import (
    HAVE_NUMPY,
    CsrGraph,
    WeightedGraph,
    connected_components,
    louvain_communities,
    modularity,
    new_graph,
    resolve_use_csr,
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def both_backends(labels, edges=()):
    """The same graph built on the CSR and the reference backend."""
    csr = CsrGraph.from_sorted_labels(labels)
    ref = WeightedGraph.from_sorted_labels(labels)
    csr.add_sorted_edges(list(edges))
    ref.add_sorted_edges(list(edges))
    return csr, ref


def assert_same_graph(csr, ref):
    """Every public observation must agree between the two backends."""
    assert csr == ref
    assert ref == csr
    assert len(csr) == len(ref)
    assert csr.nodes == ref.nodes
    assert list(csr.edges()) == list(ref.edges())
    assert csr.num_edges() == ref.num_edges()
    assert csr.total_weight == ref.total_weight
    assert csr.density() == ref.density()
    for node in ref.nodes:
        assert csr.neighbors(node) == ref.neighbors(node)
        assert csr.degree(node) == ref.degree(node)


class TestResolveUseCsr:
    def test_false_is_always_pure_python(self):
        assert resolve_use_csr(False) is False

    def test_none_auto_detects(self):
        assert resolve_use_csr(None) is HAVE_NUMPY

    @needs_numpy
    def test_true_with_numpy(self):
        assert resolve_use_csr(True) is True

    @pytest.mark.skipif(HAVE_NUMPY, reason="covers the numpy-less path")
    def test_true_without_numpy_raises(self):
        with pytest.raises(GraphError):
            resolve_use_csr(True)

    def test_new_graph_backend_selection(self):
        assert isinstance(new_graph(["a", "b"], use_csr=False), WeightedGraph)
        if HAVE_NUMPY:
            assert isinstance(new_graph(["a", "b"], use_csr=True), CsrGraph)
            assert isinstance(new_graph(["a", "b"]), CsrGraph)
        else:
            assert isinstance(new_graph(["a", "b"]), WeightedGraph)


@needs_numpy
class TestCsrEdgeCases:
    def test_empty_graph(self):
        csr, ref = both_backends([])
        assert_same_graph(csr, ref)
        assert csr.csr_view() is not None
        assert louvain_communities(csr).communities == ()
        assert connected_components(csr) == []

    def test_single_node(self):
        csr, ref = both_backends(["only"])
        assert_same_graph(csr, ref)
        assert csr.neighbors("only") == {}
        assert csr.density_of(["only"]) == ref.density_of(["only"])
        result = louvain_communities(csr)
        assert result.communities == (frozenset({"only"}),)

    def test_isolated_nodes(self):
        labels = ["a", "b", "c", "d", "e"]
        edges = [(0, 2, 1.0), (2, 4, 2.0)]
        csr, ref = both_backends(labels, edges)
        assert_same_graph(csr, ref)
        assert csr.neighbors("b") == {}
        assert csr.degree("d") == 0.0
        assert louvain_communities(csr).communities == louvain_communities(
            ref
        ).communities
        assert connected_components(csr) == connected_components(ref)

    def test_duplicate_edges_accumulate(self):
        labels = ["a", "b", "c"]
        edges = [(0, 1, 0.5), (0, 2, 1.0), (1, 2, 0.25)]
        csr, ref = both_backends(labels, edges)
        # The same pair again, through the incremental interface.
        for graph in (csr, ref):
            graph.add_edge("a", "b", 0.5)
            graph.add_edge("a", "b", 1.5)
        assert_same_graph(csr, ref)
        assert csr.edge_weight("a", "b") == 2.5
        assert csr.num_edges() == 3

    def test_mutation_disables_csr_view_but_not_parity(self):
        labels = ["a", "b", "c", "d"]
        csr, ref = both_backends(labels, [(0, 1, 1.0), (1, 2, 2.0)])
        assert csr.csr_view() is not None
        for graph in (csr, ref):
            graph.add_edge("c", "d", 0.75)
            graph.add_edge("a", "d", 0.1)
        assert csr.csr_view() is None  # overlay engaged
        assert_same_graph(csr, ref)
        members = ["a", "c", "d"]
        assert csr.density_of(members) == ref.density_of(members)

    def test_add_sorted_edge_arrays_matches_iterable_path(self):
        import numpy as np

        labels = [f"s{i}" for i in range(6)]
        triples = [(0, 1, 0.5), (0, 3, 1.5), (2, 5, 0.125), (3, 4, 2.0)]
        csr_arrays = CsrGraph.from_sorted_labels(labels)
        csr_arrays.add_sorted_edge_arrays(
            np.array([t[0] for t in triples], dtype=np.int64),
            np.array([t[1] for t in triples], dtype=np.int64),
            np.array([t[2] for t in triples], dtype=np.float64),
        )
        csr_iter, ref = both_backends(labels, triples)
        assert_same_graph(csr_arrays, ref)
        assert_same_graph(csr_iter, ref)

    def test_subgraph_and_density_parity(self):
        labels = [f"n{i}" for i in range(8)]
        edges = [
            (0, 1, 1.0),
            (0, 2, 0.5),
            (1, 2, 0.5),
            (3, 4, 2.0),
            (4, 6, 1.0),
            (5, 7, 0.25),
        ]
        csr, ref = both_backends(labels, edges)
        members = ["n0", "n1", "n2", "n4", "n6"]
        assert_same_graph(csr.subgraph(members), ref.subgraph(members))
        assert csr.density_of(members) == ref.density_of(members)
        # Unknown members are ignored identically.
        assert csr.density_of(["n0", "n1", "zz"]) == ref.density_of(["n0", "n1", "zz"])

    def test_modularity_and_louvain_parity(self):
        labels = [f"n{i}" for i in range(9)]
        edges = [
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 2, 1.0),
            (3, 4, 1.0),
            (3, 5, 1.0),
            (4, 5, 1.0),
            (6, 7, 1.0),
            (7, 8, 1.0),
            (2, 3, 0.1),
            (5, 6, 0.1),
        ]
        csr, ref = both_backends(labels, edges)
        partition = {label: index // 3 for index, label in enumerate(labels)}
        assert modularity(csr, partition) == modularity(ref, partition)
        assert (
            louvain_communities(csr).communities
            == louvain_communities(ref).communities
        )

    def test_remove_node_unsupported(self):
        csr, _ = both_backends(["a", "b"], [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            csr.remove_node("a")

    def test_overlap_edge_arrays_match_reference_edges(self):
        width = 6
        groups = [[0, 1, 2], [0, 1], [2, 3, 4], [1, 2], [4, 5]]
        pairs = sorted_pair_counts(groups, width)
        sizes = {i: 2.0 + i for i in range(width)}
        floor = 0.01
        fast = CsrGraph.from_sorted_labels([f"s{i}" for i in range(width)])
        slow = WeightedGraph.from_sorted_labels([f"s{i}" for i in range(width)])
        add_overlap_edges(fast, pairs, width, sizes, floor)
        slow.add_sorted_edges(overlap_ratio_edges(pairs, sizes, floor))
        assert_same_graph(fast, slow)


class TestResolveAutoCap:
    def test_disabled_or_explicit_cap_pass_through(self):
        assert resolve_auto_cap([10, 10, 10], cap=0, auto_cap=0) == 0
        assert resolve_auto_cap([10, 10, 10], cap=7, auto_cap=5) == 7

    def test_within_budget_stays_uncapped(self):
        # 3 groups of size 4 -> 18 enumerated pairs, budget 18 fits.
        assert resolve_auto_cap([4, 4, 4], cap=0, auto_cap=18) == 0

    def test_over_budget_engages_largest_fitting_cap(self):
        # sizes 2 (1 pair), 4 (6 pairs), 100 (4950 pairs): budget 100
        # admits sizes <= 4 (7 pairs) but not the heavy hitter.
        assert resolve_auto_cap([2, 4, 100], cap=0, auto_cap=100) == 4

    def test_floor_is_two(self):
        # Even the size-2 groups exceed the budget: floor at 2, never 0.
        assert resolve_auto_cap([2] * 50, cap=0, auto_cap=3) == 2

    def test_singletons_ignored(self):
        assert resolve_auto_cap([0, 1, 1, 1], cap=0, auto_cap=1) == 0

    def test_accumulate_records_and_applies_auto_cap(self):
        width = 40
        groups = [list(range(30)), [0, 1], [2, 3], [4, 5, 6]]
        stats = PairStats()
        capped = accumulate_pair_counts(
            iter(groups), width, stats=stats, auto_cap=10
        )
        assert stats.auto_cap == 3
        explicit = accumulate_pair_counts(groups, width, cap=3)
        assert capped == explicit

    def test_accumulate_auto_cap_noop_within_budget(self):
        width = 10
        groups = [[0, 1, 2], [3, 4]]
        stats = PairStats()
        uncapped = accumulate_pair_counts(
            iter(groups), width, stats=stats, auto_cap=1000
        )
        assert stats.auto_cap == 0
        assert uncapped == accumulate_pair_counts(groups, width)
