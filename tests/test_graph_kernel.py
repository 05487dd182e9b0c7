"""The CSR graph's compiled queries and the id-domain mine, against their references.

``_louvain_kernel.c`` also builds a ``CsrGraph``'s arrays from the
builders' ascending pairs (``csr_from_pairs``), gathers the subgraph a
sorted member set induces (``csr_induced``, behind ``subgraph`` and
``density_of``), sums modularity's terms per community
(``csr_community_sums``) and lists a partition's parts in
``LouvainResult`` order (``louvain_parts``); ``mine_herds`` runs its
top-level Louvain run and every refinement re-run on node ids with them.
The contract is identity with the references: ``np.lexsort``'s arrays,
the ``WeightedGraph`` answers bit for bit, and the label recursion's
herds, densities, modularity and Louvain tallies.  Each entry point
must refuse a bad input before it writes anything.  Hypothesis runs
seeded, with no example database.  Everything here is skipped when
numpy or a C compiler is missing.
"""

from __future__ import annotations

import pickle
import random
import shutil
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.config import LouvainConfig, SmashConfig
from repro.core import ashmining
from repro.core.ashmining import mine_herds
from repro.core.pipeline import SmashPipeline
from repro.errors import GraphError
from repro.graph import HAVE_NUMPY, CsrGraph, WeightedGraph, modularity
from repro.graph import _kernel

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY or not (shutil.which("cc") or shutil.which("gcc")),
    reason="the compiled graph kernel needs numpy and a C compiler on PATH",
)

SENTINEL = -7

np = pytest.importorskip("numpy")


def kernel():
    library = _kernel.load()
    assert library is not None
    return library


def build_both(n: int, edges: dict[tuple[int, int], float]) -> tuple[CsrGraph, WeightedGraph]:
    labels = [f"n{i:03d}" for i in range(n)]
    ordered = [(u, v, edges[u, v]) for u, v in sorted(edges)]
    csr = CsrGraph.from_sorted_labels(labels)
    csr.add_sorted_edges(ordered)
    ref = WeightedGraph.from_sorted_labels(labels)
    ref.add_sorted_edges(ordered)
    return csr, ref


def weighted_copy(graph: CsrGraph) -> WeightedGraph:
    copy = WeightedGraph.from_sorted_labels(graph.nodes)
    copy.add_sorted_edges((copy.id_of(u), copy.id_of(v), w) for u, v, w in graph.edges())
    return copy


def outcome_signature(outcome) -> tuple:
    herds = tuple(
        (herd.dimension, herd.index, tuple(sorted(herd.servers)), herd.density.hex())
        for herd in outcome.herds
    )
    return (
        herds,
        tuple(sorted(outcome.dropped)),
        outcome.modularity.hex(),
        outcome.louvain_runs,
        outcome.louvain_levels,
        outcome.louvain_moves,
        outcome.louvain_sweeps,
    )


@st.composite
def random_graphs(draw, max_nodes=40):
    """Seeded random edges: equal, few or arbitrary weights, any density."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_nodes))
    density = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["equal", "few", "random"]))
    edges = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges[u, v] = (
                    1.0
                    if kind == "equal"
                    else rng.choice((0.25, 0.5, 1.0))
                    if kind == "few"
                    else rng.uniform(0.01, 2.0)
                )
    return n, edges


def lexsorted_arrays(n: int, edges) -> tuple:
    """The arrays ``CsrGraph._finalize`` built before the counting pass."""
    pairs = sorted(edges)
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    ws = np.array([edges[pair] for pair in pairs], dtype=np.float64)
    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    if len(rows):
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], np.concatenate([ws, ws])[order]


class TestCountingPass:
    @seed(22)
    @settings(max_examples=80, deadline=None, database=None)
    @given(random_graphs())
    def test_arrays_equal_lexsort(self, case):
        n, edges = case
        csr, _ = build_both(n, edges)
        view = csr.csr_view()
        indptr, indices, weights = lexsorted_arrays(n, edges)
        assert view.indptr.tolist() == indptr.tolist()
        assert view.indices.tolist() == indices.tolist()
        assert view.weights.tobytes() == weights.tobytes()

    def test_out_of_order_pairs_are_lexsorted(self):
        edges = {(0, 1): 1.0, (2, 3): 0.5, (1, 2): 0.25}
        csr = CsrGraph.from_sorted_labels(["a", "b", "c", "d"])
        csr.add_sorted_edges([(0, 1, 1.0), (2, 3, 0.5), (1, 2, 0.25)])
        indptr, indices, weights = lexsorted_arrays(4, edges)
        view = csr.csr_view()
        assert view.indices.tolist() == indices.tolist()
        assert view.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("pair", [(1, 1), (2, 1), (0, 3), (-1, 2)])
    def test_out_of_range_pair_raises(self, pair):
        csr = CsrGraph.from_sorted_labels(["a", "b", "c"])
        csr.add_sorted_edges([(0, 1, 1.0), (*pair, 1.0)])
        with pytest.raises(GraphError):
            csr.csr_view()


def filled(count: int, dtype) -> np.ndarray:
    return np.full(count, SENTINEL, dtype=dtype)


def untouched(*arrays) -> bool:
    return all((array == SENTINEL).all() for array in arrays)


def path_arrays():
    """A four-node path 0-1-2-3 as CSR arrays."""
    csr, _ = build_both(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
    view = csr.csr_view()
    return view.indptr, view.indices, view.weights


class TestRefusals:
    """Bad input is refused with a negative code, every output untouched."""

    @pytest.mark.parametrize(
        "last",
        [(1, 2), (0, 3), (2, 2), (3, 2), (1, 4), (-1, 3)],
        ids=["repeated", "misordered", "loop", "descending", "at-n", "negative"],
    )
    def test_csr_from_pairs(self, last):
        firsts = np.array([0, 1, last[0]], dtype=np.int64)
        seconds = np.array([1, 2, last[1]], dtype=np.int64)
        weights = np.ones(3)
        indptr, indices, out = filled(5, np.int64), filled(6, np.int64), filled(6, np.float64)
        code = kernel().csr_from_pairs(
            4,
            3,
            firsts.ctypes.data,
            seconds.ctypes.data,
            weights.ctypes.data,
            6,
            indptr.ctypes.data,
            indices.ctypes.data,
            out.ctypes.data,
        )
        assert code < 0
        assert untouched(indptr, indices, out)

    def test_csr_from_pairs_short_capacity(self):
        firsts, seconds = np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.int64)
        indptr, indices, out = filled(4, np.int64), filled(4, np.int64), filled(4, np.float64)
        code = kernel().csr_from_pairs(
            3,
            2,
            firsts.ctypes.data,
            seconds.ctypes.data,
            np.ones(2).ctypes.data,
            3,
            indptr.ctypes.data,
            indices.ctypes.data,
            out.ctypes.data,
        )
        assert code < 0
        assert untouched(indptr, indices, out)

    @pytest.mark.parametrize(
        "ids",
        [[2, 1], [1, 1], [1, 4], [-1, 2]],
        ids=["misordered", "repeated", "at-n", "negative"],
    )
    def test_csr_induced(self, ids):
        indptr, indices, weights = path_arrays()
        members = np.array(ids, dtype=np.int64)
        sub_indptr, sub_indices = filled(3, np.int64), filled(6, np.int64)
        sub_weights, total = filled(6, np.float64), filled(1, np.float64)
        code = kernel().csr_induced(
            4,
            indptr.ctypes.data,
            indices.ctypes.data,
            weights.ctypes.data,
            6,
            2,
            members.ctypes.data,
            6,
            sub_indptr.ctypes.data,
            sub_indices.ctypes.data,
            sub_weights.ctypes.data,
            total.ctypes.data,
        )
        assert code < 0
        assert untouched(sub_indptr, sub_indices, sub_weights, total)

    def test_csr_induced_short_capacity(self):
        indptr, indices, weights = path_arrays()
        members = np.array([0, 1, 2], dtype=np.int64)
        sub_indptr, sub_indices = filled(4, np.int64), filled(3, np.int64)
        sub_weights, total = filled(3, np.float64), filled(1, np.float64)
        code = kernel().csr_induced(
            4,
            indptr.ctypes.data,
            indices.ctypes.data,
            weights.ctypes.data,
            6,
            3,
            members.ctypes.data,
            3,  # the subgraph has 4 entries
            sub_indptr.ctypes.data,
            sub_indices.ctypes.data,
            sub_weights.ctypes.data,
            total.ctypes.data,
        )
        assert code < 0
        assert untouched(sub_indptr, sub_indices, sub_weights, total)

    @pytest.mark.parametrize("labels", [[0, 1, 2, 4], [0, -1, 1, 1]], ids=["high", "negative"])
    def test_community_sums_and_parts(self, labels):
        indptr, indices, weights = path_arrays()
        community = np.array(labels, dtype=np.int64)
        rank, internal, degree = filled(4, np.int64), filled(4, np.float64), filled(4, np.float64)
        code = kernel().csr_community_sums(
            4,
            indptr.ctypes.data,
            indices.ctypes.data,
            weights.ctypes.data,
            6,
            community.ctypes.data,
            4,
            rank.ctypes.data,
            4,
            internal.ctypes.data,
            degree.ctypes.data,
        )
        assert code < 0
        assert untouched(rank, internal, degree)
        work, starts, members = filled(13, np.int64), filled(5, np.int64), filled(4, np.int64)
        code = kernel().louvain_parts(
            4,
            community.ctypes.data,
            4,
            None,
            13,
            work.ctypes.data,
            5,
            starts.ctypes.data,
            4,
            members.ctypes.data,
        )
        assert code < 0
        assert untouched(work, starts, members)


def clique(n):
    return n, {(u, v): 1.0 for u in range(n) for v in range(u + 1, n)}


def star(n):
    return n, {(0, v): 0.5 + v / 8 for v in range(1, n)}


def disconnected(n):
    # Two weighted triangles and isolated nodes.
    return n, {(0, 1): 1.0, (0, 2): 0.25, (1, 2): 0.5, (3, 4): 2.0, (3, 5): 1.0, (4, 5): 0.75}


SHAPES = {"clique": clique(7), "star": star(7), "disconnected": disconnected(9)}


def member_sets(n):
    return {"none": [], "one": [n - 1], "two": [0, n - 1], "all": list(range(n))}


class TestQueries:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("members", ["none", "one", "two", "all"])
    def test_subgraph_density_modularity(self, shape, members):
        n, edges = SHAPES[shape]
        csr, ref = build_both(n, edges)
        chosen = [f"n{i:03d}" for i in member_sets(n)[members]]
        fast, slow = csr.subgraph(chosen), ref.subgraph(chosen)
        assert isinstance(fast, CsrGraph)
        assert fast == slow
        assert fast.nodes == slow.nodes
        assert list(fast.edges()) == list(slow.edges())
        assert fast.total_weight.hex() == slow.total_weight.hex()
        assert fast.csr_view() is not None
        assert csr.density_of(chosen) == ref.density_of(chosen)
        assert fast.density() == slow.density()
        for partition in (
            {node: 0 for node in slow.nodes},
            {node: i for i, node in enumerate(slow.nodes)},
            {node: i % 3 for i, node in enumerate(slow.nodes)},
        ):
            assert modularity(fast, partition).hex() == modularity(slow, partition).hex()

    @seed(22)
    @settings(max_examples=60, deadline=None, database=None)
    @given(random_graphs(), st.data())
    def test_random_member_sets(self, case, data):
        n, edges = case
        csr, ref = build_both(n, edges)
        chosen = data.draw(st.sets(st.integers(0, n - 1)))
        labels = [f"n{i:03d}" for i in chosen]
        assert csr.density_of(labels) == ref.density_of(labels)
        fast, slow = csr.subgraph(labels), ref.subgraph(labels)
        assert fast == slow and fast.total_weight.hex() == slow.total_weight.hex()
        labels_of = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        partition = dict(zip(ref.nodes, labels_of))
        assert modularity(csr, partition).hex() == modularity(ref, partition).hex()

    def test_partition_with_labels_outside_the_sums_range(self):
        n, edges = disconnected(9)
        csr, ref = build_both(n, edges)
        for partition in (
            {node: 1000 + i for i, node in enumerate(ref.nodes)},
            {node: -i for i, node in enumerate(ref.nodes)},
            {node: str(i % 2) for i, node in enumerate(ref.nodes)},
        ):
            assert modularity(csr, partition).hex() == modularity(ref, partition).hex()


def planted(rng: random.Random, blocks: int, nested: bool) -> tuple[int, dict]:
    """Dense blocks (some split into two looser halves) joined by sparse
    cross edges, plus a few isolated nodes."""
    edges: dict[tuple[int, int], float] = {}
    start = rng.randrange(0, 3)
    for _ in range(blocks):
        size = rng.randrange(3, 14)
        members = list(range(start, start + size))
        half = size // 2
        for a in members:
            for b in members:
                if a < b:
                    same_half = (a - start < half) == (b - start < half)
                    p = 0.9 if same_half or not nested else 0.15
                    if rng.random() < p:
                        edges[a, b] = rng.choice((0.5, 1.0, 1.5))
        start += size
    n = start + rng.randrange(0, 3)
    for _ in range(blocks):
        a, b = sorted(rng.sample(range(n), 2))
        edges.setdefault((a, b), 0.1)
    return n, edges


CONFIGS = [
    LouvainConfig(),
    LouvainConfig(max_refine_depth=0),
    LouvainConfig(max_refine_depth=1, min_refine_size=2, refine_density_stop=1.0),
    LouvainConfig(min_refine_size=6, refine_density_stop=0.3),
    LouvainConfig(refine_min_modularity=0.0, refine_density_stop=0.95, seed=5),
    LouvainConfig(refine=False),
]


class TestMine:
    def test_every_stop_matches_the_label_recursion(self, monkeypatch):
        """Seeded planted graphs under configs that stop refinement at the
        density stop, the size floor and the depth cap: the id-domain mine
        equals the label recursion, and each stop is reached."""
        reasons: set[str] = set()
        original = ashmining._refine_community

        def recording(graph, community, config, depth, tally):
            if depth >= config.max_refine_depth:
                reasons.add("depth cap")
            elif len(community) <= config.min_refine_size:
                reasons.add("size floor")
            elif graph.density_of(community) >= config.refine_density_stop:
                reasons.add("density stop")
            else:
                reasons.add("split attempt")
            return original(graph, community, config, depth, tally)

        monkeypatch.setattr(ashmining, "_refine_community", recording)
        rng = random.Random(22)
        for case in range(24):
            n, edges = planted(rng, rng.randrange(1, 6), nested=case % 2 == 0)
            csr, _ = build_both(n, edges)
            for config in CONFIGS:
                fast = mine_herds(csr, "client", config)
                slow = mine_herds(weighted_copy(csr), "client", config)
                assert fast.louvain_kernel and not slow.louvain_kernel
                assert outcome_signature(fast) == outcome_signature(slow), (case, config)
        assert reasons == {"depth cap", "size floor", "density stop", "split attempt"}

    @seed(22)
    @settings(max_examples=60, deadline=None, database=None)
    @given(random_graphs(max_nodes=60), st.sampled_from(CONFIGS))
    def test_random_graphs_match_the_label_recursion(self, case, config):
        n, edges = case
        csr, ref = build_both(n, edges)
        assert outcome_signature(mine_herds(csr, "ipset", config)) == outcome_signature(
            mine_herds(ref, "ipset", config)
        )

    def test_kernel_disabled_matches(self, monkeypatch):
        rng = random.Random(7)
        graphs = [build_both(*planted(rng, 4, nested=True))[0] for _ in range(6)]
        compiled = [outcome_signature(mine_herds(graph, "client")) for graph in graphs]
        monkeypatch.setattr(_kernel, "_loaded", [None])
        rng = random.Random(7)
        graphs = [build_both(*planted(rng, 4, nested=True))[0] for _ in range(6)]
        for graph, expected in zip(graphs, compiled):
            outcome = mine_herds(graph, "client")
            assert not outcome.louvain_kernel
            assert outcome_signature(outcome) == expected

    def test_thread_pool_mine_equals_serial(self, small_dataset):
        def signatures(workers):
            mined = SmashPipeline(SmashConfig(workers=workers, executor="thread")).mine(
                small_dataset.trace, whois=small_dataset.whois
            )
            outcomes = {"main": mined.main, **mined.secondary}
            assert all(outcome.louvain_kernel for outcome in outcomes.values())
            return {name: outcome_signature(outcome) for name, outcome in outcomes.items()}

        assert signatures(2) == signatures(1)

    def test_concurrent_mines_of_one_graph(self):
        rng = random.Random(11)
        graph, _ = build_both(*planted(rng, 5, nested=True))
        expected = outcome_signature(mine_herds(graph, "client"))
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda _: mine_herds(graph, "client"), range(8)))
        assert all(outcome_signature(result) == expected for result in results)

    def test_pickled_mined_graph_carries_no_scratch(self):
        rng = random.Random(3)
        graph, _ = build_both(*planted(rng, 4, nested=True))
        graph.csr_view()
        before = pickle.dumps(graph)
        outcome = mine_herds(graph, "client")
        assert outcome.louvain_runs > 1
        for herd in outcome.herds:
            graph.density_of(herd.servers)
        assert pickle.dumps(graph) == before
        assert pickle.dumps(outcome.graph) == before
