"""The compiled Louvain kernel against the pure-Python reference.

``repro.graph.louvain`` runs frozen CSR graphs through an exact C kernel
(``_louvain_kernel.c``) and everything else through the pure-Python
``_local_move``/``_aggregate``.  The contract is identity, not
closeness: the same communities in the same order, the same partition,
the same ``modularity.hex()`` and the same work counters.  These tests
check it on the dimension graphs of real scenario days, on seeded random
graphs (equal weights, isolated nodes, a hub row of degree >= 640), and
through the loader's failure and concurrency paths.  Everything here is
skipped when numpy or a C compiler is missing.
"""

from __future__ import annotations

import logging
import os
import pickle
import random
import shutil
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import LouvainConfig, SmashConfig
from repro.core import pipeline as pipeline_module
from repro.core.ashmining import mine_herds
from repro.core.pipeline import SmashPipeline
from repro.graph import HAVE_NUMPY, CsrGraph, WeightedGraph, modularity
from repro.graph import _kernel
from repro.graph.louvain import (
    _aggregate,
    _KernelLevels,
    _Level,
    _local_move,
    louvain_communities,
)
from repro.synth import TraceGenerator, data2012day
from repro.util.rng import make_rng

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY or not (shutil.which("cc") or shutil.which("gcc")),
    reason="the compiled Louvain kernel needs numpy and a C compiler on PATH",
)


def weighted_copy(graph: CsrGraph) -> WeightedGraph:
    """The same graph on the dict backend, bulk-loaded the way builders do."""
    copy = WeightedGraph.from_sorted_labels(graph.nodes)
    copy.add_sorted_edges((copy.id_of(u), copy.id_of(v), w) for u, v, w in graph.edges())
    return copy


def build_both(n: int, edges: dict[tuple[int, int], float]) -> tuple[CsrGraph, WeightedGraph]:
    labels = [f"n{i:04d}" for i in range(n)]
    ordered = [(u, v, edges[u, v]) for u, v in sorted(edges)]
    csr = CsrGraph.from_sorted_labels(labels)
    csr.add_sorted_edges(ordered)
    ref = WeightedGraph.from_sorted_labels(labels)
    ref.add_sorted_edges(ordered)
    return csr, ref


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


def assert_same_result(kernel, reference) -> None:
    assert kernel.compiled and not reference.compiled
    assert kernel.communities == reference.communities
    assert kernel.partition == reference.partition
    assert kernel.modularity.hex() == reference.modularity.hex()
    assert (kernel.levels, kernel.moves, kernel.sweeps) == (
        reference.levels,
        reference.moves,
        reference.sweeps,
    )
    assert kernel == reference


def capture_dimension_graphs(dataset) -> list[tuple[str, bytes]]:
    """Every graph ``mine_herds`` sees in one CSR pipeline mine, pickled
    before mining (the pipeline later adds single-client edges)."""
    captured: list[tuple[str, bytes]] = []
    original = pipeline_module.mine_herds

    def capture(graph, dimension, config=None):
        captured.append((dimension, pickle.dumps(graph)))
        return original(graph, dimension, config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "mine_herds", capture)
        SmashPipeline(SmashConfig()).mine(dataset.trace, whois=dataset.whois)
    return captured


@pytest.fixture(scope="module")
def day_graphs(small_dataset) -> list[tuple[str, bytes]]:
    """Dimension graphs of a small-scenario day and a Data2012day-shaped day."""
    data2012 = TraceGenerator(data2012day(scale=0.05)).generate_day(0)
    graphs = [
        (f"small/{dimension}", blob)
        for dimension, blob in capture_dimension_graphs(small_dataset)
    ]
    graphs += [
        (f"data2012day/{dimension}", blob)
        for dimension, blob in capture_dimension_graphs(data2012)
    ]
    assert len(graphs) == 8
    return graphs


class TestDimensionGraphs:
    def test_mine_herds_matches_reference(self, day_graphs):
        config = LouvainConfig()
        for name, blob in day_graphs:
            dimension = name.split("/")[1]
            graph = pickle.loads(blob)
            assert isinstance(graph, CsrGraph) and graph.csr_view() is not None
            kernel = mine_herds(graph, dimension, config)
            reference = mine_herds(weighted_copy(graph), dimension, config)
            assert kernel.louvain_kernel, name
            assert not reference.louvain_kernel, name
            assert outcome_signature(kernel) == outcome_signature(reference), name

    def test_kernel_disabled_csr_graph_matches(self, day_graphs, monkeypatch):
        config = LouvainConfig()
        kernel_runs = {
            name: outcome_signature(mine_herds(pickle.loads(blob), name.split("/")[1], config))
            for name, blob in day_graphs
        }
        monkeypatch.setattr(_kernel, "_loaded", [None])
        for name, blob in day_graphs:
            outcome = mine_herds(pickle.loads(blob), name.split("/")[1], config)
            assert not outcome.louvain_kernel
            assert outcome_signature(outcome) == kernel_runs[name], name

    def test_modularity_matches_networkx(self, day_graphs):
        nx = pytest.importorskip("networkx")
        quality = pytest.importorskip("networkx.algorithms.community.quality")
        for name, blob in day_graphs:
            graph = pickle.loads(blob)
            if graph.total_weight == 0.0:
                continue
            result = louvain_communities(graph)
            oracle = nx.Graph()
            oracle.add_nodes_from(graph.nodes)
            oracle.add_weighted_edges_from(graph.edges())
            expected = quality.modularity(oracle, [set(c) for c in result.communities])
            assert abs(result.modularity - expected) <= 1e-12, name

    def test_threads_load_once_and_share_the_kernel(self, day_graphs, monkeypatch):
        """Eight threads on a fresh loader, switching as often as possible:
        one library is opened, and every mine runs it to the serial result."""
        config = LouvainConfig()
        graphs = [(name.split("/")[1], blob) for name, blob in day_graphs]
        serial = [outcome_signature(mine_herds(pickle.loads(b), d, config)) for d, b in graphs]
        monkeypatch.setattr(_kernel, "_loaded", [])

        def mine(item):
            dimension, blob = item
            outcome = mine_herds(pickle.loads(blob), dimension, config)
            return outcome.louvain_kernel, outcome_signature(outcome)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(mine, item) for item in graphs]
                results = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [signature for _, signature in results] == serial
        assert all(compiled for compiled, _ in results)
        assert len(_kernel._loaded) == 1 and _kernel._loaded[0] is not None


@st.composite
def random_graphs(draw, min_nodes=1, max_nodes=60, hub_degree=0):
    """A seeded random graph: equal, few or arbitrary weights, some isolated
    nodes, and optionally a hub joined to at least *hub_degree* others."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(min_nodes, max_nodes))
    density = draw(st.floats(0.0, 0.02 if hub_degree else 0.4))
    weights = draw(st.sampled_from(["equal", "few", "random"]))
    isolated = draw(st.integers(0, n - hub_degree - 1 if hub_degree else n // 3))
    rng = random.Random(seed)

    def weight() -> float:
        if weights == "equal":
            return 1.0
        if weights == "few":
            return rng.choice((0.25, 0.5, 1.0))
        return rng.uniform(0.01, 2.0)

    connected = list(range(isolated, n))
    edges: dict[tuple[int, int], float] = {}
    for position, u in enumerate(connected):
        for v in connected[position + 1 :]:
            if rng.random() < density:
                edges[u, v] = weight()
    if hub_degree:
        center = connected[len(connected) // 2]
        for v in connected:
            if v != center:
                edges[min(center, v), max(center, v)] = weight()
    config = LouvainConfig(
        seed=draw(st.integers(0, 1000)),
        min_modularity_gain=draw(st.sampled_from((0.0, 1e-7))),
    )
    return n, edges, config


class TestRandomGraphs:
    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_louvain_result_is_identical(self, case):
        n, edges, config = case
        csr, ref = build_both(n, edges)
        assert_same_result(louvain_communities(csr, config), louvain_communities(ref, config))

    # Building a ~700-node graph happens inside the strategy, which
    # hypothesis would otherwise flag as slow data generation.
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_graphs(min_nodes=660, max_nodes=720, hub_degree=640))
    def test_hub_row_of_degree_640(self, case):
        n, edges, config = case
        csr, ref = build_both(n, edges)
        view = csr.csr_view()
        assert int((view.indptr[1:] - view.indptr[:-1]).max()) >= 640
        assert_same_result(louvain_communities(csr, config), louvain_communities(ref, config))

    def test_graph_without_edges(self):
        csr, ref = build_both(5, {})
        assert_same_result(louvain_communities(csr), louvain_communities(ref))
        assert louvain_communities(csr).levels == 1


def bits(values) -> list[str]:
    return [float(value).hex() for value in values]


def assert_same_level(levels: _KernelLevels, level: _Level) -> None:
    """The kernel's current level is the reference level, bit for bit."""
    n = level.n
    assert levels.n == n
    indptr, indices, weights, loops, degree = (array.tolist() for array in levels.level)
    rows = [
        list(zip(indices[indptr[i] : indptr[i + 1]], bits(weights[indptr[i] : indptr[i + 1]])))
        for i in range(n)
    ]
    assert rows == [list(zip(row, bits(row.values()))) for row in level.adjacency]
    assert bits(loops[:n]) == bits(level.loops)
    assert bits(degree[:n]) == bits(level.degree)
    assert levels.total_weight.hex() == level.total_weight.hex()


class TestLevels:
    """Level by level, the kernel's arrays are the reference's, bit for bit.

    Random weights make float results depend on accumulation order, so a
    kernel summing in another order shows here even when the partition
    it reaches is the same.
    """

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_every_level_matches(self, case):
        n, edges, config = case
        csr, ref = build_both(n, edges)
        levels = _KernelLevels(_kernel.load(), csr.csr_view())
        level = _Level(ref.louvain_view()[1], [0.0] * n)
        kernel_rng, reference_rng = make_rng(config.seed), make_rng(config.seed)
        membership = list(range(n))
        for _ in range(config.max_levels):
            assert_same_level(levels, level)
            moves, sweeps = _local_move(level, config, reference_rng)
            assert levels.local_move(config, kernel_rng) == (moves, sweeps)
            assert levels.community[: level.n].tolist() == level.community
            assert bits(levels.community_degree[: level.n]) == bits(level.community_degree)
            coarse, mapping = _aggregate(level)
            membership = [mapping[m] for m in membership]
            levels.aggregate()
            assert levels.membership.tolist() == membership
            assert_same_level(levels, coarse)
            if not moves or coarse.n == level.n:
                break
            level = coarse


class TestOrderedSums:
    """Float sums are left to right on every Python.

    Python 3.12's ``sum()`` compensates (Neumaier): it adds these weights
    up to 1.0000000000000002, where a running ``+=`` gives 1.0.
    """

    EDGES = {(0, 1): 1.0, (0, 2): 1e-16, (1, 2): 1e-16}

    def test_backends_and_kernel_agree(self):
        np = pytest.importorskip("numpy")
        csr, ref = build_both(3, self.EDGES)
        assert csr.total_weight == ref.total_weight == 1.0
        assert csr.subgraph(csr.nodes).total_weight == 1.0
        degrees = [ref.degree(node) for node in ref.nodes]
        assert [csr.degree(node) for node in csr.nodes] == degrees

        library = _kernel.load()
        view = csr.csr_view()
        loops = np.zeros(3)
        degree = np.zeros(3)
        community = np.zeros(3, dtype=np.int64)
        community_degree = np.zeros(3)
        total = library.louvain_init_level(
            3,
            view.indptr.ctypes.data,
            view.weights.ctypes.data,
            loops.ctypes.data,
            degree.ctypes.data,
            community.ctypes.data,
            community_degree.ctypes.data,
        )
        assert total == 1.0
        assert degree.tolist() == degrees
        level = _Level(ref.louvain_view()[1], [0.0] * 3)
        assert level.total_weight == 1.0 and level.degree == degrees

        kernel = louvain_communities(csr)
        reference = louvain_communities(ref)
        assert_same_result(kernel, reference)
        partition = {node: 0 for node in ref.nodes}
        assert modularity(csr, partition).hex() == modularity(ref, partition).hex()


class TestLoader:
    def _mine_all(self, day_graphs) -> list[tuple]:
        config = LouvainConfig()
        return [
            outcome_signature(mine_herds(pickle.loads(blob), name.split("/")[1], config))
            for name, blob in day_graphs
        ]

    def _assert_one_warning(self, caplog) -> None:
        warnings = [r for r in caplog.records if r.name == "repro.graph.kernel"]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert "pure-Python reference" in warnings[0].getMessage()

    def test_missing_compiler_falls_back_with_one_warning(
        self, day_graphs, monkeypatch, caplog, tmp_path
    ):
        expected = self._mine_all(day_graphs)
        # Sources in a fresh directory have no library built next to them.
        source = tmp_path / "_louvain_kernel.c"
        shutil.copy(_kernel.SOURCE, source)
        monkeypatch.setattr(_kernel, "SOURCE", source)
        monkeypatch.setattr(_kernel, "_loaded", [])
        monkeypatch.setattr(_kernel.shutil, "which", lambda name: None)
        with caplog.at_level(logging.WARNING, logger="repro.graph.kernel"):
            assert self._mine_all(day_graphs) == expected
        assert _kernel._loaded == [None]
        self._assert_one_warning(caplog)

    def test_failed_build_falls_back_with_one_warning(
        self, day_graphs, monkeypatch, caplog, tmp_path
    ):
        expected = self._mine_all(day_graphs)
        source = tmp_path / "_louvain_kernel.c"
        source.write_text(_kernel.SOURCE.read_text() + "\n#error deliberately broken\n")
        monkeypatch.setattr(_kernel, "SOURCE", source)
        monkeypatch.setattr(_kernel, "_loaded", [])
        with caplog.at_level(logging.WARNING, logger="repro.graph.kernel"):
            assert self._mine_all(day_graphs) == expected
        self._assert_one_warning(caplog)
        # The failed build left nothing behind, not even its temporary.
        assert not any((tmp_path / "__pycache__").iterdir())

    def test_concurrent_builds_into_an_empty_cache(self, tmp_path):
        source = tmp_path / "_louvain_kernel.c"
        shutil.copy(_kernel.SOURCE, source)
        go = tmp_path / "go"
        script = textwrap.dedent(
            f"""
            import time
            from pathlib import Path
            from repro.graph import CsrGraph, _kernel
            from repro.graph.louvain import louvain_communities

            _kernel.SOURCE = Path({str(source)!r})
            while not Path({str(go)!r}).exists():
                time.sleep(0.005)
            assert _kernel.load() is not None
            graph = CsrGraph.from_sorted_labels(["a", "b", "c", "d"])
            graph.add_sorted_edges([(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0)])
            result = louvain_communities(graph)
            assert result.compiled
            print(sorted(sorted(c) for c in result.communities), result.modularity.hex())
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        go.touch()
        outputs = [process.communicate(timeout=300) for process in processes]
        for process, (stdout, stderr) in zip(processes, outputs):
            assert process.returncode == 0, stderr
        assert outputs[0][0] == outputs[1][0] and outputs[0][0].strip()
        built = sorted(path.name for path in (tmp_path / "__pycache__").iterdir())
        assert len(built) == 1 and built[0].endswith(".so"), built

    def test_built_library_loads_without_a_compiler(self, tmp_path):
        """A process with no compiler on PATH opens the library already
        built for these sources: no warning, every kernel compiled, and
        the same campaigns as a process that could build it."""
        assert _kernel.load() is not None
        script = textwrap.dedent(
            """
            import json, logging, sys
            from repro.core.pipeline import SmashPipeline
            from repro.eval.export import result_to_dict
            from repro.graph import _kernel
            from repro.synth import TraceGenerator, small_scenario

            logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
            data = TraceGenerator(small_scenario()).generate_day(0)
            pipeline = SmashPipeline()
            mined = pipeline.mine(data.trace, whois=data.whois)
            result = pipeline.finish(mined, redirects=data.redirects)
            print(json.dumps(result_to_dict(result), sort_keys=True))
            outcomes = [mined.main, *mined.secondary.values()]
            print(all(o.louvain_kernel and o.graph.pair_kernel for o in outcomes))
            """
        )
        env = dict(os.environ)
        env["PATH"] = str(tmp_path)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=environment,
                capture_output=True,
                text=True,
                timeout=300,
            )
            for environment in (env, dict(env, PATH=os.environ.get("PATH", "")))
        ]
        for completed in runs:
            assert completed.returncode == 0, completed.stderr
        without, with_compiler = runs
        assert "compiled kernels unavailable" not in without.stderr, without.stderr
        assert without.stdout.splitlines()[-1] == "True"
        assert without.stdout == with_compiler.stdout

    def test_import_and_construction_load_nothing(self):
        script = textwrap.dedent(
            """
            import sys
            import repro
            from repro.config import SmashConfig
            from repro.core.pipeline import SmashPipeline
            from repro.stream import StreamingSmash

            SmashPipeline(SmashConfig())
            StreamingSmash(config=SmashConfig(), window_size=2)
            assert "repro.graph._kernel" not in sys.modules, "kernel loader imported"
            maps = open("/proc/self/maps").read() if sys.platform == "linux" else ""
            assert "_kernels." not in maps, "kernel library loaded"
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert completed.returncode == 0, completed.stderr
