"""The compiled pair counter against the ``Counter`` reference.

``sorted_pair_counts`` runs ``_pairs_kernel.c`` when the graph being
built is CSR-backed and the kernels load, and otherwise sorts
``accumulate_pair_counts`` into the same ``(firsts, seconds, counts)``
arrays.  Every test here compares the two, or drives the kernel's
resume protocol and its refusals directly.
"""

from __future__ import annotations

import shutil
import sys
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.config import DimensionConfig, SmashConfig
from repro.core.dimensions.urifile import build_urifile_graph, file_similarity
from repro.core.interning import PairStats, accumulate_pair_counts, sorted_pair_counts
from repro.core.pipeline import SmashPipeline, dimension_build_stats
from repro.errors import PipelineError
from repro.graph import HAVE_NUMPY, CsrGraph, WeightedGraph, _kernel
from repro.httplog.records import HttpRequest
from repro.httplog.trace import HttpTrace

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY or not (shutil.which("cc") or shutil.which("gcc")),
    reason="the compiled pair counter needs numpy and a C compiler on PATH",
)

SETTINGS = settings(max_examples=80, deadline=None, database=None)


def reference(groups, width, cap=0, auto_cap=0):
    """The sorted reference pairs and the accounting that came with them."""
    stats = PairStats()
    counts = accumulate_pair_counts(groups, width, cap, stats, auto_cap)
    keys = sorted(counts)
    pairs = tuple(
        array("q", column)
        for column in (
            [key // width for key in keys],
            [key % width for key in keys],
            [counts[key] for key in keys],
        )
    )
    return pairs, stats


def compiled(groups, width, cap=0, auto_cap=0):
    graph = CsrGraph.from_sorted_labels(range(width))
    stats = PairStats()
    pairs = sorted_pair_counts(groups, width, cap, stats, auto_cap, graph)
    assert graph.pair_kernel
    return pairs, stats


def assert_matches(groups, width, cap=0, auto_cap=0):
    got, got_stats = compiled(groups, width, cap, auto_cap)
    want, want_stats = reference(groups, width, cap, auto_cap)
    assert got == want
    assert got_stats.to_dict() == want_stats.to_dict()
    # The reference path of sorted_pair_counts is the same sort.
    stats = PairStats()
    assert sorted_pair_counts(groups, width, cap, stats, auto_cap) == want
    assert stats.to_dict() == want_stats.to_dict()


@st.composite
def group_sets(draw, max_width=40):
    width = draw(st.integers(1, max_width))
    ids = st.sets(st.integers(0, width - 1), max_size=min(width, 14))
    groups = [sorted(group) for group in draw(st.lists(ids, max_size=30))]
    return width, groups


class TestAgainstReference:
    @seed(20150701)
    @SETTINGS
    @given(group_sets(), st.integers(0, 8), st.sampled_from([0, 0, 1, 5, 20, 200]))
    def test_random_groups_caps_and_auto_caps(self, case, cap, auto_cap):
        width, groups = case
        assert_matches(groups, width, cap, auto_cap)

    def test_no_groups(self):
        assert_matches([], 5)

    def test_empty_and_singleton_groups(self):
        assert_matches([[], [3], [], [0], [4]], 5)

    def test_widths_one_and_two(self):
        assert_matches([[0], [0], []], 1)
        assert_matches([[0, 1], [1], [0, 1], [0]], 2)

    def test_one_huge_group(self):
        """Its 179,700 pairs outgrow the first output block twice."""
        width = 600
        assert_matches([list(range(width))], width)
        assert_matches([list(range(width)), list(range(0, width, 7))], width, cap=200)

    def test_tuples_and_generators_are_accepted(self):
        groups = [(0, 2, 5), (1, 2), (2, 5)]
        want, _ = reference(groups, 6)
        got, _ = compiled(iter(groups), 6)
        assert got == want

    def test_threads_share_the_kernel(self, monkeypatch):
        """Eight threads on a fresh loader, switching as often as possible:
        one library is opened, and every call gives the serial result."""
        cases = [
            (width, [list(range(start, width, step)) for start in range(3) for step in (1, 2, 3)])
            for width in range(4, 200, 3)
        ]
        serial = [compiled(groups, width)[0] for width, groups in cases]
        monkeypatch.setattr(_kernel, "_loaded", [])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(compiled, groups, width) for width, groups in cases]
                threaded = [future.result(timeout=300)[0] for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert len(_kernel._loaded) == 1 and _kernel._loaded[0] is not None


def flatten(groups):
    offsets, ids = array("q", [0]), array("q")
    for group in groups:
        ids.extend(group)
        offsets.append(len(ids))
    return offsets, ids


def call(offsets, ids, width, row, out_cap, scratch_cap=None):
    """One kernel call: (returned, next_row, firsts, seconds, counts).

    The outputs are filled with -7 first, so what a call did not write
    stays visible.
    """
    library = _kernel.load()
    if scratch_cap is None:
        scratch_cap = 2 * width + 1 + 2 * len(ids) + (width + 63) // 64
    scratch = array("q", [-7]) * max(scratch_cap, 1)
    outputs = [array("q", [-7]) * max(out_cap, 1) for _ in range(3)]
    next_row = array("q", [-7])
    returned = library.pair_counts(
        width,
        len(offsets) - 1,
        offsets.buffer_info()[0],
        ids.buffer_info()[0],
        len(ids),
        row,
        scratch.buffer_info()[0],
        scratch_cap,
        out_cap,
        *(output.buffer_info()[0] for output in outputs),
        next_row.buffer_info()[0],
    )
    return returned, next_row[0], *outputs


def drive(groups, width, out_cap):
    """Every pair, collected over calls that each get *out_cap* slots."""
    offsets, ids = flatten(groups)
    pairs = [array("q") for _ in range(3)]
    row = 0
    while row < width:
        found, next_row, *outputs = call(offsets, ids, width, row, out_cap)
        assert 0 <= found <= out_cap and next_row > row, (found, row, next_row)
        for column, output in zip(pairs, outputs):
            column.extend(output[:found])
            assert all(value == -7 for value in output[found:out_cap])
        row = next_row
    return tuple(pairs)


def widest_row(pairs):
    firsts = pairs[0].tolist()
    return max((firsts.count(first) for first in set(firsts)), default=0)


class TestResume:
    @seed(20150702)
    @SETTINGS
    @given(group_sets(max_width=24))
    def test_every_capacity_from_the_minimum(self, case):
        width, groups = case
        want, _ = reference(groups, width)
        for out_cap in range(max(widest_row(want), 1), len(want[0]) + 2):
            assert drive(groups, width, out_cap) == want, out_cap

    @seed(20150703)
    @SETTINGS
    @given(group_sets(max_width=24))
    def test_every_starting_row(self, case):
        width, groups = case
        want, _ = reference(groups, width)
        offsets, ids = flatten(groups)
        for row in range(width + 1):
            found, next_row, firsts, seconds, counts = call(offsets, ids, width, row, width * width)
            tail = [first >= row for first in want[0]]
            assert next_row == width
            assert firsts[:found].tolist() == [f for f, keep in zip(want[0], tail) if keep]
            assert seconds[:found].tolist() == [s for s, keep in zip(want[1], tail) if keep]
            assert counts[:found].tolist() == [c for c, keep in zip(want[2], tail) if keep]

    def test_a_row_that_cannot_fit_stops_without_output(self):
        found, next_row, firsts, _, _ = call(*flatten([[0, 1, 2, 3]]), 4, 0, 2)
        assert (found, next_row) == (0, 0)
        assert firsts.tolist() == [-7, -7]


INVALID = {
    "id at width": ([[0, 4]], 4),
    "negative id": ([[-1, 2]], 4),
    "descending ids": ([[0, 3, 2]], 4),
    "repeated id": ([[1, 1]], 4),
}


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_invalid_groups_raise(self, name):
        groups, width = INVALID[name]
        graph = CsrGraph.from_sorted_labels(range(width))
        with pytest.raises(PipelineError, match="pair counting refused"):
            sorted_pair_counts(groups, width, graph=graph)

    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_kernel_writes_nothing_before_refusing(self, name):
        groups, width = INVALID[name]
        # A valid group first: its pairs must not be written either.
        found, next_row, *outputs = call(*flatten([[0, 1], *groups]), width, 0, 16)
        assert found < 0 and next_row == -7
        assert all(value == -7 for output in outputs for value in output)

    def test_bad_arguments_are_refused(self):
        offsets, ids = flatten([[0, 1, 2]])
        assert call(offsets, ids, 3, 4, 16)[0] < 0  # row past width
        assert call(offsets, ids, 3, 0, 16, scratch_cap=2 * 3 + 1 + 2 * 3)[0] < 0
        assert call(array("q", [0, 4]), ids, 3, 0, 16)[0] < 0  # offsets past ids
        assert call(array("q", [0, 2, 1, 3]), ids, 3, 0, 16)[0] < 0  # decreasing

    def test_skipped_groups_are_not_inspected(self):
        """A capped group never reaches the kernel, as in the reference."""
        assert_matches([[0, 1], [3, 2, 1]], 4, cap=2)


def trace_of(files_by_server):
    requests = []
    for index, (server, names) in enumerate(sorted(files_by_server.items())):
        for name in sorted(names):
            requests.append(HttpRequest(0.0, f"c{index}", server, "1.1.1.1", f"/{name}"))
    return HttpTrace(requests)


LONG = "a1b2c3d4e5f6g7h8i9j0k1l2m3.bin"
LONG_TWIN = "m3l2k1j0i9h8g7f6e5d4c3b2a1.bin"  # the same characters: cosine 1.0
LONG_OTHER = "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz.exe"
#: Servers with files of their own, so that at the default ubiquity
#: fraction (0.25) only a file on more than a quarter of them is ignored.
FILLER = {f"f{index:02d}": {f"own{index}.js"} for index in range(12)}

#: name -> (files by server, DimensionConfig overrides).  In "both long"
#: s2's two long names match s0's one, so eq. 7 differs from the
#: overlap-ratio form of their count; in "capped" s2 and s3 share a
#: skipped file as well as a kept one.
URIFILE_CASES = {
    "short only": (
        {"s0": {"a.js", "b.js", "c.js"}, "s1": {"a.js", "b.js"}, "s2": {"b.js", "d.js"}},
        {},
    ),
    "one side long": (
        {"s0": {"a.js", "b.js", LONG}, "s1": {"a.js", "b.js"}, "s2": {"a.js", LONG_OTHER}},
        {},
    ),
    "both long": (
        {
            "s0": {"a.js", LONG},
            "s1": {"a.js", LONG_TWIN},
            "s2": {"b.js", LONG, LONG_TWIN},
            "s3": {"b.js", LONG_OTHER, "c.js"},
        },
        {},
    ),
    "ubiquitous": (
        {
            **{server: files | {"index.html"} for server, files in FILLER.items()},
            "s0": {"index.html", "a.js", LONG},
            "s1": {"index.html", "a.js"},
            "s2": {"index.html", "b.js", LONG_TWIN},
        },
        {},
    ),
    "capped": (
        {
            "s0": {"b.js", "c.js", LONG},
            "s1": {"b.js", "c.js", LONG_TWIN},
            "s2": {"b.js", "d.js"},
            "s3": {"b.js", "d.js"},
        },
        {"max_group_size": 2},
    ),
}


class TestUrifileEq7:
    """The vectorised eq. 7 against the per-pair reference, edge for edge."""

    @pytest.mark.parametrize("use_csr", [True, False], ids=["csr", "dict"])
    @pytest.mark.parametrize("name", sorted(URIFILE_CASES))
    def test_builds_equal_file_similarity(self, name, use_csr):
        files_by_server, overrides = URIFILE_CASES[name]
        if "index.html" not in set().union(*files_by_server.values()):
            files_by_server = {**files_by_server, **FILLER}
        config = DimensionConfig(**overrides, use_csr=use_csr)
        graph = build_urifile_graph(trace_of(files_by_server), config)
        assert isinstance(graph, CsrGraph if use_csr else WeightedGraph)
        spread = Counter(name for files in files_by_server.values() for name in files)
        limit = config.max_file_server_fraction * len(files_by_server)
        effective = {
            server: {name for name in files if spread[name] <= limit}
            for server, files in files_by_server.items()
        }
        capped = graph.build_stats["skipped_groups"] > 0
        assert capped == (name == "capped")
        edges = {(u, v): w for u, v, w in graph.edges()}
        for first, second in combinations(sorted(effective), 2):
            want = file_similarity(effective[first], effective[second], config)
            want = want if want >= config.min_edge_weight else 0.0
            got = edges.get((first, second), 0.0)
            if capped and got == 0.0:
                continue  # a pair only a skipped group shares is no candidate
            assert got.hex() == want.hex(), (first, second)
        assert len(edges) >= 2


class TestPipeline:
    def test_thread_pool_mine_equals_serial(self, small_dataset):
        def mine(workers):
            config = SmashConfig(workers=workers, executor="thread")
            mined = SmashPipeline(config).mine(small_dataset.trace, whois=small_dataset.whois)
            outcomes = [mined.main, *mined.secondary.values()]
            assert all(outcome.graph.pair_kernel for outcome in outcomes)
            graphs = [sorted(outcome.graph.edges()) for outcome in outcomes]
            herds = [outcome.herds for outcome in outcomes]
            return graphs, herds, dimension_build_stats(mined)

        assert mine(2) == mine(1)
