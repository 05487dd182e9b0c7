"""One mine core: every mode mines its dimensions through the same stage.

A sharded or out-of-core mine is a sharded *preprocess*
(:mod:`repro.core.shardmine`) followed by the pipeline's one dimension
stage: the same build + Louvain jobs on the mine's pool, the same
:class:`~repro.core.pipeline.DimensionCache` lookups, the same result
assembly.  Pinned here: a hollow (index-only) prepared trace reaches
process-pool dimension jobs with its indexes, and the cache hits on the
store-backed and store-direct paths exactly where a replayed day leaves
every dimension's inputs equal, without changing a single update.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.config import SmashConfig
from repro.core.dimensions import timedim, urlparam
from repro.core.pipeline import DimensionCache, SmashPipeline
from repro.core.results import MAIN_DIMENSION
from repro.core.shardmine import IndexOnlyTrace
from repro.eval.export import result_to_dict
from repro.stream import StreamingSmash
from repro.stream.store import TraceStore
from repro.stream.window import DayPartition, RollingWindow
from repro.synth.generator import TraceGenerator
from repro.synth.scenarios import small_scenario

ALL_DIMENSIONS = ("urifile", "ipset", "whois", "urlparam", "time")


def _doc(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


@pytest.fixture(scope="module")
def three_days():
    return list(TraceGenerator(small_scenario(seed=7, days=3)).iter_days())


class TestHollowTraceOnProcessPool:
    @pytest.fixture
    def window(self, three_days, tmp_path):
        store = TraceStore(tmp_path / "store")
        window = RollingWindow(size=3, store=store)
        for day in three_days:
            window.append(DayPartition(day.day, day.trace, day.whois, day.redirects))
        return store, window

    def test_index_only_trace_pickles_with_its_indexes(self, window):
        store, window = window
        refs = window.partition_refs()
        whois, _ = window.combined_sidecars()
        config = SmashConfig(enabled_secondary_dimensions=ALL_DIMENSIONS)
        mined = SmashPipeline(config).mine(
            None,
            whois=whois,
            partitions=[(ref.day, ref.digest) for ref in refs],
            store_root=store.root,
            shard_boundaries=tuple(store.request_count(ref.day, ref.digest) for ref in refs),
        )
        assert isinstance(mined.trace, IndexOnlyTrace)
        copy = pickle.loads(pickle.dumps(mined.trace))
        assert len(copy) == len(mined.trace)
        for attribute in (
            "clients_by_server",
            "files_by_server",
            "ips_by_server",
            "servers_by_client",
            "servers",
            "_patterns_by_server",
            "_windows_by_server",
        ):
            assert getattr(copy, attribute) == getattr(mined.trace, attribute), attribute

    def test_store_direct_mine_on_process_pool_equals_single_pass(self, window):
        store, window = window
        trace, whois, redirects = window.combined()
        config = SmashConfig(enabled_secondary_dimensions=ALL_DIMENSIONS)
        expected = SmashPipeline(config).run(trace, whois=whois, redirects=redirects)

        refs = window.partition_refs()
        side_whois, side_redirects = window.combined_sidecars()
        with SmashPipeline(config.replace(workers=2, executor="process")) as pipeline:
            mined = pipeline.mine(
                None,
                whois=side_whois,
                partitions=[(ref.day, ref.digest) for ref in refs],
                store_root=store.root,
                shard_boundaries=tuple(
                    store.request_count(ref.day, ref.digest) for ref in refs
                ),
                trace_name=trace.name,
            )
            result = pipeline.finish(mined, redirects=side_redirects)
        assert isinstance(mined.trace, IndexOnlyTrace)
        assert _doc(result) == _doc(expected)


def test_cached_one_pass_mine_builds_each_index_once(three_days, monkeypatch):
    """The cache key and the urlparam/time builders read one memoised index."""
    day = three_days[0]
    config = SmashConfig(enabled_secondary_dimensions=ALL_DIMENSIONS)
    uncached = SmashPipeline(config).mine(day.trace, whois=day.whois)
    parsed: list[str] = []
    scans: list[float] = []
    parse, scan = urlparam.query_parameter_names, timedim._scan_windows

    def counting_parse(uri: str) -> tuple[str, ...]:
        parsed.append(uri)
        return parse(uri)

    def counting_scan(trace, window_seconds: float) -> dict:
        scans.append(window_seconds)
        return scan(trace, window_seconds)

    monkeypatch.setattr(urlparam, "query_parameter_names", counting_parse)
    monkeypatch.setattr(timedim, "_scan_windows", counting_scan)
    cache = DimensionCache()
    cached = SmashPipeline(config).mine(day.trace, whois=day.whois, cache=cache)
    assert set(cache.last_mined) == {MAIN_DIMENSION, *ALL_DIMENSIONS}
    assert sorted(parsed) == sorted(set(cached.trace.column("uri")))
    assert scans == [timedim.DEFAULT_WINDOW_SECONDS]
    assert cached.main == uncached.main
    assert cached.secondary == uncached.secondary
    assert cached.trace == uncached.trace


class TestCacheOnStoredWindows:
    """Days 1 and 2 replay day 0: every window's inputs equal day 0's."""

    @staticmethod
    def _updates(engine, day0):
        updates = []
        for day in range(3):
            updates.append(engine.ingest_day(day, day0.trace, day0.whois, day0.redirects))
        engine.close()
        return updates

    @pytest.mark.parametrize(
        "shards, out_of_core",
        [(1, False), (2, False), (1, True)],
        ids=["in-memory", "in-memory-sharded", "out-of-core"],
    )
    def test_replayed_days_reuse_every_dimension(self, three_days, tmp_path, shards, out_of_core):
        day0 = three_days[0]
        full = self._updates(StreamingSmash(window_size=2, incremental=False), day0)
        engine = StreamingSmash(
            window_size=2,
            shards=shards,
            store_dir=tmp_path / "store",
            config=SmashConfig().replace(out_of_core=out_of_core),
        )
        updates = self._updates(engine, day0)
        every = (MAIN_DIMENSION, *SmashConfig().enabled_secondary_dimensions)
        assert updates[0].mined_dimensions == every
        for update in updates[1:]:
            assert update.reused_dimensions == every
            assert update.mined_dimensions == ()
        for update, cold in zip(updates, full):
            assert _doc(update.result) == _doc(cold.result)
            assert update.campaigns == cold.campaigns
            assert [event.to_dict() for event in update.events] == [
                event.to_dict() for event in cold.events
            ]
