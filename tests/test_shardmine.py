"""Sharded map-reduce mine == single-shard mine, byte for byte.

The mine path has a shard-parallel preprocess (:mod:`repro.core.shardmine`):
per-shard index extraction against the namespace-stable
:class:`~repro.core.interning.StableInterner` and spill-to-store
partials, merged deterministically into the prepared trace that the
pipeline's one dimension stage (graph → Louvain) mines.  The mode's
contract is that ``--shards N`` output is **byte-identical** to the
single-shard mine for every shard count and every ``PYTHONHASHSEED`` —
the in-process classes below pin each mechanism (shard planning, stable
interning, spill verification, prepared-trace assembly), and the
subprocess matrix at the bottom enforces the end-to-end property the
way :mod:`tests.test_determinism` does for the single-shard core.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from pathlib import Path

import pytest

from repro.config import SmashConfig
from repro.core.interning import StableInterner, stable_label_id
from repro.core.pipeline import DimensionCache, SmashPipeline
from repro.core.shardmine import IndexOnlyTrace, run_shard_job, shard_ranges
from repro.errors import ConfigError, PipelineError, StreamError
from repro.eval.export import result_to_dict
from repro.stream import StreamingSmash
from repro.stream.store import PartialStore, TraceStore
from repro.synth.generator import TraceGenerator
from repro.synth.scenarios import small_scenario
from repro.util.parallel import JobPool

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Shard counts from the acceptance criteria: trivial, even, and a prime
#: that never divides the request count evenly.
SHARD_COUNTS = (1, 2, 7)
HASH_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def dataset():
    return TraceGenerator(small_scenario(seed=7)).generate_day(0)


def result_doc(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


# -- shard planning -----------------------------------------------------------------


class TestShardRanges:
    def test_even_split_covers_contiguously(self):
        ranges = shard_ranges(10, 3)
        assert ranges == [(0, 3), (3, 6), (6, 10)]
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_more_shards_than_requests_clamps(self):
        assert shard_ranges(2, 7) == [(0, 1), (1, 2)]

    def test_empty_trace(self):
        assert shard_ranges(0, 4) == []

    def test_single_shard(self):
        assert shard_ranges(5, 1) == [(0, 5)]

    def test_day_boundaries_align_cuts(self):
        # 3 days of 10/20/30 requests into 2 shards: cuts fall only on
        # day edges, never mid-day.
        assert shard_ranges(60, 2, boundaries=(10, 20, 30)) == [(0, 10), (10, 60)]

    def test_fewer_days_than_shards_yields_day_shards(self):
        assert shard_ranges(30, 5, boundaries=(10, 20)) == [(0, 10), (10, 30)]

    def test_mismatched_boundaries_fall_back_to_even_split(self):
        # Boundaries that do not sum to the trace length are stale
        # (e.g. a filtered trace) — ignore them rather than mis-cut.
        assert shard_ranges(10, 2, boundaries=(3, 3)) == shard_ranges(10, 2)

    def test_config_rejects_non_positive_shards(self):
        with pytest.raises(ConfigError):
            SmashConfig().replace(shards=0).validate()


# -- namespace-stable interning -----------------------------------------------------


class TestStableInterner:
    def test_ids_agree_across_independent_instances(self):
        labels = ["alpha.example", "beta.example", "gamma.example"]
        one, two = StableInterner(), StableInterner()
        first = [one.intern(label) for label in labels]
        second = [two.intern(label) for label in reversed(labels)]
        assert first == list(reversed(second))
        assert first == [stable_label_id(label) for label in labels]

    def test_merge_unions_disjoint_and_overlapping_vocabularies(self):
        one, two = StableInterner(), StableInterner()
        one.intern("a.example")
        one.intern("b.example")
        two.intern("b.example")
        two.intern("c.example")
        one.merge(two.to_dict())
        assert sorted(one.to_dict().values()) == ["a.example", "b.example", "c.example"]

    def test_merge_collision_raises(self):
        interner = StableInterner()
        sid = interner.intern("a.example")
        with pytest.raises(PipelineError, match="collision"):
            interner.merge({sid: "b.example"})

    def test_intern_collision_raises(self, monkeypatch):
        import repro.core.interning as interning

        monkeypatch.setattr(interning, "stable_label_id", lambda label: 42)
        interner = StableInterner()
        interner.intern("a.example")
        with pytest.raises(PipelineError, match="collision"):
            interner.intern("b.example")

    def test_to_interner_is_dense_and_canonical(self):
        interner = StableInterner()
        for label in ("zz.example", "aa.example", "mm.example"):
            interner.intern(label)
        dense = interner.to_interner()
        assert [dense.label_of(i) for i in range(3)] == ["aa.example", "mm.example", "zz.example"]


# -- spill store --------------------------------------------------------------------


class TestPartialStore:
    def test_put_load_roundtrip(self, tmp_path):
        store = PartialStore(tmp_path / "spill")
        payload = {"counts": [[1, 2]], "nested": {"a": 1}}
        digest, spilled = store.put("index-0000", payload)
        assert spilled == store.path_of("index-0000").stat().st_size
        assert store.load("index-0000", digest) == payload

    def test_corrupt_partial_raises(self, tmp_path):
        store = PartialStore(tmp_path / "spill")
        digest, _ = store.put("index-0000", {"counts": []})
        path = store.path_of("index-0000")
        path.write_bytes(path.read_bytes() + b" ")
        with pytest.raises(StreamError, match="corrupt"):
            store.load("index-0000", digest)

    def test_missing_partial_raises(self, tmp_path):
        store = PartialStore(tmp_path / "spill")
        with pytest.raises(StreamError, match="missing"):
            store.load("index-9999", "0" * 64)

    def test_delete_and_cleanup(self, tmp_path):
        store = PartialStore(tmp_path / "spill")
        store.put("pairs-client-0000", {"counts": []})
        store.delete("pairs-client-0000")
        store.delete("pairs-client-0000")  # idempotent
        store.cleanup()
        assert not (tmp_path / "spill").exists()


# -- shared pool --------------------------------------------------------------------


class TestJobPool:
    def test_serial_run_preserves_job_order(self):
        with JobPool(workers=1) as pool:
            assert not pool.parallel
            assert pool.run([lambda i=i: i * i for i in range(5)]) == [0, 1, 4, 9, 16]

    def test_pool_reused_across_batches(self):
        with JobPool(workers=2, executor="thread") as pool:
            first = pool.run([lambda: "a", lambda: "b"])
            second = pool.run([lambda: "c"])
        assert first == ["a", "b"]
        assert second == ["c"]

    def test_empty_batch(self):
        with JobPool(workers=2, executor="thread") as pool:
            assert pool.run([]) == []


# -- mine / run equivalence ---------------------------------------------------------


class TestMineEquivalence:
    def test_mined_dimensions_equal_single_shard(self, dataset):
        pipeline = SmashPipeline()
        base = pipeline.mine(dataset.trace, whois=dataset.whois)
        sharded = pipeline.mine(dataset.trace, whois=dataset.whois, shards=3)
        assert sharded.trace.name == base.trace.name
        assert sharded.trace.requests == base.trace.requests
        assert sharded.preprocess_report == base.preprocess_report
        # The injected inverted indexes must equal the lazily-built ones.
        assert sharded.trace.clients_by_server == base.trace.clients_by_server
        assert sharded.trace.ips_by_server == base.trace.ips_by_server
        assert sharded.trace.files_by_server == base.trace.files_by_server
        assert sharded.trace.servers_by_client == base.trace.servers_by_client
        assert sharded.trace.servers == base.trace.servers
        assert sharded.main == base.main
        assert sharded.secondary == base.secondary
        assert sharded.interner is not None
        assert sharded.interner.labels == base.interner.labels

    @pytest.mark.parametrize("shards", SHARD_COUNTS[1:])
    def test_run_byte_identical(self, dataset, shards):
        kwargs = dict(whois=dataset.whois, redirects=dataset.redirects)
        base = SmashPipeline().run(dataset.trace, **kwargs)
        config = SmashConfig().replace(shards=shards)
        sharded = SmashPipeline(config).run(dataset.trace, **kwargs)
        assert result_doc(sharded) == result_doc(base)
        assert sharded.scores == base.scores  # raw floats, not rounded
        assert sharded.campaigns == base.campaigns

    def test_all_dimensions_enabled_byte_identical(self, dataset):
        config = SmashConfig(
            enabled_secondary_dimensions=("urifile", "ipset", "whois", "urlparam", "time")
        )
        kwargs = dict(whois=dataset.whois, redirects=dataset.redirects)
        base = SmashPipeline(config).run(dataset.trace, **kwargs)
        sharded = SmashPipeline(config.replace(shards=3)).run(dataset.trace, **kwargs)
        assert result_doc(sharded) == result_doc(base)

    def test_process_executor_byte_identical(self, dataset):
        kwargs = dict(whois=dataset.whois, redirects=dataset.redirects)
        base = SmashPipeline().run(dataset.trace, **kwargs)
        config = SmashConfig().replace(shards=3, workers=2, executor="process")
        sharded = SmashPipeline(config).run(dataset.trace, **kwargs)
        assert result_doc(sharded) == result_doc(base)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_out_of_core_byte_identical(self, dataset, shards):
        kwargs = dict(whois=dataset.whois, redirects=dataset.redirects)
        base = SmashPipeline().run(dataset.trace, **kwargs)
        config = SmashConfig().replace(shards=shards, out_of_core=True)
        hollow = SmashPipeline(config).run(dataset.trace, **kwargs)
        assert result_doc(hollow) == result_doc(base)

    def test_subprocess_dispatch_byte_identical(self, dataset):
        kwargs = dict(whois=dataset.whois, redirects=dataset.redirects)
        base = SmashPipeline().run(dataset.trace, **kwargs)
        config = SmashConfig().replace(shards=2, dispatch="subprocess")
        dispatched = SmashPipeline(config).run(dataset.trace, **kwargs)
        assert result_doc(dispatched) == result_doc(base)

    def test_out_of_core_trace_is_index_only(self, dataset):
        config = SmashConfig().replace(shards=2, out_of_core=True)
        mined = SmashPipeline(config).mine(dataset.trace, whois=dataset.whois)
        assert isinstance(mined.trace, IndexOnlyTrace)
        base = SmashPipeline().mine(dataset.trace, whois=dataset.whois)
        assert len(mined.trace) == len(base.trace)
        assert mined.trace.servers == base.trace.servers
        assert mined.trace.clients_by_server == base.trace.clients_by_server
        with pytest.raises(PipelineError, match="index-only"):
            mined.trace.requests  # noqa: B018 - the access itself is the test
        with pytest.raises(PipelineError, match="index-only"):
            list(mined.trace)
        with pytest.raises(PipelineError, match="index-only"):
            mined.trace.requests_by_server("whatever.example")

    def test_dimension_cache_interop(self, dataset):
        # Signatures are computed on the assembled prepared trace, so a
        # sharded mine must hit the cache entries a single-shard mine
        # wrote — and vice versa.
        pipeline = SmashPipeline()
        cache = DimensionCache()
        base = pipeline.mine(dataset.trace, whois=dataset.whois, cache=cache)
        assert cache.last_mined  # first mine populated the cache
        sharded = pipeline.mine(dataset.trace, whois=dataset.whois, cache=cache, shards=3)
        assert not cache.last_mined  # everything reused
        expected = {"client", *pipeline.config.enabled_secondary_dimensions}
        assert set(cache.last_reused) == expected
        assert sharded.main == base.main
        assert sharded.secondary == base.secondary


# -- worker memory accounting -------------------------------------------------------


class TestWorkerPeakRss:
    def test_subprocess_workers_report_their_own_peak(self, dataset):
        """A worker's peak is its own VmHWM, not the coordinator's high-water mark.

        ``ru_maxrss`` of a vfork+exec child starts at its parent's peak, so
        with ~100 MB of touched ballast in the coordinator it would read at
        least the coordinator's VmHWM for every worker.
        """
        from repro.obs import MetricsRegistry
        from repro.util.memory import peak_rss_kb

        ballast = b"\x01" * (100 << 20)
        coordinator_kb = peak_rss_kb()
        registry = MetricsRegistry()
        config = SmashConfig().replace(shards=2, dispatch="subprocess", metrics=registry)
        SmashPipeline(config).mine(dataset.trace, whois=dataset.whois)
        assert len(ballast) == 100 << 20
        del ballast
        peaks = [
            span.attributes["worker_peak_rss_kb"]
            for span in registry.spans
            if span.name == "pipeline.mine.shard_index"
        ]
        assert len(peaks) == 2
        assert all(0 < peak < coordinator_kb for peak in peaks), (peaks, coordinator_kb)

    def test_shard_probe_reports_the_workers_peak(self, dataset, tmp_path, monkeypatch):
        """``smash bench --suite sharded`` rows carry the workers' own VmHWM.

        Run in-process with the VmHWM reset stubbed out, so nothing is
        written under ``/proc``; the children's ``ru_maxrss`` would read
        at least this process's peak.
        """
        from repro.eval import shardprobe
        from repro.stream.window import DayPartition
        from repro.util.memory import peak_rss_kb

        monkeypatch.setattr(shardprobe, "_reset_peak_rss", lambda: False)
        store = TraceStore(tmp_path / "store")
        ref = store.put(DayPartition(0, dataset.trace, dataset.whois, dataset.redirects))
        ballast = b"\x01" * (100 << 20)
        spec = {
            "store_root": str(store.root),
            "day": ref.day,
            "digest": ref.digest,
            "shards": 2,
            "workers": 1,
            "executor": "serial",
            "dispatch": "subprocess",
            "out_of_core": True,
        }
        # Rows share the store: the second must map its day again, not
        # merge the map output the first one kept.
        rows = [shardprobe.run_probe(spec) for _ in range(2)]
        assert len(ballast) == 100 << 20
        del ballast
        for row in rows:
            assert 0 < row["worker_peak_rss_kb"] < peak_rss_kb(), row
            assert "children_peak_rss_kb" not in row


# -- store-direct shard jobs --------------------------------------------------------


def _job_common(spill_root) -> dict:
    return {
        "shard": 0,
        "aggregate": True,
        "want_patterns": False,
        "want_windows": False,
        "want_referrers": False,
        "window_seconds": 600.0,
        "spill_root": str(spill_root),
    }


class TestStoreDirectMine:
    @pytest.fixture(scope="class")
    def window_store(self, tmp_path_factory):
        from repro.stream.store import TraceStore
        from repro.stream.window import DayPartition, RollingWindow

        root = tmp_path_factory.mktemp("storedirect")
        store = TraceStore(root / "store")
        window = RollingWindow(size=3, store=store)
        generator = TraceGenerator(small_scenario(seed=7, days=3))
        datasets = list(generator.iter_days())
        for dataset in datasets:
            window.append(
                DayPartition(
                    day=dataset.day,
                    trace=dataset.trace,
                    whois=dataset.whois,
                    redirects=dataset.redirects,
                )
            )
        return store, window

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_in_memory_mine(self, window_store, shards):
        store, window = window_store
        trace, whois, redirects = window.combined()
        base = SmashPipeline().run(trace, whois=whois, redirects=redirects)

        refs = window.partition_refs()
        side_whois, side_redirects = window.combined_sidecars()
        pipe = SmashPipeline(SmashConfig().replace(shards=shards))
        mined = pipe.mine(
            None,
            whois=side_whois,
            partitions=[(ref.day, ref.digest) for ref in refs],
            store_root=store.root,
            shard_boundaries=tuple(
                store.request_count(ref.day, ref.digest) for ref in refs
            ),
            trace_name=trace.name,
            spill_dir=store.partials_dir(),
        )
        result = pipe.finish(mined, redirects=side_redirects)
        assert result_doc(result) == result_doc(base)
        assert isinstance(mined.trace, IndexOnlyTrace)
        assert mined.preprocess_report.raw_requests == len(trace)

    def test_trace_none_requires_store_inputs(self):
        with pytest.raises(PipelineError, match="store-direct"):
            SmashPipeline().mine(None)

    def test_missing_partition_is_stream_error(self, window_store, tmp_path):
        store, _ = window_store
        spec = {
            **_job_common(tmp_path / "spill"),
            "source": {
                "kind": "store",
                "root": str(store.root),
                "partitions": [[999, "0" * 64]],
            },
        }
        with pytest.raises(StreamError, match="has no partition"):
            run_shard_job(spec)

    def test_corrupt_partition_is_stream_error(self, tmp_path):
        from repro.stream.store import TraceStore
        from repro.stream.window import DayPartition

        dataset = TraceGenerator(small_scenario(seed=7)).generate_day(0)
        store = TraceStore(tmp_path / "store")
        ref = store.put(DayPartition(day=0, trace=dataset.trace))
        trace_file = store.path_of(0, ref.digest) / "trace.jsonl"
        lines = trace_file.read_text().splitlines(keepends=True)
        trace_file.write_text("".join(lines[:-1]))  # truncate: digest breaks
        spec = {
            **_job_common(tmp_path / "spill"),
            "source": {
                "kind": "store",
                "root": str(store.root),
                "partitions": [[0, ref.digest]],
            },
        }
        with pytest.raises(StreamError, match="corrupt partition"):
            run_shard_job(spec)

    def test_corrupt_spilled_input_is_stream_error(self, tmp_path):
        spill = PartialStore(tmp_path / "spill")
        digest, _ = spill.put("input-0000", {"requests": []})
        path = spill.path_of("input-0000")
        path.write_bytes(path.read_bytes() + b" ")
        spec = {
            **_job_common(tmp_path / "spill"),
            "source": {
                "kind": "spill",
                "root": str(tmp_path / "spill"),
                "name": "input-0000",
                "digest": digest,
                "trace_name": "t",
            },
        }
        with pytest.raises(StreamError, match="corrupt spilled partial"):
            run_shard_job(spec)

    def test_subprocess_worker_surfaces_stream_error(self, window_store, tmp_path):
        # A worker-side StreamError must cross the subprocess boundary
        # and re-raise as a coordinator-side StreamError.
        from repro.core.dispatch import SubprocessDispatcher

        store, _ = window_store
        spec = {
            **_job_common(tmp_path / "spill"),
            "source": {
                "kind": "store",
                "root": str(store.root),
                "partitions": [[999, "0" * 64]],
            },
        }
        dispatcher = SubprocessDispatcher(workers=1)
        try:
            with pytest.raises(StreamError, match="has no partition"):
                dispatcher.run([spec])
        finally:
            dispatcher.close()


# -- spill-directory garbage collection ---------------------------------------------


class TestGcOrphans:
    @staticmethod
    def _plant(parent: Path, name: str, pid: int | None, age_seconds: float) -> Path:
        import time

        path = parent / name
        path.mkdir(parents=True)
        if pid is not None:
            (path / PartialStore.OWNER_NAME).write_text(f"{pid}\n")
        stamp = time.time() - age_seconds
        os.utime(path, (stamp, stamp))
        return path

    @staticmethod
    def _dead_pid() -> int:
        process = subprocess.Popen([sys.executable, "-c", "pass"])
        process.wait()
        return process.pid

    def test_stale_dead_owner_removed(self, tmp_path):
        stale = self._plant(tmp_path, "mine-stale", self._dead_pid(), 3600.0)
        removed = PartialStore.gc_orphans(tmp_path)
        assert removed == [stale]
        assert not stale.exists()

    def test_unclaimed_stale_dir_removed(self, tmp_path):
        # A coordinator that crashed before claim() leaves no OWNER file;
        # age alone must be enough to collect it.
        stale = self._plant(tmp_path, "mine-unclaimed", None, 3600.0)
        assert PartialStore.gc_orphans(tmp_path) == [stale]

    def test_fresh_dir_kept(self, tmp_path):
        fresh = self._plant(tmp_path, "mine-fresh", self._dead_pid(), 1.0)
        assert PartialStore.gc_orphans(tmp_path) == []
        assert fresh.exists()

    def test_live_owner_kept_regardless_of_age(self, tmp_path):
        live = self._plant(tmp_path, "mine-live", os.getpid(), 3600.0)
        assert PartialStore.gc_orphans(tmp_path) == []
        assert live.exists()

    def test_non_mine_dirs_untouched(self, tmp_path):
        other = self._plant(tmp_path, "day-00001-abc", None, 3600.0)
        assert PartialStore.gc_orphans(tmp_path) == []
        assert other.exists()

    def test_sharded_mine_collects_planted_orphan(self, dataset, tmp_path):
        # End to end: a stale orphan under the spill parent disappears as
        # a side effect of the next sharded mine over the same parent.
        stale = self._plant(tmp_path, "mine-crashed", self._dead_pid(), 3600.0)
        config = SmashConfig().replace(shards=2)
        SmashPipeline(config).mine(
            dataset.trace, whois=dataset.whois, spill_dir=tmp_path
        )
        assert not stale.exists()
        # ...and the mine's own spill root is gone too (normal cleanup).
        assert list(tmp_path.glob("mine-*")) == []

    def test_quarantine_dirs_never_collected(self, tmp_path):
        # Quarantined evidence matches the mine-* glob but holds the only
        # record of what a failed attempt spilled: the collector must skip
        # it no matter how stale or ownerless it looks.
        evidence = self._plant(
            tmp_path, "mine-dead.quarantine", self._dead_pid(), 3600.0
        )
        (evidence / "REASON.json").write_text("{}")
        stale = self._plant(tmp_path, "mine-dead", self._dead_pid(), 3600.0)
        assert PartialStore.gc_orphans(tmp_path) == [stale]
        assert evidence.exists()
        assert (evidence / "REASON.json").exists()


class TestPartialStoreConcurrency:
    def test_concurrent_coordinator_claims_leave_valid_owner(self, tmp_path):
        # Two coordinators racing claim() on the same root (a crashed
        # mine restarted while its predecessor's claim still writes) must
        # leave a parseable OWNER file naming one of them — never torn
        # bytes that would break _owner_alive's pid check.
        root = tmp_path / "spill"
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from repro.stream.store import PartialStore\n"
            "import os\n"
            "store = PartialStore(sys.argv[1])\n"
            "for _ in range(50):\n"
            "    store.claim()\n"
            "print(os.getpid())\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(SRC_DIR)],
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(3)
        ]
        pids = {int(proc.communicate(timeout=60)[0].strip()) for proc in procs}
        assert all(proc.returncode == 0 for proc in procs)
        owner = int((root / PartialStore.OWNER_NAME).read_text().strip())
        assert owner in pids

    def test_concurrent_puts_never_publish_torn_bytes(self, tmp_path):
        # Racing workers spilling the same name (a retried shard whose
        # first attempt was merely slow, not dead) finalise via tmp +
        # os.replace: whichever write wins, the published file is one
        # complete payload whose digest one of the winners reported.
        from concurrent.futures import ThreadPoolExecutor

        import hashlib

        store = PartialStore(tmp_path / "spill")
        payloads = [{"worker": i, "rows": list(range(2000))} for i in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            digests = set(
                pool.map(lambda p: store.put("index-0000", p)[0], payloads)
            )
        data = store.path_of("index-0000").read_bytes()
        assert hashlib.sha256(data).hexdigest() in digests
        assert isinstance(json.loads(data), dict)
        # No abandoned .tmp files once every put has finalised.
        assert list(store.root.glob("*.tmp-*")) == []


# -- window / store helpers for the out-of-core path --------------------------------


class TestOutOfCoreWindowHelpers:
    def test_request_count_reads_manifest_only(self, tmp_path, dataset):
        from repro.stream.store import TraceStore
        from repro.stream.window import DayPartition

        store = TraceStore(tmp_path / "store")
        ref = store.put(DayPartition(day=0, trace=dataset.trace))
        assert store.request_count(0, ref.digest) == len(dataset.trace)
        with pytest.raises(StreamError, match="has no partition"):
            store.request_count(1, ref.digest)

    def test_partition_refs_requires_store(self, dataset):
        from repro.stream.window import DayPartition, RollingWindow

        window = RollingWindow(size=1)
        window.append(DayPartition(day=0, trace=dataset.trace))
        with pytest.raises(StreamError, match="needs a trace store"):
            window.partition_refs()

    def test_combined_sidecars_match_combined(self, tmp_path):
        from repro.stream.store import TraceStore
        from repro.stream.window import (
            DayPartition,
            RollingWindow,
            redirects_to_dict,
            whois_to_list,
        )

        store = TraceStore(tmp_path / "store")
        window = RollingWindow(size=3, store=store)
        for dataset in TraceGenerator(small_scenario(seed=7, days=3)).iter_days():
            window.append(
                DayPartition(
                    day=dataset.day,
                    trace=dataset.trace,
                    whois=dataset.whois,
                    redirects=dataset.redirects,
                )
            )
        side_whois, side_redirects = window.combined_sidecars()
        _, whois, redirects = window.combined()
        assert whois_to_list(side_whois) == whois_to_list(whois)
        assert redirects_to_dict(side_redirects) == redirects_to_dict(redirects)


# -- streaming ----------------------------------------------------------------------


class TestStreamEquivalence:
    @staticmethod
    def _stream_three_days(tmp_path, label: str, shards: int):
        store_dir = tmp_path / f"store_{label}"
        engine = StreamingSmash(window_size=2, shards=shards, store_dir=store_dir)
        generator = TraceGenerator(small_scenario(seed=7, days=3))
        docs = []
        for dataset in generator.iter_days():
            update = engine.ingest_dataset(dataset)
            docs.append(result_doc(update.result))
        engine.close()
        return docs, store_dir

    def test_store_backed_stream_byte_identical_and_spill_cleaned(self, tmp_path):
        base_docs, _ = self._stream_three_days(tmp_path, "base", 1)
        sharded_docs, store_dir = self._stream_three_days(tmp_path, "sharded", 4)
        assert sharded_docs == base_docs
        # Partials spill under the store but are transient per-mine
        # state: nothing may survive the mine that wrote it.
        partials = TraceStore(store_dir).partials_dir()
        assert not partials.exists() or list(partials.iterdir()) == []

    def test_out_of_core_stream_byte_identical_and_spill_cleaned(self, tmp_path):
        base_docs, _ = self._stream_three_days(tmp_path, "base", 1)
        config = SmashConfig().replace(out_of_core=True)
        store_dir = tmp_path / "store_ooc"
        engine = StreamingSmash(
            window_size=2, shards=4, store_dir=store_dir, config=config
        )
        docs = []
        for dataset in TraceGenerator(small_scenario(seed=7, days=3)).iter_days():
            docs.append(result_doc(engine.ingest_dataset(dataset).result))
        # rerun_at must work without ever materialising the window.
        rerun = result_doc(engine.rerun_at(0.8))
        engine.close()
        assert docs == base_docs
        assert rerun == docs[-1]
        partials = TraceStore(store_dir).partials_dir()
        assert not partials.exists() or list(partials.iterdir()) == []

    def test_out_of_core_stream_requires_store(self):
        with pytest.raises(StreamError, match="trace store"):
            StreamingSmash(
                window_size=2, config=SmashConfig().replace(out_of_core=True)
            )


class TestOutOfCoreSidecars:
    """The out-of-core coordinator reads no partition back for its sidecars.

    A store reference keeps the whois/redirect sidecars of a partition it
    once held, so the window's sidecars never cost a ``store.get`` in the
    coordinator; a resumed window reads each restored partition once.
    """

    @pytest.fixture(scope="class")
    def four_days(self):
        return list(TraceGenerator(small_scenario(seed=7, days=4)).iter_days())

    @staticmethod
    def _ingest(engine, days):
        docs = [result_doc(engine.ingest_dataset(day).result) for day in days]
        return docs, [event.to_dict() for event in engine.sinks[0].events]

    @staticmethod
    def _out_of_core(**kwargs) -> SmashConfig:
        return SmashConfig().replace(shards=2, out_of_core=True, dispatch="serial", **kwargs)

    def test_fresh_stream_never_reads_the_store(self, four_days, tmp_path):
        from repro.obs import MetricsRegistry
        from repro.stream.alerts import ListSink

        expected = self._ingest(StreamingSmash(window_size=2, sinks=(ListSink(),)), four_days)
        registry = MetricsRegistry()
        engine = StreamingSmash(
            window_size=2,
            sinks=(ListSink(),),
            store_dir=tmp_path / "store",
            config=self._out_of_core(metrics=registry),
        )
        assert self._ingest(engine, four_days) == expected
        assert registry.spans_named("store.put")
        assert registry.spans_named("store.get") == []

    def test_resumed_stream_reads_each_partition_once(self, four_days, tmp_path):
        from repro.obs import MetricsRegistry
        from repro.stream.alerts import ListSink
        from repro.stream.checkpoint import load_checkpoint, save_checkpoint

        expected = self._ingest(StreamingSmash(window_size=2, sinks=(ListSink(),)), four_days)
        engine = StreamingSmash(
            window_size=2,
            sinks=(ListSink(),),
            store_dir=tmp_path / "store",
            config=self._out_of_core(),
        )
        docs, events = self._ingest(engine, four_days[:2])
        save_checkpoint(engine, tmp_path / "stream.ckpt")
        registry = MetricsRegistry()
        resumed = load_checkpoint(
            tmp_path / "stream.ckpt",
            config=self._out_of_core(),
            sinks=(ListSink(),),
            metrics=registry,
        )
        more_docs, more_events = self._ingest(resumed, four_days[2:])
        assert (docs + more_docs, events + more_events) == expected
        # Day 1 is the only restored partition still in the window after
        # day 2 arrives; day 0 is evicted unread.
        reads = [span.attributes["day"] for span in registry.spans_named("store.get")]
        assert reads == [1]


# -- subprocess matrix: hash seeds x shard counts -----------------------------------
#
# In-process tests cannot vary PYTHONHASHSEED (one interpreter has one
# hash seed), so the end-to-end acceptance criterion — `--shards N` is
# byte-identical under *any* hash seed — runs the CLI in pinned
# subprocesses, mirroring tests/test_determinism.py.


def _run_python(args: list[str], hash_seed: int, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, (
        f"subprocess failed under PYTHONHASHSEED={hash_seed}:\n"
        f"{completed.stdout}\n{completed.stderr}"
    )
    return completed.stdout


@pytest.fixture(scope="module")
def day_dir(tmp_path_factory) -> Path:
    target = tmp_path_factory.mktemp("shardmine") / "day0"
    _run_python(
        ["-m", "repro", "generate", "--scenario", "small", "--out", str(target)],
        hash_seed=0,
        cwd=target.parent,
    )
    return target


def test_run_is_shard_and_seed_invariant(day_dir: Path, tmp_path: Path) -> None:
    """`repro run --shards N` writes byte-identical campaign JSON for
    every (shard count, hash seed) combination."""
    outputs: dict[tuple[int, int], bytes] = {}
    for shards in SHARD_COUNTS:
        for seed in HASH_SEEDS if shards > 1 else HASH_SEEDS[:1]:
            out = tmp_path / f"campaigns_{shards}_{seed}.json"
            _run_python(
                [
                    "-m",
                    "repro",
                    "run",
                    "--trace",
                    str(day_dir / "trace.jsonl"),
                    "--whois",
                    str(day_dir / "whois.json"),
                    "--redirects",
                    str(day_dir / "redirects.json"),
                    "--shards",
                    str(shards),
                    "--out",
                    str(out),
                ],
                hash_seed=seed,
                cwd=tmp_path,
            )
            outputs[(shards, seed)] = out.read_bytes()
    baseline = outputs[(1, HASH_SEEDS[0])]
    assert b'"campaigns"' in baseline
    for key, produced in outputs.items():
        assert produced == baseline, f"campaign JSON diverged for (shards, seed)={key}"


def test_run_out_of_core_and_dispatch_seed_invariant(
    day_dir: Path, tmp_path: Path
) -> None:
    """The out-of-core reduce and the subprocess dispatcher keep the
    byte-identity property across shard counts and hash seeds."""
    base = tmp_path / "campaigns_base.json"
    _run_python(
        [
            "-m",
            "repro",
            "run",
            "--trace",
            str(day_dir / "trace.jsonl"),
            "--whois",
            str(day_dir / "whois.json"),
            "--redirects",
            str(day_dir / "redirects.json"),
            "--out",
            str(base),
        ],
        hash_seed=HASH_SEEDS[0],
        cwd=tmp_path,
    )
    baseline = base.read_bytes()
    assert b'"campaigns"' in baseline

    variants: list[tuple[str, int, list[str]]] = []
    for shards, seed in zip(SHARD_COUNTS, HASH_SEEDS):
        variants.append((f"ooc_{shards}", seed, ["--shards", str(shards), "--out-of-core"]))
    variants.append(("subproc", HASH_SEEDS[1], ["--shards", "2", "--dispatch", "subprocess"]))
    variants.append(
        (
            "subproc_ooc",
            HASH_SEEDS[2],
            ["--shards", "2", "--dispatch", "subprocess", "--out-of-core"],
        )
    )
    for label, seed, flags in variants:
        out = tmp_path / f"campaigns_{label}.json"
        _run_python(
            [
                "-m",
                "repro",
                "run",
                "--trace",
                str(day_dir / "trace.jsonl"),
                "--whois",
                str(day_dir / "whois.json"),
                "--redirects",
                str(day_dir / "redirects.json"),
                *flags,
                "--out",
                str(out),
            ],
            hash_seed=seed,
            cwd=tmp_path,
        )
        assert out.read_bytes() == baseline, f"campaign JSON diverged for {label}"


def test_stream_is_shard_and_seed_invariant(tmp_path: Path) -> None:
    """A 3-day `repro stream --shards N` (window 2, store-backed) writes
    byte-identical summary and campaign JSON at any seed."""
    outputs: dict[tuple[str, int, int], bytes] = {}
    matrix = [("", 1, HASH_SEEDS[0])] + [
        ("", shards, seed) for shards, seed in zip(SHARD_COUNTS[1:], HASH_SEEDS[1:])
    ]
    # The out-of-core stream (store-direct map jobs + streaming reduce)
    # must land on the same bytes, at yet another seed.
    matrix.append(("ooc", 4, HASH_SEEDS[2]))
    for mode, shards, seed in matrix:
        label = f"{mode}{shards}_{seed}"
        summary = tmp_path / f"summary_{label}.json"
        campaigns = tmp_path / f"campaigns_{label}.json"
        _run_python(
            [
                "-m",
                "repro",
                "stream",
                "--scenario",
                "small",
                "--days",
                "3",
                "--window",
                "2",
                "--store",
                str(tmp_path / f"store_{label}"),
                "--shards",
                str(shards),
                *(["--out-of-core"] if mode == "ooc" else []),
                "--out",
                str(summary),
                "--campaigns-out",
                str(campaigns),
            ],
            hash_seed=seed,
            cwd=tmp_path,
        )
        outputs[(mode, shards, seed)] = (
            summary.read_bytes() + b"\n--\n" + campaigns.read_bytes()
        )
    baseline = outputs[matrix[0]]
    assert b'"campaigns"' in baseline
    for key, produced in outputs.items():
        assert produced == baseline, f"stream JSON diverged for (mode, shards, seed)={key}"
