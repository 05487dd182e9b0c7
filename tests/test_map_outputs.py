"""Each day partition mapped once: store-resident map outputs.

A store-direct (out-of-core) mine plans one map job per window partition
that has no map output in the :class:`~repro.stream.store.TraceStore`,
moves each verified output into the store keyed by the partition digest
and the extraction settings, and merges the window's outputs in day
order.  Pinned here: a window-2 week maps each day once; a stored output
that is missing, torn or hand-edited is mapped again (and quarantined
when present) with identical results; a resumed stream maps only the
days it never mapped; outputs never cross extraction settings; an
output's bytes do not depend on the job that wrote it; and a reduce
spills no pair counts, on any pool.  Every stream
here must equal the in-memory stream event for event.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os

from pathlib import Path

import pytest

from repro.config import SmashConfig
from repro.core.dispatch import make_dispatcher
from repro.core.pipeline import SmashPipeline
from repro.eval.export import result_to_dict
from repro.obs import MetricsRegistry
from repro.stream import StreamingSmash
from repro.stream.alerts import ListSink
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.store import PartialStore, TraceStore
from repro.stream.window import DayPartition, RollingWindow
from repro.synth.generator import TraceGenerator
from repro.synth.scenarios import small_scenario
from repro.util.parallel import JobPool

JOBS = "pipeline.mine.shard_index"
REUSED = "smash_shard_map_outputs_reused_total"
ALL_DIMENSIONS = ("urifile", "ipset", "whois", "urlparam", "time")


@pytest.fixture(scope="module")
def seven_days():
    return list(TraceGenerator(small_scenario(seed=7, days=7)).iter_days())


@pytest.fixture(scope="module")
def in_memory_week(seven_days):
    return _ingest(StreamingSmash(window_size=2, sinks=(ListSink(),)), seven_days)


def _doc(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def _total(registry: MetricsRegistry, name: str) -> int:
    family = registry.get(name)
    return 0 if family is None else int(sum(child.value for _, child in family.samples()))


def _ingest(engine, days):
    """Campaign docs per day and every event so far (closes nothing)."""
    docs = [_doc(engine.ingest_dataset(day).result) for day in days]
    return docs, [event.to_dict() for event in engine.sinks[0].events]


def _out_of_core(**kwargs) -> SmashConfig:
    return SmashConfig().replace(shards=2, out_of_core=True, dispatch="serial", **kwargs)


def _engine(store_dir, **kwargs) -> StreamingSmash:
    return StreamingSmash(
        window_size=2,
        sinks=(ListSink(),),
        store_dir=store_dir,
        config=_out_of_core(**kwargs),
    )


def _outputs(store_dir, day: int) -> list:
    return sorted(TraceStore(store_dir).map_outputs().root.glob(f"day-{day:05d}-*.json"))


class TestEachDayMappedOnce:
    def test_week_maps_each_day_once(self, seven_days, in_memory_week, tmp_path):
        registry = MetricsRegistry()
        engine = _engine(tmp_path / "store", metrics=registry)
        try:
            assert _ingest(engine, seven_days) == in_memory_week
        finally:
            engine.close()
        # 7 jobs (2 slices of day 0, then 2 partition groups a day: 14
        # before outputs were kept); every later window reuses one.
        assert len(registry.spans_named(JOBS)) == 7
        assert _total(registry, "smash_shard_index_partials_total") == 7
        assert _total(registry, REUSED) == 6
        for day in range(7):
            assert len(_outputs(tmp_path / "store", day)) == 1
        partials = TraceStore(tmp_path / "store").partials_dir()
        assert not partials.exists() or list(partials.iterdir()) == []

    def test_output_bytes_do_not_depend_on_the_job(self, seven_days, tmp_path):
        # Day 1 is the second job of a stream that starts at day 0 and
        # the first job of a stream that starts at day 1.
        for label, days in (("from0", seven_days[:2]), ("from1", seven_days[1:2])):
            engine = _engine(tmp_path / label)
            try:
                _ingest(engine, days)
            finally:
                engine.close()
        (first,) = _outputs(tmp_path / "from0", 1)
        (second,) = _outputs(tmp_path / "from1", 1)
        assert first.name == second.name
        data = first.read_bytes()
        assert data == second.read_bytes()
        assert first.name.endswith(f".{hashlib.sha256(data).hexdigest()}.json")
        assert "shard" not in json.loads(data)


class TestDamagedOutputs:
    @pytest.mark.parametrize("damage", ["corrupt", "truncate", "delete"])
    def test_damaged_output_is_mapped_again(self, seven_days, in_memory_week, tmp_path, damage):
        days = seven_days[:4]
        expected_docs = in_memory_week[0][:4]
        store_dir = tmp_path / "store"
        registry = MetricsRegistry()
        engine = _engine(store_dir, metrics=registry)
        try:
            docs, _ = _ingest(engine, days[:2])
            # The day-2 window would merge day 1's stored output.
            (path,) = _outputs(store_dir, 1)
            original = path.read_bytes()
            if damage == "corrupt":
                path.write_bytes(original.replace(b'"requests":', b'"requests":1', 1))
            elif damage == "truncate":
                path.write_bytes(original[: len(original) // 2])
            else:
                path.unlink()
            more_docs, events = _ingest(engine, days[2:])
        finally:
            engine.close()
        assert docs + more_docs == expected_docs
        assert events == [event for event in in_memory_week[1] if event["day"] <= days[-1].day]
        # Day 1 was mapped twice; the new output has the original bytes.
        assert len(registry.spans_named(JOBS)) == 5
        assert _outputs(store_dir, 1) == [path]
        assert path.read_bytes() == original
        reasons = sorted((store_dir / "maps.quarantine").glob("*/REASON.json"))
        if damage == "delete":
            assert reasons == []
        else:
            (reason,) = reasons
            assert path.name.startswith(json.loads(reason.read_text())["key"])
            assert (reason.parent / path.name).read_bytes() != original


def test_promote_from_another_volume(tmp_path, monkeypatch):
    # A spill directory on another volume than the store cannot be
    # renamed into it: the output is copied beside its final name first.
    source = tmp_path / "spill" / "index-0000.json"
    source.parent.mkdir()
    source.write_bytes(b'{"requests":3}')
    digest = hashlib.sha256(source.read_bytes()).hexdigest()
    replace = os.replace

    def cross_device(src, dst):
        if Path(src) == source:
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", cross_device)
    maps = TraceStore(tmp_path / "store").map_outputs()
    name = maps.promote(source, "day-00000-key", digest)
    assert not source.exists()
    assert maps.find("day-00000-key") == name
    assert maps.load(name, digest) == {"requests": 3}
    assert [entry.name for entry in maps.root.iterdir()] == [f"{name}.json"]


class TestResume:
    def test_resumed_stream_maps_only_unmapped_days(self, seven_days, in_memory_week, tmp_path):
        days = seven_days[:4]
        engine = _engine(tmp_path / "store")
        try:
            docs, events = _ingest(engine, days[:2])
            save_checkpoint(engine, tmp_path / "stream.ckpt")
        finally:
            engine.close()
        registry = MetricsRegistry()
        resumed = load_checkpoint(
            tmp_path / "stream.ckpt",
            config=_out_of_core(metrics=registry),
            sinks=(ListSink(),),
        )
        try:
            more_docs, more_events = _ingest(resumed, days[2:])
        finally:
            resumed.close()
        assert docs + more_docs == in_memory_week[0][:4]
        assert events + more_events == [
            event for event in in_memory_week[1] if event["day"] <= days[-1].day
        ]
        # Days 2 and 3 are mapped; days 1 and 2 are reused by the windows
        # that follow them.
        assert len(registry.spans_named(JOBS)) == 2
        assert _total(registry, REUSED) == 2


class TestExtractionKey:
    @pytest.fixture
    def window(self, seven_days, tmp_path):
        store = TraceStore(tmp_path / "store")
        window = RollingWindow(size=3, store=store)
        for day in seven_days[:3]:
            window.append(DayPartition(day.day, day.trace, day.whois, day.redirects))
        return store, window

    @staticmethod
    def _mine(store, window, config):
        refs = window.partition_refs()
        whois, redirects = window.combined_sidecars()
        pipeline = SmashPipeline(config)
        mined = pipeline.mine(
            None,
            whois=whois,
            partitions=[(ref.day, ref.digest) for ref in refs],
            store_root=store.root,
            shard_boundaries=tuple(store.request_count(ref.day, ref.digest) for ref in refs),
            trace_name="window",
        )
        return _doc(pipeline.finish(mined, redirects))

    def test_outputs_never_cross_extraction_keys(self, window):
        store, window = window
        trace, whois, redirects = window.combined()
        plain = SmashConfig().replace(dispatch="serial")
        wide = plain.replace(enabled_secondary_dimensions=ALL_DIMENSIONS)
        runs = []
        for config in (plain, wide, wide):
            registry = MetricsRegistry()
            doc = self._mine(store, window, config.replace(metrics=registry))
            expected = SmashPipeline(config).run(trace, whois=whois, redirects=redirects)
            assert doc == _doc(expected)
            runs.append((len(registry.spans_named(JOBS)), _total(registry, REUSED)))
        # Outputs made without urlparam/time never serve a mine with
        # them; the second mine with them maps nothing.
        assert runs == [(3, 0), (3, 0), (0, 3)]
        assert all(len(_outputs(store.root, day)) == 2 for day in range(3))


class TestUnspilledReduce:
    @staticmethod
    def _record_puts(monkeypatch) -> list[str]:
        names: list[str] = []
        put = PartialStore.put

        def recording(self, name, payload):
            names.append(name)
            return put(self, name, payload)

        monkeypatch.setattr(PartialStore, "put", recording)
        return names

    @pytest.mark.parametrize("workers, executor", [(1, "thread"), (2, "serial")])
    def test_one_job_at_a_time_writes_no_pair_spill(
        self, seven_days, monkeypatch, workers, executor
    ):
        day = seven_days[0]
        expected = SmashPipeline().run(day.trace, whois=day.whois, redirects=day.redirects)
        names = self._record_puts(monkeypatch)
        config = SmashConfig().replace(shards=3, workers=workers, executor=executor)
        result = SmashPipeline(config).run(day.trace, whois=day.whois, redirects=day.redirects)
        assert _doc(result) == _doc(expected)
        assert [name for name in names if name.startswith("index-")]
        assert [name for name in names if name.startswith("pairs-")] == []

    def test_parallel_pool_spills_no_pair_partial(self, seven_days, monkeypatch):
        # Pair counting runs inside each dimension job on every pool:
        # only the map phase spills.
        day = seven_days[0]
        expected = SmashPipeline().run(day.trace, whois=day.whois, redirects=day.redirects)
        names = self._record_puts(monkeypatch)
        config = SmashConfig().replace(shards=5, workers=2, executor="thread")
        result = SmashPipeline(config).run(day.trace, whois=day.whois, redirects=day.redirects)
        assert _doc(result) == _doc(expected)
        assert [name for name in names if name.startswith("index-")]
        assert [name for name in names if name.startswith("pairs-")] == []


@pytest.mark.parametrize("kind", ["serial", "pool", "subprocess"])
def test_dispatcher_runs_an_empty_batch(kind, monkeypatch):
    import repro.core.dispatch as dispatch_module

    def no_process(*args, **kwargs):
        raise AssertionError("an empty batch started a worker")

    monkeypatch.setattr(dispatch_module.subprocess, "Popen", no_process)
    with JobPool(workers=2, executor="thread") as pool:
        dispatcher = make_dispatcher(kind, pool=pool, workers=2)
        try:
            assert dispatcher.run([]) == []
        finally:
            dispatcher.close()
