"""On-disk trace store: partition round-trips, content addressing,
corruption detection, store-backed windows and metadata checkpoints."""

import json
import shutil

import pytest

from repro.errors import StreamError
from repro.httplog.records import HttpRequest
from repro.httplog.trace import HttpTrace
from repro.stream import (
    CHECKPOINT_VERSION,
    DayPartition,
    PartitionRef,
    RollingWindow,
    StreamingSmash,
    TraceStore,
    load_checkpoint,
    partition_digest,
    save_checkpoint,
)
from repro.synth import TraceGenerator, small_scenario
from repro.synth.oracles import RedirectOracle
from repro.whois.record import WhoisRecord
from repro.whois.registry import WhoisRegistry


def request(client, host, uri="/x.html", timestamp=0.0):
    return HttpRequest(
        timestamp=timestamp, client=client, host=host, server_ip="1.1.1.1", uri=uri
    )


def partition(day, hosts, whois=None, redirects=None):
    trace = HttpTrace(
        [request(f"c{day}", host) for host in hosts], name=f"day{day}"
    )
    return DayPartition(day=day, trace=trace, whois=whois, redirects=redirects)


def rich_partition(day=3):
    """A partition exercising every sidecar."""
    whois = WhoisRegistry([WhoisRecord(domain="a.com", registrant="r")])
    redirects = RedirectOracle(landing_of={"a.com": "land.com"})
    return partition(day, ["a.com", "b.com"], whois=whois, redirects=redirects)


class TestTraceStore:
    def test_put_get_round_trip(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        original = rich_partition()
        ref = store.put(original)
        loaded = store.get(3, digest=ref.digest)
        assert loaded.day == 3
        assert loaded.trace == original.trace
        assert loaded.trace.name == "day3"
        assert loaded.whois.lookup("a.com").registrant == "r"
        assert loaded.redirects.landing_server("a.com") == "land.com"
        # The writer is canonical: the loaded partition writes the same
        # bytes, so it gets the same address.
        assert store.put(loaded).digest == ref.digest

    def test_whois_sidecar_is_compact_and_old_indented_layout_loads(
        self, tmp_path, write_v1_partition
    ):
        store = TraceStore(tmp_path)
        original = rich_partition()
        ref = store.put(original)
        sidecar = store.path_of(3, ref.digest) / "whois.json"
        records = json.loads(sidecar.read_text())
        assert sidecar.read_text() == json.dumps(records, separators=(",", ":")) + "\n"
        # Version-1 partitions written with the earlier indented sidecar
        # still load: their digest covers the parsed records, not the
        # file layout.
        old = TraceStore(tmp_path / "v1")
        digest = write_v1_partition(old.root, original, whois_indent=1)
        old_sidecar = old.path_of(3, digest) / "whois.json"
        assert old_sidecar.read_text() == json.dumps(records, indent=1) + "\n"
        loaded = old.get(3, digest=digest)
        assert loaded.whois.lookup("a.com").registrant == "r"
        assert partition_digest(loaded) == digest

    def test_put_is_idempotent(self, tmp_path):
        store = TraceStore(tmp_path)
        first = store.put(rich_partition())
        second = store.put(rich_partition())
        assert first.digest == second.digest
        assert len(list(tmp_path.glob("day-*"))) == 1

    def test_same_day_different_content_gets_new_address(self, tmp_path):
        store = TraceStore(tmp_path)
        a = store.put(partition(1, ["a.com"]))
        b = store.put(partition(1, ["b.com"]))
        assert a.digest != b.digest
        assert len(list(tmp_path.glob("day-00001-*"))) == 2
        # Addressed get returns the exact variant.
        assert store.get(1, digest=a.digest).trace != store.get(1, digest=b.digest).trace
        # Day-only get refuses to guess between variants.
        with pytest.raises(StreamError, match="variants"):
            store.get(1)

    def test_days_listing_and_has(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(partition(0, ["a.com"]))
        store.put(partition(4, ["b.com"]))
        assert store.days() == (0, 4)
        assert store.has(0) and store.has(4)
        assert not store.has(2)

    def test_get_missing_day_raises(self, tmp_path):
        store = TraceStore(tmp_path)
        with pytest.raises(StreamError, match="no partition"):
            store.get(7)

    def test_ref_missing_partition_raises(self, tmp_path):
        store = TraceStore(tmp_path)
        with pytest.raises(StreamError, match="no partition"):
            store.ref(7, "0" * 64)

    def test_tampered_trace_raises(self, tmp_path):
        store = TraceStore(tmp_path)
        ref = store.put(rich_partition())
        trace_file = next(tmp_path.glob("day-*")) / "trace.jsonl"
        lines = trace_file.read_text().splitlines()
        trace_file.write_text("\n".join(lines[:-1]) + "\n")  # drop a request
        with pytest.raises(StreamError, match="corrupt"):
            store.get(3, digest=ref.digest)

    def test_garbage_trace_raises(self, tmp_path):
        store = TraceStore(tmp_path)
        ref = store.put(rich_partition())
        (next(tmp_path.glob("day-*")) / "trace.jsonl").write_text("{nope\n")
        with pytest.raises(StreamError, match="corrupt"):
            store.get(3, digest=ref.digest)

    def test_corrupt_manifest_raises(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(rich_partition())
        (next(tmp_path.glob("day-*")) / "MANIFEST.json").write_text("{nope")
        with pytest.raises(StreamError, match="corrupt"):
            store.get(3)

    def test_orphaned_tmp_directory_is_ignored(self, tmp_path):
        store = TraceStore(tmp_path)
        ref = store.put(rich_partition())
        # Simulate a crashed put(): a complete tmp directory that never
        # got renamed into place must stay invisible.
        real = next(tmp_path.glob("day-00003-*"))
        shutil.copytree(real, real.with_name(real.name + ".tmp-999"))
        assert store.days() == (3,)
        assert store.get(3).day == 3
        assert store.put(rich_partition()).digest == ref.digest

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format", "repro.other"),
            ("version", 3),
            ("version", True),
            ("version", "2"),
            ("day", "x"),
            ("day", 4),
            ("day", 3.0),
            ("trace_name", 7),
            ("num_requests", -1),
            ("num_requests", "2"),
            ("num_requests", True),
            ("has_whois", 1),
            ("has_redirects", "yes"),
            ("digest", "abc"),
            ("digest", "G" * 64),
            ("digest", None),
            *((field, "missing") for field in ("format", "version", "day", "digest")),
        ],
    )
    def test_bad_manifest_field_raises_naming_file_and_field(self, tmp_path, field, value):
        store = TraceStore(tmp_path)
        ref = store.put(rich_partition())
        manifest_path = store.path_of(3, ref.digest) / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        if value == "missing":
            del manifest[field]
        else:
            manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        message = rf"MANIFEST\.json.*'{field}'"
        with pytest.raises(StreamError, match=message):
            store.get(3, digest=ref.digest)
        with pytest.raises(StreamError, match=message):
            store.request_count(3, ref.digest)

    def test_missing_manifest_means_absent(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put(rich_partition())
        (next(tmp_path.glob("day-*")) / "MANIFEST.json").unlink()
        assert not store.has(3)
        with pytest.raises(StreamError, match="no partition"):
            store.get(3)


class TestStoreBackedWindow:
    def test_window_holds_refs_and_serialises_references(self, tmp_path):
        store = TraceStore(tmp_path)
        window = RollingWindow(size=2, store=store)
        window.append(partition(0, ["a.com"]))
        window.append(partition(1, ["b.com"]))
        state = window.to_dict()
        assert state["store"] is True
        assert all(set(entry) == {"day", "digest"} for entry in state["partitions"])
        assert "requests" not in json.dumps(state)

    def test_combined_matches_in_memory_window(self, tmp_path):
        plain = RollingWindow(size=2)
        backed = RollingWindow(size=2, store=TraceStore(tmp_path))
        for day in range(3):
            plain.append(rich_partition(day))
            backed.append(rich_partition(day))
        plain_trace, plain_whois, plain_redirects = plain.combined()
        backed_trace, backed_whois, backed_redirects = backed.combined()
        assert backed_trace == plain_trace
        assert sorted(r.domain for r in backed_whois) == sorted(
            r.domain for r in plain_whois
        )
        assert backed_redirects.to_dict() == plain_redirects.to_dict()

    def test_from_dict_requires_store(self, tmp_path):
        window = RollingWindow(size=1, store=TraceStore(tmp_path))
        window.append(partition(0, ["a.com"]))
        with pytest.raises(StreamError, match="references a trace store"):
            RollingWindow.from_dict(window.to_dict())

    def test_from_dict_restores_lazily_then_loads(self, tmp_path):
        store = TraceStore(tmp_path)
        window = RollingWindow(size=2, store=store)
        window.append(rich_partition(0))
        window.append(rich_partition(1))
        restored = RollingWindow.from_dict(window.to_dict(), store=store)
        assert restored.days == (0, 1)
        assert [partition_digest(found) for found in restored.partitions] == [
            partition_digest(found) for found in window.partitions
        ]
        assert restored.combined()[0] == window.combined()[0]

    def test_eviction_returns_partitions_and_keeps_history_on_disk(self, tmp_path):
        store = TraceStore(tmp_path)
        window = RollingWindow(size=1, store=store)
        window.append(partition(0, ["a.com"]))
        (evicted,) = window.append(partition(1, ["b.com"]))
        assert evicted.day == 0
        assert store.days() == (0, 1)  # evicted day still stored


@pytest.fixture(scope="module")
def five_days():
    """Five generated days with campaigns overlapping across days."""
    return list(TraceGenerator(small_scenario(seed=3, days=5)).iter_days())


class TestStoreCheckpoints:
    def test_checkpoint_is_metadata_only(self, five_days, tmp_path):
        engine = StreamingSmash(window_size=2, store_dir=tmp_path / "store")
        for dataset in five_days[:3]:
            engine.ingest_dataset(dataset)
        path = save_checkpoint(engine, tmp_path / "stream.ckpt")
        payload = json.loads(path.read_text())
        assert payload["version"] == CHECKPOINT_VERSION
        window_state = payload["state"]["window"]
        assert window_state["store"] is True
        assert "requests" not in json.dumps(window_state)
        # Metadata plus tracker state: a few KB, not megabytes.
        assert path.stat().st_size < 64 * 1024

    def test_resume_mid_week_matches_uninterrupted(self, five_days, tmp_path):
        full = StreamingSmash(window_size=2)
        interrupted = StreamingSmash(window_size=2, store_dir=tmp_path / "store")
        checkpoint = tmp_path / "mid.ckpt"
        for dataset in five_days[:3]:
            full.ingest_dataset(dataset)
            interrupted.ingest_dataset(dataset)
        save_checkpoint(interrupted, checkpoint)
        del interrupted  # "kill" the original process

        resumed = load_checkpoint(checkpoint, store_dir=tmp_path / "store")
        assert resumed.last_day == 2
        assert resumed.window.days == (1, 2)
        # Advance past the stored days: the store supplies history, new
        # days arrive from the live feed.
        for dataset in five_days[3:]:
            full_update = full.ingest_dataset(dataset)
            resumed_update = resumed.ingest_dataset(dataset)
            assert resumed_update.result == full_update.result
        assert resumed.tracker.to_dict() == full.tracker.to_dict()

    def test_resume_reopens_recorded_store(self, five_days, tmp_path):
        engine = StreamingSmash(window_size=2, store_dir=tmp_path / "store")
        for dataset in five_days[:2]:
            engine.ingest_dataset(dataset)
        save_checkpoint(engine, tmp_path / "stream.ckpt")
        resumed = load_checkpoint(tmp_path / "stream.ckpt")  # no store passed
        assert resumed.store is not None
        assert [partition_digest(found) for found in resumed.window.partitions] == [
            partition_digest(found) for found in engine.window.partitions
        ]

    def test_resume_with_moved_store(self, five_days, tmp_path):
        engine = StreamingSmash(window_size=2, store_dir=tmp_path / "store")
        for dataset in five_days[:2]:
            engine.ingest_dataset(dataset)
        save_checkpoint(engine, tmp_path / "stream.ckpt")
        shutil.move(str(tmp_path / "store"), str(tmp_path / "moved"))
        resumed = load_checkpoint(
            tmp_path / "stream.ckpt", store_dir=tmp_path / "moved"
        )
        assert resumed.window.days == engine.window.days

    def test_missing_store_raises(self, five_days, tmp_path):
        engine = StreamingSmash(window_size=1, store_dir=tmp_path / "store")
        engine.ingest_dataset(five_days[0])
        save_checkpoint(engine, tmp_path / "stream.ckpt")
        shutil.rmtree(tmp_path / "store")
        with pytest.raises(StreamError):
            load_checkpoint(tmp_path / "stream.ckpt")

    def test_missing_partition_raises(self, five_days, tmp_path):
        engine = StreamingSmash(window_size=2, store_dir=tmp_path / "store")
        for dataset in five_days[:3]:
            engine.ingest_dataset(dataset)
        save_checkpoint(engine, tmp_path / "stream.ckpt")
        for found in (tmp_path / "store").glob("day-00001-*"):
            shutil.rmtree(found)
        with pytest.raises(StreamError, match="no partition"):
            load_checkpoint(tmp_path / "stream.ckpt")

    def test_corrupt_partition_raises_on_use(self, five_days, tmp_path):
        engine = StreamingSmash(window_size=2, store_dir=tmp_path / "store")
        for dataset in five_days[:3]:
            engine.ingest_dataset(dataset)
        save_checkpoint(engine, tmp_path / "stream.ckpt")
        victim = next((tmp_path / "store").glob("day-00002-*")) / "trace.jsonl"
        victim.write_text(victim.read_text()[: victim.stat().st_size // 2])
        resumed = load_checkpoint(tmp_path / "stream.ckpt")
        with pytest.raises(StreamError, match="corrupt"):
            resumed.window.combined()

    def test_version_1_inline_checkpoint_still_loads(self, tmp_path):
        engine = StreamingSmash(window_size=2)
        engine.ingest_day(
            0, HttpTrace([request("c1", "a.com"), request("c2", "a.com")])
        )
        path = save_checkpoint(engine, tmp_path / "stream.ckpt")
        payload = json.loads(path.read_text())
        payload["version"] = 1  # what PR 1 builds wrote
        path.write_text(json.dumps(payload))
        resumed = load_checkpoint(path)
        assert resumed.last_day == 0
        assert resumed.window.partitions[0].trace == engine.window.partitions[0].trace

    def test_store_ref_handles_repr_and_release(self, tmp_path):
        store = TraceStore(tmp_path)
        ref = store.put(rich_partition())
        assert isinstance(ref, PartitionRef)
        assert "loaded" in repr(ref)
        ref.release()
        assert "on disk" in repr(ref)
        assert ref.load().day == 3
