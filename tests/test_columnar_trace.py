"""Column-backed traces: the loader, the store digest, and record-free hot paths.

:class:`~repro.httplog.trace.HttpTrace` keeps one tuple per request
field and :func:`~repro.httplog.loader.read_jsonl` decodes straight into
those columns.  These tests pin the contracts that change must not move:

* the loader returns exactly what the per-line path
  (``HttpRequest.from_dict(json.loads(line))``) returns, and fails with
  exactly its error, for any content;
* :func:`~repro.stream.store.partition_digest` — the address of every
  stored partition and checkpoint reference — keeps its value;
* the pipeline, the store-backed stream and the out-of-core mine never
  build an ``HttpRequest``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.config import SmashConfig
from repro.core.pipeline import SmashPipeline
from repro.errors import StreamError, TraceError
from repro.graph import _kernel
from repro.httplog import loader
from repro.httplog.loader import read_jsonl, write_jsonl
from repro.httplog.records import FIELDS, HttpRequest, record_dict
from repro.httplog.trace import HttpTrace
from repro.stream import StreamingSmash, load_checkpoint, save_checkpoint
from repro.stream.store import STORE_VERSION, TraceStore, partition_digest
from repro.stream.window import DayPartition, RollingWindow
from repro.synth.generator import TraceGenerator
from repro.synth.oracles import RedirectOracle
from repro.synth.scenarios import small_scenario
from repro.whois.record import WhoisRecord
from repro.whois.registry import WhoisRegistry


def reference_read(path: Path) -> HttpTrace:
    """The per-line loader: ``from_dict(json.loads(line))`` for every line."""
    requests = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                requests.append(HttpRequest.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
                raise TraceError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return HttpTrace(requests, name=path.stem)


def outcome(loader, path: Path) -> tuple:
    """What *loader* makes of *path*: the exact columns, or the exact error."""
    try:
        trace = loader(path)
    except Exception as error:  # the error itself is the outcome compared
        return (type(error).__name__, str(error), type(error.__cause__).__name__)
    # repr tells -0.0 from 0.0, 1 from 1.0 and True from 1.
    return ("loaded", repr(trace.columns), trace.name)


def make_request(**overrides) -> HttpRequest:
    fields = dict(timestamp=1.5, client="c1", host="a.example.com", server_ip="10.0.0.1", uri="/x")
    fields.update(overrides)
    return HttpRequest(**fields)


# -- the column-backed container ----------------------------------------------------


class TestColumns:
    def test_record_dict_is_the_wire_form(self):
        request = make_request(referrer="r", status=404)
        assert record_dict(*(getattr(request, field) for field in FIELDS)) == request.to_dict()

    def test_records_round_trip_through_columns(self):
        records = [make_request(), make_request(client="c2", status=404, referrer="r")]
        trace = HttpTrace(records)
        assert trace.column("client") == ("c1", "c2")
        assert trace.columns[FIELDS.index("status")] == (200, 404)
        assert trace.requests == tuple(records)
        assert list(trace) == records
        assert list(trace.iter_dicts()) == [record.to_dict() for record in records]

    def test_from_columns_rejects_ragged_columns(self):
        columns = [list(column) for column in HttpTrace([make_request()]).columns]
        columns[0].append(2.0)
        with pytest.raises(TraceError, match="differ in length"):
            HttpTrace.from_columns(columns)
        with pytest.raises(TraceError, match="9 columns"):
            HttpTrace.from_columns(columns[:3])

    def test_map_hosts_rewrites_only_the_host_column(self):
        trace = HttpTrace([make_request(host="a.x.com"), make_request(host="b.x.com")])
        calls = []

        def mapper(host: str) -> str:
            calls.append(host)
            return "x.com"

        renamed = trace.map_hosts(mapper)
        assert renamed.column("host") == ("x.com", "x.com")
        assert calls == ["a.x.com", "b.x.com"]
        for field in FIELDS:
            if field != "host":
                assert renamed.column(field) is trace.column(field)
        with pytest.raises(ValueError, match="non-empty"):
            trace.map_hosts(lambda host: "")

    def test_filter_keeping_everything_shares_the_columns(self):
        trace = HttpTrace([make_request(), make_request(host="b.com")])
        kept = trace.filter_servers(lambda host: True)
        assert all(map(tuple.__eq__, kept.columns, trace.columns))
        assert all(mine is theirs for mine, theirs in zip(kept.columns, trace.columns))
        kept = trace.filter_servers(lambda host: host == "b.com")
        assert kept.requests == (make_request(host="b.com"),)

    def test_slice_and_concat(self):
        trace = HttpTrace([make_request(client=f"c{index}") for index in range(5)])
        assert trace.slice(1, 3).column("client") == ("c1", "c2")
        assert HttpTrace.concat([trace.slice(0, 2), trace.slice(2, 5)]) == trace
        assert len(HttpTrace.concat([])) == 0


# -- loader equivalence -------------------------------------------------------------

_TRICKY = st.sampled_from(
    ['"', "\\", "\u2028", "\u2029", "\U0001f600", "\x00", "\x1f", "\x7f", "\ufeff", "é", "/"]
)
_TEXT = st.text(st.one_of(st.characters(), _TRICKY), max_size=10)
_NONEMPTY = st.text(st.one_of(st.characters(), _TRICKY), min_size=1, max_size=10)
_RECORDS = st.lists(
    st.builds(
        HttpRequest,
        timestamp=st.floats(allow_nan=False),
        client=_NONEMPTY,
        host=_NONEMPTY,
        server_ip=_TEXT,
        uri=_TEXT.map(lambda text: "/" + text),
        user_agent=_TEXT,
        referrer=_TEXT,
        status=st.integers(-(10**30), 10**30),
        method=_TEXT,
    ),
    max_size=8,
)


CANONICAL = (
    '{"ts":1.5,"client":"c1","host":"a.com","ip":"1.1.1.1","uri":"/x",'
    '"ua":"-","ref":"","status":200,"method":"GET"}'
)
SHORT = '{"ts":1.5,"client":"c1","host":"a.com","ip":"1.1.1.1","uri":"/x"}'


def _without(key: str) -> str:
    entry = json.loads(CANONICAL)
    del entry[key]
    return json.dumps(entry, separators=(",", ":"))


#: File content -> the line its error must name.
MALFORMED = {
    "bad-json": ('{"ts":1.5,"client":\n', 1),
    "trailing-data": (CANONICAL + "x\n", 1),
    "two-records-on-a-line": (CANONICAL + CANONICAL + "\n", 1),
    "array": ("[1, 2]\n", 1),
    "string": ('"text"\n', 1),
    "number": ("5\n", 1),
    "null": ("null\n", 1),
    "empty-client": (CANONICAL.replace('"client":"c1"', '"client":""') + "\n", 1),
    "empty-host": (CANONICAL.replace('"host":"a.com"', '"host":""') + "\n", 1),
    "relative-uri": (CANONICAL.replace('"uri":"/x"', '"uri":"x"') + "\n", 1),
    "ts-not-numeric": (CANONICAL.replace('"ts":1.5', '"ts":"soon"') + "\n", 1),
    "ts-null": (CANONICAL.replace('"ts":1.5', '"ts":null') + "\n", 1),
    "status-not-numeric": (CANONICAL.replace('"status":200', '"status":"ok"') + "\n", 1),
    "status-empty-list": (CANONICAL.replace('"status":200', '"status":[]') + "\n", 1),
    "control-character": (CANONICAL.replace('"ua":"-"', '"ua":"\t"') + "\n", 1),
    "utf8-bom": ("\ufeff" + CANONICAL + "\n", 1),
    "bad-third-line": (CANONICAL + "\n\n{}\n", 3),
    # Joined with "," these three lines are a valid three-record
    # array, as many as there are lines; line by line the first is
    # already broken.
    "parses-only-when-joined": (
        '{"ts":1.5,"client":"c1"\n'
        '"host":"a.com","ip":"1.1.1.1","uri":"/x"}\n' + SHORT + "," + SHORT + "\n",
        1,
    ),
}
for _key in ("ts", "client", "host", "ip", "uri"):
    MALFORMED[f"missing-{_key}"] = (_without(_key) + "\n", 1)

#: Lines off the canonical form that the per-line path accepts.
ACCEPTED = {
    "canonical": CANONICAL,
    "optional-keys-missing": SHORT,
    "reordered-keys": '{"uri":"/x","ip":"1.1.1.1","host":"a.com","client":"c1","ts":1.5}',
    "extra-key": SHORT[:-1] + ',"extra":[1,{"a":null}]}',
    "duplicate-key": SHORT[:-1] + ',"host":"b.com"}',
    "whitespace": '  { "ts" : 1.5 , "client" : "c1", "host":"a.com", "ip":"1", "uri":"/"}\t',
    "escapes": CANONICAL.replace('"ua":"-"', '"ua":"a\\"b\\\\c\\u2028\\ud83d\\ude00"'),
    "raw-non-ascii": CANONICAL.replace('"ua":"-"', '"ua":"é\u2028\U0001f600"'),
    "integer-ts": CANONICAL.replace('"ts":1.5', '"ts":5'),
    "negative-zero-integer-ts": CANONICAL.replace('"ts":1.5', '"ts":-0'),
    "negative-zero-ts": CANONICAL.replace('"ts":1.5', '"ts":-0.0'),
    "exponent-ts": CANONICAL.replace('"ts":1.5', '"ts":1E-7'),
    "overflowing-ts": CANONICAL.replace('"ts":1.5', '"ts":1e400'),
    "infinite-ts": CANONICAL.replace('"ts":1.5', '"ts":-Infinity'),
    "nan-ts": CANONICAL.replace('"ts":1.5', '"ts":NaN'),
    "string-ts": CANONICAL.replace('"ts":1.5', '"ts":"12.5"'),
    "fractional-status": CANONICAL.replace('"status":200', '"status":200.9'),
    "string-status": CANONICAL.replace('"status":200', '"status":"404"'),
    "boolean-status": CANONICAL.replace('"status":200', '"status":true'),
    "negative-status": CANONICAL.replace('"status":200', '"status":-1'),
    "huge-status": CANONICAL.replace('"status":200', '"status":123456789012345678901'),
    "number-client": CANONICAL.replace('"client":"c1"', '"client":7'),
    "null-referrer": CANONICAL.replace('"ref":""', '"ref":null'),
}


def deferring_only_failures(regex_lines):
    """*regex_lines*, made to fail when it decodes an input without error.

    The kernel path hands an input to the regex loop only when a line
    fails, so the loop must then fail too: a return means the kernel
    gave up on a valid input.
    """

    def checked(*args):
        trace = regex_lines(*args)
        raise AssertionError(f"the kernel path gave up on a valid input ({len(trace)} records)")

    return checked


class TestLoaderEquivalence:
    @pytest.fixture(autouse=True, scope="class", params=["kernel", "regex"])
    def decoder(self, request):
        """Every case runs on the compiled kernel and on the regex fallback."""
        with pytest.MonkeyPatch.context() as patch:
            if request.param == "regex":
                patch.setattr(_kernel, "_loaded", [None])
            elif _kernel.load() is None:
                pytest.skip("the compiled JSONL decoder needs a C compiler on PATH")
            else:
                patch.setattr(loader, "_regex_lines", deferring_only_failures(loader._regex_lines))
            yield request.param

    @seed(20150629)
    @settings(max_examples=80, deadline=None, database=None)
    @given(_RECORDS)
    def test_round_trip_matches_the_per_line_path(self, records):
        trace = HttpTrace(records, name="trace")
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "trace.jsonl"
            assert write_jsonl(trace, path) == len(records)
            loaded = read_jsonl(path)
            assert loaded == trace
            assert outcome(read_jsonl, path) == outcome(reference_read, path)

    @pytest.mark.parametrize("content, lineno", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_files_fail_like_the_per_line_path(self, tmp_path, content, lineno):
        path = tmp_path / "bad.jsonl"
        path.write_text(content, encoding="utf-8")
        got = outcome(read_jsonl, path)
        assert got == outcome(reference_read, path)
        assert got[0] == "TraceError"
        assert got[1].startswith(f"{path}:{lineno}: malformed record: ")

    @pytest.mark.parametrize("line", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_unusual_records_load_like_the_per_line_path(self, tmp_path, line):
        path = tmp_path / "odd.jsonl"
        path.write_text(line + "\n" + CANONICAL + "\n", encoding="utf-8")
        got = outcome(read_jsonl, path)
        assert got == outcome(reference_read, path)
        assert got[0] == "loaded"

    def test_integer_ts_too_large_for_a_float_fails_like_the_per_line_path(self, tmp_path):
        path = tmp_path / "big.jsonl"
        path.write_text(CANONICAL.replace('"ts":1.5', '"ts":1' + "0" * 400) + "\n")
        got = outcome(read_jsonl, path)
        assert got == outcome(reference_read, path)
        assert got[0] == "OverflowError"

    def test_blank_lines_and_line_endings(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        text = "\r\n".join(["", CANONICAL, "   ", "\t", SHORT, "", ""])
        path.write_bytes(text.encode("utf-8") + b"\r" + SHORT.encode("utf-8"))
        got = outcome(read_jsonl, path)
        assert got == outcome(reference_read, path)
        assert got[0] == "loaded" and len(read_jsonl(path)) == 3
        path.write_bytes(text.encode("utf-8") + b"{}\r\n")
        got = outcome(read_jsonl, path)
        assert got == outcome(reference_read, path)
        assert got[1].startswith(f"{path}:7: ")

    def test_equal_strings_share_one_object(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(HttpTrace([make_request(), make_request(timestamp=2.5)]), path)
        hosts = read_jsonl(path).column("host")
        assert hosts[0] is hosts[1]


# -- store addresses ----------------------------------------------------------------

#: partition_digest of _pinned_partition().  Store directory names and
#: checkpoint ``(day, digest)`` references are derived from the digest,
#: so a different value would orphan every existing store.
PINNED_PARTITION_DIGEST = "a13ef1b2ae8c1d1922f417a948d70f67735dd3961fe26ff5ed538db4b67dd013"


def _pinned_partition() -> DayPartition:
    trace = HttpTrace(
        [
            HttpRequest(
                timestamp=0.5,
                client="c1",
                host="a.example.com",
                server_ip="10.0.0.1",
                uri='/q.php?x="1"&y=\\2',
                user_agent="Mozilla\u2028\u2603",
                referrer="http://b.example.org/\u00e9",
                status=404,
                method="POST",
            ),
            HttpRequest(
                timestamp=1e21,
                client="c\U0001f600",
                host="b.example.org",
                server_ip="10.0.0.2",
                uri="/",
            ),
            HttpRequest(
                timestamp=7,
                client="c1",
                host="10.0.0.3",
                server_ip="10.0.0.3",
                uri="/tab\there",
                status=302,
            ),
        ],
        name='pinned "day"',
    )
    whois = WhoisRegistry(
        [
            WhoisRecord(
                domain="example.com",
                registrant='A "B" \\ C',
                email="x@example.com",
                name_servers=("ns2.example.net", "ns1.example.net"),
                registered_on=12.5,
                is_proxy=True,
            ),
            WhoisRecord(domain="example.org"),
        ]
    )
    redirects = RedirectOracle({"b.example.org": "example.com"})
    return DayPartition(day=4, trace=trace, whois=whois, redirects=redirects)


def test_partition_digest_is_pinned():
    assert partition_digest(_pinned_partition()) == PINNED_PARTITION_DIGEST


#: The version-2 address of _pinned_partition(): the hash of the bytes
#: TraceStore.put writes for it.  Any change to those bytes is a format
#: change, so this pin moves only together with STORE_VERSION.
PINNED_V2_DIGEST = "61af036982acf61869a1af312daa05ea144cf0b7322498d9703d1146ca9c5876"


def test_version_2_address_is_pinned(tmp_path):
    ref = TraceStore(tmp_path).put(_pinned_partition())
    assert (STORE_VERSION, ref.digest) == (2, PINNED_V2_DIGEST)


def _flip_byte(path: Path, marker: bytes) -> None:
    """Flip the low bit of the last byte of *marker* in *path*."""
    data = bytearray(path.read_bytes())
    data[data.index(marker) + len(marker) - 1] ^= 1
    path.write_bytes(bytes(data))


def test_version_1_partition_loads_and_verifies(tmp_path, write_v1_partition):
    pinned = _pinned_partition()
    store = TraceStore(tmp_path)
    write_v1_partition(tmp_path, pinned, digest=PINNED_PARTITION_DIGEST)
    loaded = store.get(4, digest=PINNED_PARTITION_DIGEST)
    assert loaded.trace == pinned.trace and loaded.trace.name == pinned.trace.name
    assert loaded.whois.lookup("example.com").registrant == 'A "B" \\ C'
    assert loaded.redirects.to_dict() == pinned.redirects.to_dict()
    assert store.get_trace(4, digest=PINNED_PARTITION_DIGEST) == pinned.trace
    # One flipped byte ("c1" becomes "c0") still parses, but fails the check.
    _flip_byte(store.path_of(4, PINNED_PARTITION_DIGEST) / "trace.jsonl", b'"client":"c1')
    with pytest.raises(StreamError, match="corrupt partition"):
        store.get(4, digest=PINNED_PARTITION_DIGEST)
    with pytest.raises(StreamError, match="corrupt partition"):
        store.get_trace(4, digest=PINNED_PARTITION_DIGEST)


@pytest.mark.parametrize("out_of_core", [False, True], ids=["in-process", "out-of-core"])
def test_checkpoint_naming_version_1_partitions_resumes(tmp_path, write_v1_partition, out_of_core):
    """A window restored from version-1 refs mixes them with version-2 days."""
    config = SmashConfig().replace(
        **(dict(shards=2, out_of_core=True, dispatch="serial") if out_of_core else {})
    )
    days = list(TraceGenerator(small_scenario(seed=3, days=7)).iter_days())
    pinned = _pinned_partition()

    def partition(day):
        if day == pinned.day:
            return pinned
        return DayPartition(day, days[day].trace, days[day].whois, days[day].redirects)

    def ingest(engine, day):
        found = partition(day)
        return engine.ingest_day(day, found.trace, found.whois, found.redirects)

    plain = StreamingSmash(window_size=2)
    expected = [ingest(plain, day) for day in range(7)]

    store_dir = tmp_path / "store"
    engine = StreamingSmash(config=config, window_size=2, store_dir=store_dir)
    for day in range(5):
        ingest(engine, day)
    engine.close()
    checkpoint = save_checkpoint(engine, tmp_path / "stream.ckpt")
    # Rewrite the window's partitions as a version-1 build stored them.
    payload = json.loads(checkpoint.read_text())
    refs = payload["state"]["window"]["partitions"]
    store = TraceStore(store_dir)
    for entry in refs:
        shutil.rmtree(store.path_of(entry["day"], entry["digest"]))
        entry["digest"] = write_v1_partition(store_dir, partition(entry["day"]))
    checkpoint.write_text(json.dumps(payload))
    assert refs[-1] == {"day": 4, "digest": PINNED_PARTITION_DIGEST}

    resumed = load_checkpoint(checkpoint, config=config)
    assert resumed.window.days == (3, 4)
    for day in (5, 6):
        assert ingest(resumed, day).result == expected[day].result
    resumed.close()
    assert resumed.tracker.to_dict() == plain.tracker.to_dict()
    versions = {
        path.name[:9]: json.loads((path / "MANIFEST.json").read_text())["version"]
        for path in store_dir.glob("day-*")
    }
    assert versions == {
        "day-00000": 2,
        "day-00001": 2,
        "day-00002": 2,
        "day-00003": 1,
        "day-00004": 1,
        "day-00005": 2,
        "day-00006": 2,
    }


# -- hot paths build no records -----------------------------------------------------


@pytest.fixture
def records_built(monkeypatch):
    """A list that grows by one for every ``HttpRequest`` constructed."""
    built: list[int] = []
    original = HttpRequest.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(HttpRequest, "__init__", counting_init)
    return built


@pytest.fixture(scope="module")
def days():
    return list(TraceGenerator(small_scenario(seed=3, days=3)).iter_days())


def test_the_counter_sees_on_demand_records(records_built, days):
    assert len(days[0].trace.requests) == len(records_built) > 0


@pytest.mark.parametrize(
    "dimensions",
    [SmashConfig().enabled_secondary_dimensions, ("urifile", "ipset", "whois", "urlparam", "time")],
    ids=["default", "all-five"],
)
def test_batch_pipeline_builds_no_records(records_built, days, tmp_path, dimensions):
    day = days[0]
    write_jsonl(day.trace, tmp_path / "trace.jsonl")
    config = SmashConfig(enabled_secondary_dimensions=dimensions)
    result = SmashPipeline(config).run(
        read_jsonl(tmp_path / "trace.jsonl"), whois=day.whois, redirects=day.redirects
    )
    assert result.campaigns
    assert records_built == []


def test_store_backed_stream_builds_no_records(records_built, days, tmp_path):
    engine = StreamingSmash(window_size=2, store_dir=tmp_path / "store")
    for day in days:
        engine.ingest_day(day.day, day.trace, day.whois, day.redirects)
    assert records_built == []


def test_out_of_core_store_direct_mine_builds_no_records(records_built, days, tmp_path):
    store = TraceStore(tmp_path / "store")
    window = RollingWindow(size=3, store=store)
    for day in days:
        window.append(DayPartition(day.day, day.trace, day.whois, day.redirects))
    refs = window.partition_refs()
    whois, redirects = window.combined_sidecars()
    config = SmashConfig().replace(shards=2, out_of_core=True, dispatch="serial")
    pipeline = SmashPipeline(config)
    mined = pipeline.mine(
        None,
        whois=whois,
        partitions=[(ref.day, ref.digest) for ref in refs],
        store_root=store.root,
        shard_boundaries=tuple(store.request_count(ref.day, ref.digest) for ref in refs),
    )
    assert pipeline.finish(mined, redirects=redirects).campaigns
    assert records_built == []
