"""The column encoder behind ``write_jsonl`` and the trace store's writes.

:func:`~repro.httplog.loader.encode_rows` turns a trace's columns into
each row's JSON text without building a dict per row.  Its contract is
that nothing changes on disk: the oracles below are the per-row
formulas used before, kept here verbatim as the reference.

* ``write_jsonl`` bytes are
  ``"".join(json.dumps(record_dict(*row), separators=(",", ":")) + "\\n" ...)``;
* ``partition_digest``, the version-1 store address, is the sha256 of
  ``json.dumps(partition.to_dict(), sort_keys=True, separators=(",", ":"))``;
* a store put + get never builds a row dict.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import tempfile
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.httplog import loader
from repro.httplog.loader import encode_rows, write_jsonl
from repro.httplog.records import FIELDS, record_dict
from repro.httplog.trace import HttpTrace
from repro.stream.store import TraceStore, partition_digest
from repro.stream.window import DayPartition
from repro.synth.oracles import RedirectOracle
from repro.whois.record import WhoisRecord
from repro.whois.registry import WhoisRegistry

try:
    import numpy as np
except ImportError:  # numpy is an optional extra
    np = None


def reference_jsonl(rows: list[tuple]) -> str:
    return "".join(json.dumps(record_dict(*row), separators=(",", ":")) + "\n" for row in rows)


def reference_digest(partition: DayPartition) -> str:
    payload = json.dumps(partition.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Text(str):
    """A ``str`` subclass: json encodes it through its own path."""


class Seconds(float):
    """A ``float`` subclass, as numpy's ``float64`` is."""


_TRICKY = st.sampled_from(list('"\\\x00\x1f\x7f\u2028\u2029\ufeff\U0001f600\ud800\udfff\u00e9/%'))
#: Every code point, lone surrogates included, and the ones json escapes.
_CHAR = st.one_of(st.characters(exclude_categories=()), _TRICKY)
_TEXT = st.one_of(st.text(_CHAR, max_size=8), st.text(_CHAR, max_size=8).map(Text))
_TIMESTAMP = st.one_of(
    st.floats(),
    st.integers(-(10**20), 10**20),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.floats().map(Seconds),
    *([st.floats().map(np.float64)] if np is not None else []),
)
_STATUS = st.one_of(st.integers(-(10**30), 10**30), st.booleans())
#: Rows in FIELDS order.  Columns are handed to ``from_columns``
#: unvalidated, so optional fields may be empty and values odd.
_ROWS = st.lists(
    st.tuples(_TIMESTAMP, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT, _STATUS, _TEXT),
    max_size=9,
)


def trace_of(rows: list[tuple], name: str = "trace") -> HttpTrace:
    return HttpTrace.from_columns(
        [[row[index] for row in rows] for index in range(len(FIELDS))], name=name
    )


def _whois() -> WhoisRegistry:
    return WhoisRegistry(
        [
            WhoisRecord(
                domain="example.com",
                registrant='A "B" \\ C\u2028',
                email="x@example.com",
                name_servers=("ns2.example.net", "ns1.example.net"),
                registered_on=12.5,
                is_proxy=True,
            ),
            WhoisRecord(domain="exa\U0001f600mple.org"),
        ]
    )


#: Columns whose values print unlike the common case of their kind.
ODD_COLUMNS = {
    "non-finite-floats": [1.5, math.nan, math.inf, -math.inf],
    "floats-whose-sum-overflows": [1e308, 1e308, -0.0],
    "ints-and-bools": [1, True, 0, False],
    "ints-and-equal-floats": [7, 7.0, 0, -0.0],
    "float-subclass": [Seconds(1.5), Seconds(math.nan)],
    "str-subclass": [Text("a"), "a", Text('"\u2028')],
}

#: Chunk sizes that cut a handful of rows at every boundary, and the default.
CHUNKS = (1, 2, 3, loader._CHUNK_ROWS)


class TestEncoderEquivalence:
    @seed(20150629)
    @settings(max_examples=80, deadline=None, database=None)
    @given(_ROWS)
    def test_rows_print_as_json_dumps(self, rows):
        trace = trace_of(rows)
        for chunk in CHUNKS:
            with mock.patch.object(loader, "_CHUNK_ROWS", chunk):
                chunks = list(encode_rows(trace))
                assert all(len(texts) <= chunk for texts in chunks)
                assert sum(chunks, []) == [
                    json.dumps(record_dict(*row), separators=(",", ":")) for row in rows
                ]

    @seed(20150629)
    @settings(max_examples=50, deadline=None, database=None)
    @given(_ROWS)
    def test_write_jsonl_bytes_match_the_per_row_encoder(self, rows):
        trace = trace_of(rows)
        with tempfile.TemporaryDirectory() as directory:
            for chunk in CHUNKS:
                with mock.patch.object(loader, "_CHUNK_ROWS", chunk):
                    path = Path(directory) / "trace.jsonl"
                    assert write_jsonl(trace, path) == len(rows)
                    assert path.read_bytes() == reference_jsonl(rows).encode("utf-8")
                    # gzip headers carry an mtime: compare the text.
                    packed = Path(directory) / "trace.jsonl.gz"
                    write_jsonl(trace, packed)
                    assert gzip.decompress(packed.read_bytes()) == path.read_bytes()

    @seed(20150629)
    @settings(max_examples=50, deadline=None, database=None)
    @given(
        _ROWS,
        _TEXT,
        st.booleans(),
        st.dictionaries(st.text(_CHAR, max_size=6), st.text(_CHAR, max_size=6), max_size=3),
    )
    def test_partition_digest_matches_the_document_digest(self, rows, name, with_whois, landing):
        partition = DayPartition(
            day=3,
            trace=trace_of(rows, name=name),
            whois=_whois() if with_whois else None,
            redirects=RedirectOracle(landing) if landing else None,
        )
        for chunk in CHUNKS:
            with mock.patch.object(loader, "_CHUNK_ROWS", chunk):
                assert partition_digest(partition) == reference_digest(partition)

    @pytest.mark.parametrize("with_sidecars", [False, True])
    def test_empty_trace(self, tmp_path, with_sidecars):
        sidecars = (_whois(), RedirectOracle({"a": "b"})) if with_sidecars else (None, None)
        partition = DayPartition(0, trace_of([]), *sidecars)
        assert list(encode_rows(partition.trace)) == []
        assert partition_digest(partition) == reference_digest(partition)
        assert write_jsonl(partition.trace, tmp_path / "empty.jsonl") == 0
        assert (tmp_path / "empty.jsonl").read_bytes() == b""

    def test_many_chunks_of_repeated_values(self, tmp_path):
        """Distinct strings are encoded once but printed in every chunk."""
        rows = [
            (index / 7, f"c{index % 5}", "h\u00e9", "1.2.3.4", f"/{index % 3}", "-", "", 200, "GET")
            for index in range(2 * loader._CHUNK_ROWS + 5)
        ]
        partition = DayPartition(1, trace_of(rows), _whois(), RedirectOracle({"h": "h"}))
        write_jsonl(partition.trace, tmp_path / "trace.jsonl")
        assert (tmp_path / "trace.jsonl").read_text("utf-8") == reference_jsonl(rows)
        assert partition_digest(partition) == reference_digest(partition)

    @pytest.mark.parametrize("field", ["timestamp", "client", "status"])
    @pytest.mark.parametrize("values", ODD_COLUMNS.values(), ids=ODD_COLUMNS.keys())
    def test_columns_a_shortcut_would_misprint(self, field, values):
        plain = (1.5, "c", "h", "1.1.1.1", "/", "-", "", 200, "GET")
        position = FIELDS.index(field)
        rows = [plain[:position] + (value,) + plain[position + 1 :] for value in values]
        assert sum(encode_rows(trace_of(rows)), []) == [
            json.dumps(record_dict(*row), separators=(",", ":")) for row in rows
        ]

    def test_unserialisable_values_fail_like_json(self):
        trace = trace_of([(Decimal(5), "c", "h", "", "/", "-", "", 200, "GET")])
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(record_dict(*(column[0] for column in trace.columns)))
        with pytest.raises(TypeError, match="not JSON serializable"):
            list(encode_rows(trace))


# -- no row dicts on the store path -------------------------------------------------


def test_store_put_and_get_build_no_row_dicts(monkeypatch, tmp_path):
    calls: list[int] = []
    iter_dicts = HttpTrace.iter_dicts

    def counting(self):
        calls.append(1)
        return iter_dicts(self)

    monkeypatch.setattr(HttpTrace, "iter_dicts", counting)
    rows = [
        (float(index), "c", f"h{index}", "1.1.1.1", "/x", "-", "", 200, "GET")
        for index in range(5)
    ]
    partition = DayPartition(2, trace_of(rows), _whois(), RedirectOracle({"h1": "h2"}))
    store = TraceStore(tmp_path / "store")
    ref = store.put(partition)
    loaded = store.get(ref.day, ref.digest)
    assert loaded.trace == partition.trace
    assert calls == []
    # The counter does see the dict path.
    reference_digest(partition)
    assert calls == [1]
