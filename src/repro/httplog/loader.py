"""JSONL serialisation of HTTP traces.

The ISP traces of the paper are PCAP; our substitute stores the extracted
request tuples as one JSON object per line, which is what a production
deployment's flow-collector would emit.  Round-tripping a trace through
:func:`write_jsonl` / :func:`read_jsonl` is lossless.

:func:`read_jsonl` decodes straight into the trace's columns.  A line in
the exact shape :func:`write_jsonl` emits — keys in order, no escapes, a
fractional or exponent timestamp — is matched by one regular expression
whose groups are the decoded values; every other line (escaped strings,
other key orders, missing optional keys, blank or malformed lines) goes
through ``HttpRequest.from_dict(json.loads(line))``, which also raises
the line's error.  Equal strings share one ``str`` per load: a trace
repeats a few tens of thousands of distinct values across hundreds of
thousands of fields.

Writing runs the other way round.  :func:`encode_rows` turns the
columns into each row's JSON text without a dict per row: each
distinct string is encoded once, each row is one ``%`` row template
filled with its values' texts, and rows come in bounded chunks.
:func:`jsonl_chunks` encodes those chunks to the file's bytes, which
:func:`write_jsonl` writes and :class:`~repro.stream.store.TraceStore`
hashes as it writes them.  :func:`parse_jsonl` decodes such bytes held
in memory (a store's verified buffer) through the same line loop as
:func:`read_jsonl`, without a decoded copy.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import re
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

from repro.errors import TraceError
from repro.httplog.records import FIELDS, HttpRequest, record_dict
from repro.httplog.trace import HttpTrace

#: A JSON string without escapes or control characters: its text *is*
#: its value.  ``+`` variants are non-empty, as the record requires.
_TEXT = r'"([^"\\\x00-\x1f]*)"'
_NONEMPTY = r'"([^"\\\x00-\x1f]+)"'

#: One record in :func:`write_jsonl`'s canonical form.  The timestamp
#: must carry a fraction or exponent: JSON decodes that with ``float``,
#: as this path does, while an integer goes through ``int`` first (and
#: ``-0`` or an out-of-range value then decodes differently).  Status
#: codes have at most nine digits, so ``int`` cannot fail on them.
_CANONICAL = re.compile(
    r'\{"ts":(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))'
    rf',"client":{_NONEMPTY},"host":{_NONEMPTY},"ip":{_TEXT}'
    r',"uri":"(/[^"\\\x00-\x1f]*)"'
    rf',"ua":{_TEXT},"ref":{_TEXT}'
    rf',"status":(0|[1-9][0-9]{{0,8}}),"method":{_TEXT}'
    r"\}\n?"
)


def _open_for_read(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _open_for_write(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "wb")
    return open(path, "wb")


#: The JSON key of each column, in :data:`FIELDS` order (the wire order).
_KEYS = tuple(record_dict(*FIELDS))

#: Rows per chunk of :func:`encode_rows`: enough to amortise the
#: per-chunk work, few enough that a chunk's text stays small.
_CHUNK_ROWS = 2048

#: json's own encoder, for the values the fast paths of
#: :func:`_column_encoder` do not cover.
_encode_json = json.JSONEncoder().encode


def _column_encoder(column: tuple) -> Callable[[tuple], Iterable[str]]:
    """A function from a chunk of *column* to its values' JSON texts."""
    kinds = set(map(type, column))
    if kinds == {float} and math.isfinite(sum(column)):
        return partial(map, float.__repr__)
    if kinds == {int}:
        return partial(map, int.__repr__)
    if kinds == {str}:
        # A string's text depends on its characters alone, so each
        # distinct string is encoded once.
        texts: dict[str, str] = {}

        def encode(chunk: tuple) -> Iterable[str]:
            for value in set(chunk).difference(texts):
                texts[value] = encode_basestring_ascii(value)
            return map(texts.__getitem__, chunk)

        return encode
    # NaN and infinities, bools, numpy scalars, str subclasses, mixed kinds.
    return partial(map, _encode_json)


def encode_rows(trace: HttpTrace) -> Iterator[list[str]]:
    """Every row of *trace* as JSON text, in chunks of a bounded number of rows.

    A row's text is exactly ``json.dumps(record_dict(*row),
    separators=(",", ":"))``: keys in wire order.
    """
    template = "{" + ",".join(f'"{key}":%s' for key in _KEYS) + "}"
    columns = trace.columns
    encoders = [_column_encoder(column) for column in columns]
    for start in range(0, len(trace), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        texts = [encode(column[start:stop]) for encode, column in zip(encoders, columns)]
        yield list(map(template.__mod__, zip(*texts)))


def jsonl_chunks(trace: HttpTrace) -> Iterator[bytes]:
    """The bytes of *trace*'s JSONL file, one chunk of rows at a time.

    Each row's line is its :func:`encode_rows` text plus ``"\\n"``; the
    text is ASCII, so its UTF-8 encoding cannot fail.
    """
    for rows in encode_rows(trace):
        rows.append("")
        yield "\n".join(rows).encode("utf-8")
        del rows  # not held while the next chunk is encoded


def write_jsonl(trace: HttpTrace, path: str | Path) -> int:
    """Write *trace* to *path* (gzip when the name ends in ``.gz``).

    Returns the number of records written.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with _open_for_write(target) as handle:
        for chunk in jsonl_chunks(trace):
            handle.write(chunk)
            del chunk  # not held while the next chunk is encoded
    return len(trace)


def read_jsonl(path: str | Path, name: str | None = None) -> HttpTrace:
    """Read a trace previously written by :func:`write_jsonl`.

    Raises :class:`~repro.errors.TraceError` with the offending line number
    on malformed input.
    """
    source = Path(path)
    with _open_for_read(source) as handle:
        return _decode_lines(handle, source, name or source.stem)


def parse_jsonl(data: bytes, source: str | Path, name: str) -> HttpTrace:
    """Decode a JSONL trace held in memory as UTF-8 *data*.

    The lines are read through a text wrapper over the buffer, so no
    decoded copy of the whole file is made.  *source* names the data in
    a :class:`~repro.errors.TraceError`, as the path does for
    :func:`read_jsonl`.
    """
    return _decode_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), source, name)


def _decode_lines(handle: Iterable[str], source: str | Path, name: str) -> HttpTrace:
    """The trace whose records are *handle*'s lines (the loop of :func:`read_jsonl`)."""
    columns: tuple[list, ...] = tuple([] for _ in FIELDS)
    (
        add_timestamp,
        add_client,
        add_host,
        add_server_ip,
        add_uri,
        add_user_agent,
        add_referrer,
        add_status,
        add_method,
    ) = (column.append for column in columns)
    shared: dict[str, str] = {}
    share = shared.setdefault
    statuses: dict[str, int] = {}
    canonical = _CANONICAL.fullmatch
    for lineno, line in enumerate(handle, start=1):
        match = canonical(line)
        if match is not None:
            stamp, client, host, address, uri, agent, referrer, status, method = match.groups()
            add_timestamp(float(stamp))
            add_client(share(client, client))
            add_host(share(host, host))
            add_server_ip(share(address, address))
            add_uri(share(uri, uri))
            add_user_agent(share(agent, agent))
            add_referrer(share(referrer, referrer))
            code = statuses.get(status)
            if code is None:
                code = statuses[status] = int(status)
            add_status(code)
            add_method(share(method, method))
            continue
        line = line.strip()
        if not line:
            continue
        try:
            request = HttpRequest.from_dict(json.loads(line))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise TraceError(f"{source}:{lineno}: malformed record: {exc}") from exc
        for column, field in zip(columns, FIELDS):
            value = getattr(request, field)
            column.append(share(value, value) if isinstance(value, str) else value)
    return HttpTrace.from_columns(columns, name=name)
