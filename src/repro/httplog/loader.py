"""JSONL serialisation of HTTP traces.

The ISP traces of the paper are PCAP; our substitute stores the extracted
request tuples as one JSON object per line, which is what a production
deployment's flow-collector would emit.  Round-tripping a trace through
:func:`write_jsonl` / :func:`read_jsonl` is lossless.

:func:`read_jsonl` and :func:`parse_jsonl` decode straight into the
trace's columns.  A line in the exact shape :func:`write_jsonl` emits —
keys in order, no escapes, a fractional or exponent timestamp: the
grammar of ``_CANONICAL`` — is decoded by a compiled kernel
(``_jsonl_kernel.c``, which :mod:`repro.graph._kernel` builds on first
use into one library with the Louvain kernel).  The kernel scans the
input in blocks of whole lines and returns each row's strings as ids
interned per block, its timestamp's text and its status code; each
block's distinct strings are decoded once, and the timestamps go
through Python's ``float``, as in the reference loop.  Every other line
(escaped strings, other key orders, missing optional keys, blank or
malformed lines) goes through ``HttpRequest.from_dict(json.loads(line))``.
When anything fails — a line, bytes that are not UTF-8 — the input is
decoded again by the reference loop, which matches the canonical shape
with one regular expression and raises the error with its line number;
without a C compiler that loop decodes everything (after one logged
warning).  Equal strings share one ``str`` per load: a trace repeats a
few tens of thousands of distinct values across hundreds of thousands
of fields.

Writing runs the other way round.  :func:`encode_rows` turns the
columns into each row's JSON text without a dict per row: each
distinct string is encoded once, each row is one ``%`` row template
filled with its values' texts, and rows come in bounded chunks.
:func:`jsonl_chunks` encodes those chunks to the file's bytes, which
:func:`write_jsonl` writes and :class:`~repro.stream.store.TraceStore`
hashes as it writes them.  :func:`parse_jsonl` decodes such bytes held
in memory (a store's verified buffer) the way :func:`read_jsonl`
decodes a file, without a decoded copy.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import re
from array import array
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

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
    name = name or source.stem
    library = _compiled()
    # A failed decode reads the file again, which a pipe cannot do.
    if library is not None and source.is_file():
        with _open_bytes(source) as handle:
            trace = _decode_lines(library, _line_blocks(handle), name)
        if trace is not None:
            return trace
    with _open_for_read(source) as handle:
        return _regex_lines(handle, source, name)


def parse_jsonl(data: bytes, source: str | Path, name: str) -> HttpTrace:
    """Decode a JSONL trace held in memory as UTF-8 *data*.

    The buffer is read in blocks (or, without the kernel, in lines
    through a text wrapper), so no decoded copy of the whole file is
    made.  *source* names the data in a
    :class:`~repro.errors.TraceError`, as the path does for
    :func:`read_jsonl`.
    """
    library = _compiled()
    if library is not None:
        trace = _decode_lines(library, _line_blocks(io.BytesIO(data)), name)
        if trace is not None:
            return trace
    return _regex_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), source, name)


def _compiled():
    """The compiled kernels' ctypes library, or ``None`` without a C compiler."""
    from repro.graph import _kernel  # deferred: nothing loads at import

    return _kernel.load()


def _open_bytes(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _record(line: str) -> HttpRequest | None:
    """The record on a line off the canonical form, through ``json.loads``.

    ``None`` for a blank line.
    """
    line = line.strip()
    return HttpRequest.from_dict(json.loads(line)) if line else None


def _append_record(columns: tuple[list, ...], share, request: HttpRequest) -> None:
    for column, field in zip(columns, FIELDS):
        value = getattr(request, field)
        column.append(share(value, value) if isinstance(value, str) else value)


def _regex_lines(handle: Iterable[str], source: str | Path, name: str) -> HttpTrace:
    """The trace whose records are *handle*'s lines: the reference decoder.

    It runs when no C compiler is available, and it decides every input
    the kernel path gives up on.
    """
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
        try:
            request = _record(line)
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise TraceError(f"{source}:{lineno}: malformed record: {exc}") from exc
        if request is not None:
            _append_record(columns, share, request)
    return HttpTrace.from_columns(columns, name=name)


#: Bytes read per block: enough to amortise a kernel call, few enough
#: that a block and the kernel's buffers stay a few MB.
_BLOCK_BYTES = 1 << 20

#: The shortest canonical line, whose length bounds a block's rows.
_SHORTEST_ROW = len(
    '{"ts":0e0,"client":"c","host":"h","ip":"","uri":"/","ua":"","ref":"","status":0,"method":""}'
)

#: Slots of the kernel's string table; a call interns at most half as
#: many strings, then stops, and the next call starts a new table.
_TABLE_SLOTS = 1 << 15

#: The columns of the kernel's seven string fields, in its order.
_STRING_FIELDS = tuple(
    index for index, field in enumerate(FIELDS) if field not in ("timestamp", "status")
)
_TIMESTAMP, _STATUS = FIELDS.index("timestamp"), FIELDS.index("status")


def _line_end(data: bytes) -> int:
    """The end of *data*'s last whole line, or 0 when no line ends in it.

    Lines end as in text mode, at ``\\n``, ``\\r\\n`` or a lone ``\\r``; a
    final ``\\r`` may be the first half of a ``\\r\\n``, so it ends no line
    here.
    """
    return max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1


def _line_blocks(handle) -> Iterator[tuple[bytes, int]]:
    """*handle*'s bytes as ``(block, end)``: ``block[:end]`` is whole lines.

    Only the last block may end without a line end.
    """
    pending: list[bytes] = []
    while chunk := handle.read(_BLOCK_BYTES):
        end = _line_end(chunk)
        if not end:
            pending.append(chunk)
            continue
        if pending:
            end += sum(map(len, pending))
            chunk = b"".join((*pending, chunk))
        yield chunk, end
        pending = [chunk[end:]] if end < len(chunk) else []
    rest = b"".join(pending)
    if rest:
        yield rest, len(rest)


def _int64s(count: int) -> array:
    return array("q", [0]) * count


class _Scan(NamedTuple):
    """What one kernel call found."""

    rows: int
    #: Per string field, the rows' string ids.
    ids: list[array]
    #: The distinct strings' UTF-8 bytes in id order, joined by "\n".
    text: memoryview
    #: The rows' timestamp texts, each followed by a space.
    stamps: memoryview
    status: array
    #: ``(start, end, rows before)`` of each non-empty line off the
    #: canonical form.
    flags: list[tuple[int, int, int]]
    offset: int


class _Scanner:
    """One load's calls of the kernel's ``jsonl_scan``.

    The buffers are sized from a block's length, which bounds its rows
    and its text; they grow to the largest block seen and are reused
    after that.  The capacity each call is given never exceeds its
    buffer, and the kernel stops before a line that would overflow one
    (more flagged lines than rows, or more strings than the table
    holds), so the next call resumes there.
    """

    def __init__(self, library) -> None:
        self._kernel = library.jsonl_scan
        self._table = _int64s(_TABLE_SLOTS)
        self._entries = _int64s(3 * (_TABLE_SLOTS // 2))
        self._counts = _int64s(6)
        self._size = -1

    def _fit(self, size: int, rows: int) -> None:
        if size > self._size:
            self._size = size
            self._ids = _int64s(len(_STRING_FIELDS) * rows)
            self._status = _int64s(rows)
            self._flags = _int64s(3 * rows)
            self._text = array("B", [0]) * size
            self._stamps = array("B", [0]) * size

    def scan(self, block: bytes, start: int, end: int) -> _Scan:
        """Scan ``block[start:end]`` (whole lines) until it ends or an output fills."""
        size = end - start
        rows = size // _SHORTEST_ROW + 1
        self._fit(size, rows)
        outcome = self._kernel(
            block,
            start,
            end,
            rows,
            self._ids.buffer_info()[0],
            self._status.buffer_info()[0],
            _TABLE_SLOTS,
            self._table.buffer_info()[0],
            self._entries.buffer_info()[0],
            self._text.buffer_info()[0],
            size,
            self._stamps.buffer_info()[0],
            size,
            rows,
            self._flags.buffer_info()[0],
            self._counts.buffer_info()[0],
        )
        found, _strings, text_bytes, stamp_bytes, flagged, offset = self._counts
        if outcome < 0 or offset == start:
            raise RuntimeError(f"jsonl_scan made no progress (returned {outcome})")
        flags = self._flags[: 3 * flagged]
        starts = range(0, len(_STRING_FIELDS) * rows, rows)
        return _Scan(
            rows=found,
            ids=[self._ids[first : first + found] for first in starts],
            text=memoryview(self._text)[:text_bytes],
            stamps=memoryview(self._stamps)[:stamp_bytes],
            status=self._status[:found],
            flags=list(zip(flags[0::3], flags[1::3], flags[2::3])),
            offset=offset,
        )


def _decode_lines(library, blocks: Iterable[tuple[bytes, int]], name: str) -> HttpTrace | None:
    """The trace whose records are the lines of *blocks*, scanned by the kernel.

    The kernel splits each block into canonical rows (string ids,
    timestamp texts, status codes) and flagged lines.  Each call's
    distinct strings are decoded at once and shared through the load's
    dict, timestamps go through ``float`` as in :func:`_regex_lines`,
    and flagged lines through :func:`_record`, so the columns equal the
    reference decoder's.  Returns ``None`` when anything fails (a line,
    bytes that are not UTF-8, a read): the caller then decodes the input
    again with :func:`_regex_lines`, so every error, its text, its line
    number and which of two errors comes first are the reference's.
    """
    columns: tuple[list, ...] = tuple([] for _ in FIELDS)
    timestamps, statuses = columns[_TIMESTAMP], columns[_STATUS]
    strings = [columns[index] for index in _STRING_FIELDS]
    shared: dict[str, str] = {}
    share = shared.setdefault
    status_codes: dict[int, int] = {}
    share_code = status_codes.setdefault
    scanner = _Scanner(library)
    try:
        for block, end in blocks:
            start = 0
            while start < end:
                scan = scanner.scan(block, start, end)
                values = str(scan.text, "utf-8").split("\n")
                value_of = list(map(share, values, values)).__getitem__
                stamps = list(map(float, scan.stamps.tobytes().split()))

                def add_rows(first: int, stop: int) -> None:
                    timestamps.extend(stamps[first:stop])
                    for column, ids in zip(strings, scan.ids):
                        column.extend(map(value_of, ids[first:stop]))
                    codes = scan.status[first:stop]
                    statuses.extend(map(share_code, codes, codes))

                done = 0
                for line_start, line_end, before in scan.flags:
                    if before > done:
                        add_rows(done, before)
                        done = before
                    request = _record(block[line_start:line_end].decode("utf-8"))
                    if request is not None:
                        _append_record(columns, share, request)
                add_rows(done, scan.rows)
                start = scan.offset
    except Exception:
        # Whatever failed, the reference loop reports it, in its order.
        return None
    return HttpTrace.from_columns(columns, name=name)
