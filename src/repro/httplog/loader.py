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
"""

from __future__ import annotations

import gzip
import json
import re
from pathlib import Path

from repro.errors import TraceError
from repro.httplog.records import FIELDS, HttpRequest
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
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def write_jsonl(trace: HttpTrace, path: str | Path) -> int:
    """Write *trace* to *path* (gzip when the name ends in ``.gz``).

    Returns the number of records written.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # json.dumps with these separators builds this same encoder per call.
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with _open_for_write(target) as handle:
        for entry in trace.iter_dicts():
            handle.write(encode(entry))
            handle.write("\n")
    return len(trace)


def read_jsonl(path: str | Path, name: str | None = None) -> HttpTrace:
    """Read a trace previously written by :func:`write_jsonl`.

    Raises :class:`~repro.errors.TraceError` with the offending line number
    on malformed input.
    """
    source = Path(path)
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
    with _open_for_read(source) as handle:
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
    return HttpTrace.from_columns(columns, name=name or source.stem)
