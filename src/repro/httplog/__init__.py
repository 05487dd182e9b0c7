"""HTTP-log substrate: request records, URI parsing, trace containers."""

from repro._lazy import lazy_exports

__all__ = [
    "HttpRequest",
    "HttpTrace",
    "TraceStats",
    "read_jsonl",
    "split_uri",
    "uri_file",
    "write_jsonl",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.httplog.records": ("HttpRequest",),
        "repro.httplog.trace": ("HttpTrace", "TraceStats"),
        "repro.httplog.uri": ("split_uri", "uri_file"),
        "repro.httplog.loader": ("read_jsonl", "write_jsonl"),
    },
)
