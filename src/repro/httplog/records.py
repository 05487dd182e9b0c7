"""The HTTP request record consumed by SMASH.

One record corresponds to one logged HTTP request observed at the network
edge.  The fields mirror what the paper extracts from its ISP PCAP traces:
client identity, destination domain name and IP address, request URI,
User-Agent, Referer, and the response status code (used when classifying
"suspicious" campaigns in Section V-A1).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.httplog.uri import query_parameter_names, uri_file


@dataclass(frozen=True, slots=True)
class HttpRequest:
    """A single HTTP request observation.

    Attributes
    ----------
    timestamp:
        Seconds since the start of the observation window.
    client:
        Anonymised client identifier (the ISP sees stable subscriber IDs).
    host:
        Destination server name exactly as requested — an FQDN or a
        literal IP address.
    server_ip:
        The destination IP address the connection actually went to.
    uri:
        Request URI (path + optional query string).
    user_agent:
        The User-Agent request header ("-" when absent, as in Table IX).
    referrer:
        The Referer request header ("" when absent).  Spelled "referrer"
        here; the wire header keeps its historical misspelling.
    status:
        HTTP response status code; 0 when no response was observed.
    method:
        HTTP request method, almost always GET or POST in the traces.
    """

    timestamp: float
    client: str
    host: str
    server_ip: str
    uri: str
    user_agent: str = "-"
    referrer: str = ""
    status: int = 200
    method: str = "GET"

    def __post_init__(self) -> None:
        if not self.client:
            raise ValueError("HttpRequest.client must be non-empty")
        if not self.host:
            raise ValueError("HttpRequest.host must be non-empty")
        if not self.uri.startswith("/"):
            raise ValueError(f"HttpRequest.uri must be absolute, got {self.uri!r}")

    @property
    def uri_file(self) -> str:
        """The paper's URI file (filename component) of this request."""
        return uri_file(self.uri)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        """Sorted query-parameter names of this request."""
        return query_parameter_names(self.uri)

    @property
    def is_error(self) -> bool:
        """True for 4xx/5xx responses (used for "suspicious" verification)."""
        return self.status >= 400

    def to_dict(self) -> dict[str, object]:
        """Serialise to a JSON-compatible dict (see :mod:`repro.httplog.loader`)."""
        return record_dict(
            self.timestamp,
            self.client,
            self.host,
            self.server_ip,
            self.uri,
            self.user_agent,
            self.referrer,
            self.status,
            self.method,
        )

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "HttpRequest":
        """Inverse of :meth:`to_dict`; raises ``KeyError`` on missing fields."""
        return cls(
            timestamp=float(data["ts"]),  # type: ignore[arg-type]
            client=str(data["client"]),
            host=str(data["host"]),
            server_ip=str(data["ip"]),
            uri=str(data["uri"]),
            user_agent=str(data.get("ua", "-")),
            referrer=str(data.get("ref", "")),
            status=int(data.get("status", 200)),  # type: ignore[arg-type]
            method=str(data.get("method", "GET")),
        )


#: The record's fields in declaration order: the column order of
#: :class:`~repro.httplog.trace.HttpTrace` and of ``HttpRequest(*row)``.
FIELDS = tuple(field.name for field in fields(HttpRequest))


def record_dict(
    timestamp: float,
    client: str,
    host: str,
    server_ip: str,
    uri: str,
    user_agent: str,
    referrer: str,
    status: int,
    method: str,
) -> dict[str, object]:
    """One request's fields (in :data:`FIELDS` order) as its JSON object.

    The JSONL wire format: :meth:`HttpRequest.to_dict` for a record, and
    :meth:`~repro.httplog.trace.HttpTrace.iter_dicts` for a row of a
    column-backed trace.
    """
    return {
        "ts": timestamp,
        "client": client,
        "host": host,
        "ip": server_ip,
        "uri": uri,
        "ua": user_agent,
        "ref": referrer,
        "status": status,
        "method": method,
    }
