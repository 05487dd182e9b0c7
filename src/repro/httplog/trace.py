"""Trace container with the per-server indices SMASH consumes.

:class:`HttpTrace` stores a trace as columns: one tuple per
:class:`~repro.httplog.records.HttpRequest` field (timestamp, client,
host, server IP, URI, User-Agent, referrer, status, method), all in
trace order.  Preprocessing, the index builds, pruning, the shard map
jobs and serialisation read the columns directly; :attr:`requests` and
iteration build ``HttpRequest`` records on demand for the consumers
that want whole records.

The trace lazily builds the inverted indices used throughout the
pipeline: clients per server, URI files per server, IP addresses per
server, and the raw request lists.  All server keys are
*post-aggregation* names only when the caller aggregated them; the trace
itself is agnostic and indexes the ``host`` field verbatim.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter

from repro.errors import TraceError
from repro.httplog.records import FIELDS, HttpRequest, record_dict
from repro.httplog.uri import uri_file

_COLUMN_OF = {field: index for index, field in enumerate(FIELDS)}
_TIMESTAMP = _COLUMN_OF["timestamp"]
_CLIENT = _COLUMN_OF["client"]
_HOST = _COLUMN_OF["host"]
_SERVER_IP = _COLUMN_OF["server_ip"]
_URI = _COLUMN_OF["uri"]


@dataclass(frozen=True)
class TraceStats:
    """The Table-I statistics of a trace."""

    num_clients: int
    num_requests: int
    num_servers: int
    num_uri_files: int

    def as_row(self) -> dict[str, int]:
        return {
            "# of clients": self.num_clients,
            "# of HTTP requests": self.num_requests,
            "# of Servers": self.num_servers,
            "# of URI Files": self.num_uri_files,
        }


class HttpTrace:
    """An immutable collection of HTTP requests with inverted indices.

    The container is cheap to construct; indices are built on first use and
    cached.  Traces compare equal when their request sequences are equal.
    """

    def __init__(self, requests: Iterable[HttpRequest], name: str = "trace") -> None:
        records = tuple(requests)
        for request in records:
            if not isinstance(request, HttpRequest):
                raise TraceError(
                    f"trace entries must be HttpRequest, got {type(request).__name__}"
                )
        self._columns: tuple[tuple, ...] = tuple(
            tuple(map(attrgetter(field), records)) for field in FIELDS
        )
        self.name = name
        self._clear_indices()

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[object]], name: str = "trace") -> "HttpTrace":
        """A trace over per-field columns in :data:`~repro.httplog.records.FIELDS` order.

        The values are taken as already validated: every caller derives
        them from checked records (the JSONL loader, renaming, filtering,
        slicing, concatenation, shard spills).
        """
        columns = tuple(column if type(column) is tuple else tuple(column) for column in columns)
        if len(columns) != len(FIELDS):
            raise TraceError(f"a trace has {len(FIELDS)} columns, got {len(columns)}")
        if len({len(column) for column in columns}) > 1:
            raise TraceError("trace columns differ in length")
        trace = cls.__new__(cls)
        trace._columns = columns
        trace.name = name
        trace._clear_indices()
        return trace

    def _clear_indices(self) -> None:
        self._clients_by_server: dict[str, frozenset[str]] | None = None
        self._files_by_server: dict[str, frozenset[str]] | None = None
        self._ips_by_server: dict[str, frozenset[str]] | None = None
        self._requests_by_server: dict[str, tuple[HttpRequest, ...]] | None = None
        self._servers_by_client: dict[str, frozenset[str]] | None = None
        self._servers: frozenset[str] | None = None
        # The urlparam and time dimensions' indexes, kept here by
        # ``parameter_patterns_by_server`` and ``active_windows_by_server``.
        self._patterns_by_server: dict[str, frozenset[tuple[str, ...]]] | None = None
        self._windows_by_server: dict[str, frozenset[int]] | None = None

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns[_HOST])

    def __iter__(self) -> Iterator[HttpRequest]:
        return map(HttpRequest, *self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HttpTrace):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:  # traces are hashable as value objects
        return hash(self._columns)

    def __repr__(self) -> str:
        return f"HttpTrace(name={self.name!r}, requests={len(self)})"

    def __getstate__(self) -> dict[str, object]:
        """Pickle only the columns, not the cached inverted indices.

        The indices are derived state, rebuilt lazily (and
        deterministically) on first use; shipping them to process-pool
        workers would double the payload of every per-dimension mining
        job for data the worker can re-derive in linear time.
        """
        state = self.__dict__.copy()
        for key in (
            "_clients_by_server",
            "_files_by_server",
            "_ips_by_server",
            "_requests_by_server",
            "_servers_by_client",
            "_servers",
            "_patterns_by_server",
            "_windows_by_server",
        ):
            state[key] = None
        return state

    @property
    def columns(self) -> tuple[tuple, ...]:
        """All columns, in :data:`~repro.httplog.records.FIELDS` order."""
        return self._columns

    def column(self, field: str) -> tuple:
        """One field's values in trace order (e.g. ``column("host")``)."""
        return self._columns[_COLUMN_OF[field]]

    @property
    def requests(self) -> tuple[HttpRequest, ...]:
        """The requests as records, built on every access."""
        return tuple(self)

    def iter_dicts(self) -> Iterator[dict[str, object]]:
        """Every request as its :meth:`HttpRequest.to_dict` mapping, in order."""
        return map(record_dict, *self._columns)

    # -- derived views ------------------------------------------------------------

    def map_hosts(self, mapper: Callable[[str], str], name: str | None = None) -> "HttpTrace":
        """Return a new trace with every host renamed through *mapper*.

        Used by preprocessing to aggregate FQDNs to second-level domains.
        *mapper* runs once per distinct host, in first-seen order; only
        the host column changes (``server_ip`` is preserved) and every
        other column is shared with this trace.
        """
        hosts = self._columns[_HOST]
        renamed: dict[str, str] = {}
        for host in dict.fromkeys(hosts):
            new_host = mapper(host)
            if not new_host:
                raise ValueError("HttpRequest.host must be non-empty")
            renamed[host] = host if new_host == host else new_host
        columns = list(self._columns)
        columns[_HOST] = tuple(map(renamed.__getitem__, hosts))
        return HttpTrace.from_columns(columns, name=name or self.name)

    def filter_servers(self, keep: Callable[[str], bool], name: str | None = None) -> "HttpTrace":
        """Return a new trace keeping only requests whose host passes *keep*.

        *keep* runs once per distinct host.  Per-server indices this
        trace has already built are *derived* for the filtered trace by
        dropping the removed servers' keys — a server-level filter
        cannot change any surviving server's client, file or IP sets, so
        the derivation is exactly what a fresh build over the kept
        requests would produce, minus the request re-scan (and, for the
        file index, minus re-parsing every URI).
        """
        hosts = self._columns[_HOST]
        verdict = {host: bool(keep(host)) for host in dict.fromkeys(hosts)}
        mask = list(map(verdict.__getitem__, hosts))
        if all(mask):
            columns = self._columns
        else:
            columns = tuple(tuple(compress(column, mask)) for column in self._columns)
        filtered = HttpTrace.from_columns(columns, name=name or self.name)
        if self._clients_by_server is not None:
            kept_servers = {
                server for server in self._clients_by_server if verdict.get(server, False)
            }
            filtered._clients_by_server = {
                server: clients
                for server, clients in self._clients_by_server.items()
                if server in kept_servers
            }
            filtered._servers = frozenset(kept_servers)
            if self._servers_by_client is not None:
                servers_of: dict[str, frozenset[str]] = {}
                for client, servers in self._servers_by_client.items():
                    surviving = servers & kept_servers
                    if surviving:
                        servers_of[client] = (
                            servers if len(surviving) == len(servers) else surviving
                        )
                filtered._servers_by_client = servers_of
            if self._ips_by_server is not None:
                filtered._ips_by_server = {
                    server: ips
                    for server, ips in self._ips_by_server.items()
                    if server in kept_servers
                }
        if self._files_by_server is not None:
            filtered._files_by_server = {
                server: files
                for server, files in self._files_by_server.items()
                if verdict.get(server, False)
            }
        return filtered

    def restrict_to_servers(self, servers: Iterable[str]) -> "HttpTrace":
        """Convenience wrapper over :meth:`filter_servers` for a fixed set."""
        allowed = frozenset(servers)
        return self.filter_servers(lambda host: host in allowed)

    def slice(self, start: int, stop: int, name: str | None = None) -> "HttpTrace":
        """The requests ``[start, stop)`` as a new trace (columns sliced)."""
        return HttpTrace.from_columns(
            [column[start:stop] for column in self._columns], name=name or self.name
        )

    # -- inverted indices ---------------------------------------------------------

    def _build_indices(self) -> None:
        """Build the set-valued indices (clients, IPs, client->servers).

        The URI-file index (the only one that *parses*) and the
        per-server request lists (the only one that materialises request
        records) are built separately on first use, so the preprocess
        stages — which look at clients and hosts only — never pay for
        them on traces that are about to be aggregated or filtered away.
        Each distinct (host, value) pair is visited once, in first-seen
        order, so every dict and set fills in trace order.
        """
        hosts = self._columns[_HOST]
        clients: dict[str, set[str]] = defaultdict(set)
        ips: dict[str, set[str]] = defaultdict(set)
        servers_of: dict[str, set[str]] = defaultdict(set)
        for host, client in dict.fromkeys(zip(hosts, self._columns[_CLIENT])):
            clients[host].add(client)
            servers_of[client].add(host)
        for host, address in dict.fromkeys(zip(hosts, self._columns[_SERVER_IP])):
            ips[host].add(address)
        self._clients_by_server = {s: frozenset(v) for s, v in clients.items()}
        self._ips_by_server = {s: frozenset(v) for s, v in ips.items()}
        self._servers_by_client = {c: frozenset(v) for c, v in servers_of.items()}

    def _build_request_index(self) -> None:
        per_server: dict[str, list[HttpRequest]] = defaultdict(list)
        for request in self:
            per_server[request.host].append(request)
        self._requests_by_server = {s: tuple(v) for s, v in per_server.items()}

    def _build_file_index(self) -> None:
        # URIs repeat massively across a trace; parse each distinct one
        # once, and visit each distinct (host, URI) pair once.
        files: dict[str, set[str]] = defaultdict(set)
        file_of: dict[str, str] = {}
        for host, uri in dict.fromkeys(zip(self._columns[_HOST], self._columns[_URI])):
            filename = file_of.get(uri)
            if filename is None:
                filename = file_of[uri] = uri_file(uri)
            files[host].add(filename)
        self._files_by_server = {s: frozenset(v) for s, v in files.items()}

    @property
    def clients_by_server(self) -> dict[str, frozenset[str]]:
        """Mapping server -> set of clients that contacted it."""
        if self._clients_by_server is None:
            self._build_indices()
        assert self._clients_by_server is not None
        return self._clients_by_server

    @property
    def files_by_server(self) -> dict[str, frozenset[str]]:
        """Mapping server -> set of URI files requested from it."""
        if self._files_by_server is None:
            self._build_file_index()
        assert self._files_by_server is not None
        return self._files_by_server

    @property
    def ips_by_server(self) -> dict[str, frozenset[str]]:
        """Mapping server -> set of IP addresses it resolved to."""
        if self._ips_by_server is None:
            self._build_indices()
        assert self._ips_by_server is not None
        return self._ips_by_server

    @property
    def requests_by_server(self) -> dict[str, tuple[HttpRequest, ...]]:
        """Mapping server -> all requests sent to it (trace order)."""
        if self._requests_by_server is None:
            self._build_request_index()
        assert self._requests_by_server is not None
        return self._requests_by_server

    @property
    def servers_by_client(self) -> dict[str, frozenset[str]]:
        """Mapping client -> set of servers it contacted."""
        if self._servers_by_client is None:
            self._build_indices()
        assert self._servers_by_client is not None
        return self._servers_by_client

    @property
    def servers(self) -> frozenset[str]:
        if self._servers is None:
            if self._clients_by_server is not None:
                self._servers = frozenset(self._clients_by_server)
            else:
                self._servers = frozenset(self._columns[_HOST])
        return self._servers

    @property
    def clients(self) -> frozenset[str]:
        return frozenset(self.servers_by_client)

    # -- statistics ---------------------------------------------------------------

    def stats(self) -> TraceStats:
        """Compute the Table-I statistics for this trace.

        "# of URI Files" counts distinct (server, URI file) pairs, matching
        the paper's per-server file inventories.
        """
        uri_files = sum(len(files) for files in self.files_by_server.values())
        return TraceStats(
            num_clients=len(self.clients),
            num_requests=len(self),
            num_servers=len(self.servers),
            num_uri_files=uri_files,
        )

    def client_counts(self) -> dict[str, int]:
        """Server -> number of distinct clients (the paper's IDF measure)."""
        return {server: len(clients) for server, clients in self.clients_by_server.items()}

    def time_window(self) -> tuple[float, float]:
        """(min, max) request timestamp; raises on an empty trace."""
        stamps = self._columns[_TIMESTAMP]
        if not stamps:
            raise TraceError("time_window of empty trace")
        return min(stamps), max(stamps)

    # -- composition --------------------------------------------------------------

    @classmethod
    def concat(cls, traces: Sequence["HttpTrace"], name: str = "trace") -> "HttpTrace":
        """Concatenate several traces into one (requests in argument order)."""
        parts = [trace.columns for trace in traces]
        columns = [
            tuple(chain.from_iterable(part[index] for part in parts))
            for index in range(len(FIELDS))
        ]
        return cls.from_columns(columns, name=name)
