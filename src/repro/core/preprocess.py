"""Traffic preprocessing (Section III-A).

Two reductions:

1. **Second-level-domain aggregation** — all FQDNs sharing a registrable
   domain become one server ("a.xyz.com and b.xyz.com both belong to
   xyz.com"); IP-literal servers pass through unchanged.
2. **IDF popularity filter** — servers contacted by more clients than the
   IDF threshold (Appendix A: 200) are globally popular and removed.
   Popularity is measured *after* aggregation, so a CDN's combined client
   base counts against its one aggregated name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PreprocessConfig
from repro.domains.names import normalize_server_name
from repro.domains.publicsuffix import PublicSuffixList
from repro.httplog.trace import HttpTrace


@dataclass(frozen=True)
class PreprocessReport:
    """Volume accounting of the two reduction steps."""

    raw_servers: int
    aggregated_servers: int
    popular_servers_removed: int
    kept_servers: int
    raw_requests: int
    kept_requests: int

    @property
    def aggregation_reduction(self) -> float:
        """Fraction of servers removed by SLD aggregation (paper: ~60%)."""
        if self.raw_servers == 0:
            return 0.0
        return 1.0 - self.aggregated_servers / self.raw_servers

    @property
    def traffic_reduction(self) -> float:
        """Fraction of requests removed overall (paper: ~58.6%)."""
        if self.raw_requests == 0:
            return 0.0
        return 1.0 - self.kept_requests / self.raw_requests


def aggregate_trace(trace: HttpTrace, psl: PublicSuffixList | None = None) -> HttpTrace:
    """Rename every host in *trace* to its aggregated server name.

    :meth:`~repro.httplog.trace.HttpTrace.map_hosts` normalises each
    distinct host once and rewrites only the host column.
    """
    return trace.map_hosts(
        lambda host: normalize_server_name(host, psl), name=f"{trace.name}:aggregated"
    )


def preprocess(
    trace: HttpTrace,
    config: PreprocessConfig | None = None,
    psl: PublicSuffixList | None = None,
) -> tuple[HttpTrace, PreprocessReport]:
    """Apply both preprocessing steps; returns the reduced trace + report."""
    config = config or PreprocessConfig()
    config.validate()

    raw_servers = len(trace.servers)
    raw_requests = len(trace)
    aggregated = aggregate_trace(trace, psl) if config.aggregate_second_level else trace
    aggregated_servers = len(aggregated.servers)

    counts = aggregated.client_counts()
    popular = {
        server
        for server, count in counts.items()
        if count > config.idf_threshold
    }
    too_rare = {
        server
        for server, count in counts.items()
        if count < config.min_clients
    }
    removed = popular | too_rare
    kept = aggregated.filter_servers(
        lambda server: server not in removed,
        name=f"{trace.name}:preprocessed",
    )
    report = PreprocessReport(
        raw_servers=raw_servers,
        aggregated_servers=aggregated_servers,
        popular_servers_removed=len(popular),
        kept_servers=len(kept.servers),
        raw_requests=raw_requests,
        kept_requests=len(kept),
    )
    return kept, report


def idf_distribution(trace: HttpTrace) -> dict[str, int]:
    """Server -> client count, the Figure-9 (Appendix A) distribution.

    Computed on the aggregated trace so the threshold discussion matches
    what the filter actually sees.
    """
    return trace.client_counts()
