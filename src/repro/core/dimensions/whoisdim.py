"""Whois similarity (Section III-B2, Figure 5).

Two registrations are associated when they share **at least two** of the
comparable fields (registrant, address, email, phone, name servers); the
similarity is then

    Whois(Si, Sj) = |shared fields| / |union of present fields|

The two-field minimum exists "to avoid the case that two servers only
share the domain name registration proxy".  We take that one step
further: registrations made through a privacy proxy carry the *proxy's*
contact details, so their contact fields are masked out entirely and only
infrastructure fields (name servers) remain comparable — two proxied
domains never associate on the proxy's identity.

IP-literal servers have no registration and never join this graph.

Candidate pairs come from :func:`sorted_pair_counts` over the
``(field, value)`` posting lists, already in pair order; similarity is
still computed per pair from the two records (a handful of field
comparisons).
"""

from __future__ import annotations

from collections import defaultdict

from repro.config import DimensionConfig
from repro.core.interning import PairStats, sorted_pair_counts
from repro.graph.csr import new_graph
from repro.graph.wgraph import WeightedGraph
from repro.httplog.trace import HttpTrace
from repro.whois.record import WHOIS_FIELDS, WhoisRecord
from repro.whois.registry import WhoisRegistry

#: Contact fields masked when the registration goes through a proxy.
_CONTACT_FIELDS = ("registrant", "address", "email", "phone")

#: Posting lists longer than this are skipped during candidate generation:
#: a value shared by hundreds of registrations (a big hoster's name
#: servers) cannot by itself satisfy the two-field rule, and any pair that
#: *also* shares a rarer field is found through that field's list.
_MAX_POSTING_LIST = 150


def comparable_fields(record: WhoisRecord) -> dict[str, object]:
    """Field name -> value after proxy masking; empty values omitted."""
    fields: dict[str, object] = {}
    for field_name in WHOIS_FIELDS:
        if record.is_proxy and field_name in _CONTACT_FIELDS:
            continue
        value = record.field_value(field_name)
        if value:
            fields[field_name] = value
    return fields


def _similarity_from_fields(
    fields_a: dict[str, object],
    fields_b: dict[str, object],
    min_shared_fields: int,
) -> float:
    shared = sum(
        1
        for field_name, value in fields_a.items()
        if fields_b.get(field_name) == value
    )
    if shared < min_shared_fields:
        return 0.0
    union = len(set(fields_a) | set(fields_b))
    if union == 0:
        return 0.0
    return shared / union


def whois_similarity(
    first: WhoisRecord,
    second: WhoisRecord,
    config: DimensionConfig | None = None,
) -> float:
    """Whois similarity of two records; 0.0 below the shared-field minimum."""
    config = config or DimensionConfig()
    return _similarity_from_fields(
        comparable_fields(first),
        comparable_fields(second),
        config.whois_min_shared_fields,
    )


def build_whois_graph(
    trace: HttpTrace,
    whois: WhoisRegistry,
    config: DimensionConfig | None = None,
) -> WeightedGraph:
    """Build the Whois similarity graph for the servers of *trace*."""
    config = config or DimensionConfig()
    # Canonical node order: trace.servers is a frozenset, so iterating it
    # directly would insert nodes in hash order.
    ordered = sorted(trace.servers)
    graph = new_graph(ordered, config.use_csr)
    width = len(ordered)
    records: dict[int, WhoisRecord] = {}
    for server_id, server in enumerate(ordered):
        record = whois.lookup(server)
        if record is not None:
            records[server_id] = record

    # Comparable fields are computed once per record here and reused for
    # every candidate pair the record participates in.
    fields_of: dict[int, dict[str, object]] = {
        server_id: comparable_fields(record)
        for server_id, record in records.items()
    }

    # Inverted index: (field, value) -> server ids (ascending by build).
    postings: dict[tuple[str, object], list[int]] = defaultdict(list)
    for server_id in sorted(fields_of):
        for field_name, value in fields_of[server_id].items():
            postings[(field_name, value)].append(server_id)

    cap = config.max_group_size
    effective_cap = min(cap, _MAX_POSTING_LIST) if cap else _MAX_POSTING_LIST
    stats = PairStats()
    firsts, seconds, _ = sorted_pair_counts(
        postings.values(), width, effective_cap, stats, graph=graph
    )

    floor = max(config.min_edge_weight, 1e-12)
    min_shared = config.whois_min_shared_fields

    def edges():
        for first, second in zip(firsts, seconds):
            weight = _similarity_from_fields(
                fields_of[first], fields_of[second], min_shared
            )
            if weight >= floor:
                yield first, second, weight

    graph.add_sorted_edges(edges())
    graph.build_stats = {"dimension": "whois", **stats.to_dict()}
    return graph
