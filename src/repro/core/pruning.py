"""Pruning of redirection and referrer groups (Section III-D).

Two benign phenomena create herds that pass correlation:

* **Redirection groups** — servers on one redirect chain share clients,
  IPs and often a redirector URI file;
* **Referrer groups** — servers embedded by one landing page share that
  page's audience.

Rather than dropping these herds (which could hide malicious servers
hiding inside a chain), every chain/referred member is **replaced by its
landing server**: "if a client visits the landing server, it
automatically visits other servers in the redirection chain or the
embedded servers".  ASHs that collapse to fewer than two distinct servers
afterwards are removed.

Redirect chains come from the :class:`~repro.synth.oracles.RedirectOracle`
(the stand-in for the paper's active probing); referrer relations come
from the trace's Referer headers.

The pipeline runs the interned core (:func:`prune_ashes_ids`): ASH
members are integer server ids, and landing servers outside the mined
namespace are appended to the interner, so campaigns downstream keep
working on ids until the results boundary.  Referer values repeat
enormously across a trace, so :func:`dominant_referrers` normalises each
distinct value once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from urllib.parse import urlparse

from repro.config import PruningConfig
from repro.core.interning import Interner
from repro.core.results import CandidateAsh, PruneReport
from repro.domains.names import normalize_server_name
from repro.httplog.trace import HttpTrace
from repro.synth.oracles import RedirectOracle


def _referrer_netloc(referrer: str) -> str:
    """Network-location component of a Referer value.

    For the overwhelmingly common ``http(s)://`` form the netloc is
    sliced out directly (everything up to the first ``/``, ``?`` or
    ``#``), which is exactly what ``urlparse`` returns for those inputs;
    anything else takes the full parser.
    """
    if referrer.startswith("http://"):
        rest = referrer[7:]
    elif referrer.startswith("https://"):
        rest = referrer[8:]
    else:
        parsed = urlparse(referrer if "//" in referrer else f"http://{referrer}")
        return parsed.netloc
    end = len(rest)
    for stop in "/?#":
        position = rest.find(stop, 0, end)
        if position != -1:
            end = position
    return rest[:end]


def referrer_host(
    referrer: str, host_cache: dict[str, str | None] | None = None
) -> str | None:
    """Extract the aggregated server name from a Referer header value.

    ``host_cache`` memoises the normalisation per extracted host —
    :func:`dominant_referrers` passes one so a landing page referenced
    through thousands of distinct URLs is normalised once.
    """
    if not referrer:
        return None
    host = _referrer_netloc(referrer).split(":")[0]
    if not host:
        return None
    if host_cache is not None and host in host_cache:
        return host_cache[host]
    try:
        landing = normalize_server_name(host)
    except ValueError:
        landing = None
    if host_cache is not None:
        host_cache[host] = landing
    return landing


def dominant_referrers(trace: HttpTrace) -> dict[str, str]:
    """server -> the landing server referring most of its requests.

    Only referrers covering more than half of a server's referred requests
    (and distinct from the server itself) count; servers with no external
    referrer are absent.
    """
    hosts = trace.column("host")
    totals = Counter(hosts)
    # A trace repeats a few thousand distinct (server, Referer) pairs
    # over hundreds of thousands of requests: each pair is handled once
    # with its request count, each distinct Referer parsed once and each
    # distinct referrer host normalised once.  Pairs come in first-seen
    # order, so every per-server Counter fills in trace order and
    # most_common's tie-break is the first-seen landing server.
    referrers_of: dict[str, Counter[str]] = defaultdict(Counter)
    landing_of: dict[str, str | None] = {}
    host_cache: dict[str, str | None] = {}
    for (server, referrer), hits in Counter(zip(hosts, trace.column("referrer"))).items():
        if not referrer:
            continue
        if referrer in landing_of:
            landing = landing_of[referrer]
        else:
            landing = referrer_host(referrer, host_cache)
            landing_of[referrer] = landing
        if landing is not None and landing != server:
            referrers_of[server][landing] += hits
    dominant: dict[str, str] = {}
    for server, counts in referrers_of.items():
        landing, hits = counts.most_common(1)[0]
        if hits * 2 > totals[server]:
            dominant[server] = landing
    return dominant


@dataclass(frozen=True)
class EncodedPruneReport:
    """Id-domain :class:`~repro.core.results.PruneReport` (server ids)."""

    redirection_replacements: dict[int, int]
    referrer_replacements: dict[int, int]
    dropped_ashes: int

    def decode(self, interner: Interner) -> PruneReport:
        label_of = interner.label_of
        return PruneReport(
            redirection_replacements={
                label_of(replaced): label_of(landing)
                for replaced, landing in self.redirection_replacements.items()
            },
            referrer_replacements={
                label_of(replaced): label_of(landing)
                for replaced, landing in self.referrer_replacements.items()
            },
            dropped_ashes=self.dropped_ashes,
        )


def prune_ashes_ids(
    ashes: tuple[tuple[int, str, int, frozenset[int]], ...],
    trace: HttpTrace,
    interner: Interner,
    redirects: RedirectOracle | None = None,
    config: PruningConfig | None = None,
    referrer_of: dict[str, str] | None = None,
) -> tuple[tuple[tuple[int, str, int, frozenset[int]], ...], EncodedPruneReport]:
    """Apply both pruning steps to id-domain candidate ASHs.

    Landing servers that are not part of the mined namespace are interned
    on first sight (appended ids), so replacement members stay ids.
    ``referrer_of`` overrides the :func:`dominant_referrers` computation —
    the pipeline derives it once per mined trace and reuses it across
    ``finish`` calls (threshold sweeps, the streaming engine's
    two-threshold day).
    """
    config = config or PruningConfig()
    config.validate()
    redirect_oracle = redirects or RedirectOracle()
    if referrer_of is None:
        referrer_of = (
            dominant_referrers(trace) if config.prune_referrer_groups else {}
        )

    redirection_replacements: dict[int, int] = {}
    referrer_replacements: dict[int, int] = {}
    kept: list[tuple[int, str, int, frozenset[int]]] = []
    dropped = 0
    label_of = interner.label_of
    intern = interner.intern
    prune_redirection = config.prune_redirection_groups

    for main_index, dimension, secondary_index, servers in ashes:
        members: set[int] = set()
        # Sorted so the replacement dicts fill in data order, not frozenset
        # hash order.
        for server_id in sorted(servers):
            server = label_of(server_id)
            replacement_id = server_id
            if prune_redirection:
                landing = redirect_oracle.landing_server(server)
                if landing is not None and landing != server:
                    replacement_id = intern(landing)
                    redirection_replacements[server_id] = replacement_id
            if replacement_id == server_id and server in referrer_of:
                replacement_id = intern(referrer_of[server])
                referrer_replacements[server_id] = replacement_id
            members.add(replacement_id)
        if len(members) >= 2:
            kept.append((main_index, dimension, secondary_index, frozenset(members)))
        else:
            dropped += 1

    report = EncodedPruneReport(
        redirection_replacements=redirection_replacements,
        referrer_replacements=referrer_replacements,
        dropped_ashes=dropped,
    )
    return tuple(kept), report


def prune_ashes(
    ashes: tuple[CandidateAsh, ...],
    trace: HttpTrace,
    redirects: RedirectOracle | None = None,
    config: PruningConfig | None = None,
) -> tuple[tuple[CandidateAsh, ...], PruneReport]:
    """Label-domain wrapper over :func:`prune_ashes_ids`."""
    interner = Interner(
        server for ash in ashes for server in ash.servers
    )
    encoded = tuple(
        (ash.main_index, ash.secondary_dimension, ash.secondary_index,
         interner.encode_set(ash.servers))
        for ash in ashes
    )
    kept, report = prune_ashes_ids(encoded, trace, interner, redirects, config)
    decoded = tuple(
        CandidateAsh(
            main_index=main_index,
            secondary_dimension=dimension,
            secondary_index=secondary_index,
            servers=interner.decode_set(members),
        )
        for main_index, dimension, secondary_index, members in kept
    )
    return decoded, report.decode(interner)
