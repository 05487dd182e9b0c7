"""Sharded map-reduce mining over trace partitions.

One :meth:`~repro.core.pipeline.SmashPipeline.mine` call used to hold
the whole window's trace *and* every per-dimension index and pair
counter in memory at once, which caps mining at single-host window
size.  This module rebuilds the mine path as a deterministic two-level
map-reduce whose peak mining state is bounded by shard size plus merge
state:

**Map (phase A — index extraction).**  A trace given in memory is cut
into ``shards`` contiguous slices (day-partition-aligned when the
streaming window provides boundaries); a store-direct mine maps each
window partition on its own.  Each map job reads its input's columns,
applying the same SLD aggregation as :func:`~repro.core.preprocess.preprocess`,
and emits inverted-index partials (clients / IPs / URI files / optional
parameter patterns and time windows, per server) keyed by the
**namespace-stable** ids of :class:`~repro.core.interning.StableInterner`
— a pure content hash of the server label, so map workers agree on
every id with no global pass and no coordination.  Partials are spilled
to a digest-verified :class:`~repro.stream.store.PartialStore`
immediately, so even a serial map phase never holds more than one
job's indexes.

**Reduce (merge).**  Partials are merged one at a time in canonical
order (slice order, or day order): vocabularies union with collision
detection, index sets union, request counts add.  The IDF/min-clients
filter runs on the merged client sets, the
:class:`~repro.core.preprocess.PreprocessReport` falls out of the merged
accounting, and the preprocessed trace is assembled exactly as
``preprocess()`` builds it — with the merged indexes injected into its
cache slots, so no downstream consumer re-scans the window to rebuild
what the map jobs already extracted.  After the merge the surviving
namespace is re-keyed once into the dense canonical
:class:`~repro.core.interning.Interner` order (a namespace-sized pass,
not a trace pass); everything downstream runs in exactly the id domain
the single-shard mine uses.

**Map (phase C — pair partials).**  On a pool that runs jobs
concurrently, candidate-pair accumulation — the quadratic heart of
every dimension — runs partition-parallel: each dimension's sharing
groups are hash-partitioned into one bucket per pool worker by group
content, each bucket becomes an
:func:`~repro.core.interning.accumulate_pair_counts` job on the shared
:class:`~repro.util.parallel.JobPool`, and the per-bucket counters are
spilled and merged in bucket order.  Because every group lands in
exactly one bucket and counter addition is commutative, the merged
counts — and therefore the built graphs, the Louvain herds, and the
final campaigns — are **byte-identical to the single-shard mine under
any ``PYTHONHASHSEED``** (test-enforced in subprocesses).  A pool that
runs one job at a time gains nothing from buckets, so there the
builders count pairs in-process, unspilled, exactly as the single pass
does.  Louvain then fans out per dimension on the same pool.

The splice point is :meth:`SmashPipeline.mine(shards=N)
<repro.core.pipeline.SmashPipeline.mine>` /
:class:`~repro.config.SmashConfig` ``shards``; the
:class:`~repro.core.pipeline.DimensionCache` contract is preserved
(signatures are computed on the assembled prepared trace, so sharded
and single-shard mines hit the same cache entries).

**Out-of-core mode** (``SmashConfig.out_of_core``, forced when the mine
is given partition references instead of a trace) removes the two
remaining places the coordinator held raw requests:

* **Store-direct map jobs, each day mapped once.**  The day partition
  is the unit of map work.  A map job is a small JSON *spec* naming one
  ``(day, digest)`` partition reference into the
  :class:`~repro.stream.store.TraceStore`; the worker loads (and digest-
  verifies) that partition, extracts, spills, and reports back nothing
  but the partial's ``(name, digest)``.  Once the retry loop has
  verified the spill, the coordinator moves it into the store's
  :class:`~repro.stream.store.MapOutputStore`, keyed by the partition
  digest and the extraction settings (:func:`map_output_key`), with
  the sha256 of its bytes in its name.  A partition whose output is
  already there is not mapped again: a window advance maps only the
  entering day, and a stream resumed from a checkpoint maps only the
  days it never mapped — the per-split reuse of Slider (Bhatotia et
  al., *Slider: Incremental Sliding Window Analytics*, Middleware
  2014), merged linearly because windows are short.  A stored output
  that fails its digest check is quarantined and the day re-mapped.
  The payload holds nothing but what the partition and the extraction
  settings determine, so its bytes are the same whichever window
  position, mine or process mapped it.
* **Hollow reduce.**  The merge builds an :class:`IndexOnlyTrace` — the
  prepared trace's indexes and scalars without its requests.  Reduce-side
  consumers that genuinely need window-wide request facts get them from
  small per-shard summaries instead: request counts ride in the partials
  and the dominant-referrer map (the one ``finish``-stage request scan)
  is folded from per-partition referrer counters and pre-seeded into
  ``MinedDimensions.stage_cache``.  Any code path that would actually
  touch raw requests on the hollow trace raises loudly.

**Dispatch seam.**  How map jobs execute is delegated to a
:class:`~repro.core.dispatch.ShardDispatcher` (``SmashConfig.dispatch``):
inline on the shared pool (the default), serially in the coordinator, or
in warm worker subprocesses speaking the store-paths + digests contract a
remote worker would use (the pipeline's ``shard_workers``, reused across
its mines).  Reduce, pair accumulation and Louvain always
run on the coordinator's pool; dispatch only moves the map phase.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time

from collections import Counter, defaultdict
from functools import partial
from pathlib import Path

from repro.config import SmashConfig
from repro.core.ashmining import MiningOutcome, mine_herds
from repro.core.dimensions.client import build_client_graph_from_indices
from repro.core.dispatch import make_dispatcher
from repro.core.faults import RetryPolicy, fire_after_spill, fire_before_load
from repro.core.dimensions.ipset import build_ipset_graph
from repro.core.dimensions.timedim import DEFAULT_WINDOW_SECONDS, build_time_graph
from repro.core.dimensions.urifile import build_urifile_graph
from repro.core.dimensions.urlparam import build_urlparam_graph
from repro.core.dimensions.whoisdim import build_whois_graph
from repro.core.interning import (
    Interner,
    PairStats,
    StableInterner,
    accumulate_pair_counts,
    resolve_auto_cap,
)
from repro.core.preprocess import PreprocessReport, aggregate_trace
from repro.core.pruning import referrer_host
from repro.core.results import MAIN_DIMENSION
from repro.domains.names import normalize_server_name
from repro.errors import PipelineError
from repro.httplog.trace import HttpTrace
from repro.httplog.uri import query_parameter_names, uri_file
from repro.stream.store import PartialStore, TraceStore
from repro.util.parallel import JobPool

__all__ = [
    "MAP_FORMAT",
    "mine_sharded",
    "map_output_key",
    "run_shard_job",
    "IndexOnlyTrace",
    "ShardedAccumulator",
    "shard_ranges",
]

#: Version of the map-output payload :func:`run_shard_job` writes; part
#: of every stored output's key, so a change here never reads old bytes.
MAP_FORMAT = 1

#: The spec fields a map output depends on, besides its partition.
EXTRACTION_FIELDS = (
    "aggregate",
    "want_patterns",
    "want_windows",
    "want_referrers",
    "window_seconds",
)


# -- shard planning -----------------------------------------------------------------


def shard_ranges(
    total: int, shards: int, boundaries: tuple[int, ...] | None = None
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` request ranges for the map phase.

    Without *boundaries* the requests are split evenly.  With
    *boundaries* (per-day request counts from the streaming window, in
    trace order) shard cuts only fall on day-partition edges, so each
    shard job corresponds to whole stored partitions — the
    partition-scoped load path.  Fewer days than shards simply yields
    fewer (day-sized) shards.
    """
    if total <= 0:
        return []
    shards = max(1, min(shards, total))
    if boundaries and len(boundaries) > 1 and sum(boundaries) == total:
        segments = len(boundaries)
        groups = min(shards, segments)
        offsets = [0]
        for length in boundaries:
            offsets.append(offsets[-1] + length)
        ranges = []
        for group in range(groups):
            first = group * segments // groups
            last = (group + 1) * segments // groups
            if offsets[first] < offsets[last]:
                ranges.append((offsets[first], offsets[last]))
        return ranges
    return [
        (index * total // shards, (index + 1) * total // shards)
        for index in range(shards)
        if index * total // shards < (index + 1) * total // shards
    ]


def map_output_key(day: int, digest: str, extraction: dict) -> str:
    """Store key of one partition's map output under *extraction*.

    A hash of the partition digest, the :data:`EXTRACTION_FIELDS` of
    *extraction* and :data:`MAP_FORMAT`, prefixed by the day for the
    reader of a store listing: outputs made under different settings
    never share a key.
    """
    document = json.dumps(
        {
            "format": MAP_FORMAT,
            "partition": digest,
            **{name: extraction[name] for name in EXTRACTION_FIELDS},
        },
        sort_keys=True,
    )
    return f"day-{day:05d}-{hashlib.sha256(document.encode('utf-8')).hexdigest()[:32]}"


# -- phase A: per-job index extraction ----------------------------------------------


def _resolve_source(spec: dict) -> HttpTrace:
    """Materialise one map job's input trace from its source spec.

    ``inline`` carries a live :class:`HttpTrace` (same-address-space
    dispatchers only); ``store`` names one day partition, ``partitions:
    [[day, digest]]``, in a :class:`~repro.stream.store.TraceStore`,
    whose trace alone is loaded (its sidecars are hashed, not parsed);
    ``spill`` names a coordinator-spilled request partial by ``(name,
    digest)``.  Every store/spill load is digest-verified, so a corrupt
    input fails the job with a :class:`~repro.errors.StreamError`
    instead of skewing the merge.
    """
    source = spec["source"]
    kind = source.get("kind")
    if kind == "inline":
        return source["trace"]
    if kind == "store":
        ((day, digest),) = source["partitions"]
        return TraceStore(source["root"]).get_trace(int(day), digest=str(digest))
    if kind == "spill":
        payload = PartialStore(source["root"]).load(source["name"], source["digest"])
        return HttpTrace.from_columns(
            payload["columns"], name=str(source.get("trace_name", "shard"))
        )
    raise PipelineError(f"unknown shard-job source kind {kind!r}")


def run_shard_job(spec: dict) -> dict:
    """One map job: extract its input's inverted-index partial and spill it.

    *spec* is JSON-compatible apart from an ``inline`` source's trace
    (see :func:`_resolve_source`), so the same function serves the
    in-process dispatchers and the subprocess worker
    (:mod:`repro.core.shardworker`).  The heavy payload travels through
    the digest-verified :class:`PartialStore`; the returned dict carries
    only the partial's identity plus small accounting.  The payload
    depends on the input's requests and the :data:`EXTRACTION_FIELDS`
    alone — not on the job's index — so a stored map output is the same
    bytes whichever job wrote it.

    A retrying dispatcher overrides the spill name per attempt via
    ``spec["spill_name"]`` (fresh names keep a dead attempt's bytes from
    shadowing a later good one), and ``spec["fault"]`` — set only by an
    explicit :class:`~repro.core.faults.FaultPlan` — triggers the
    deterministic injection hooks at job entry and after the spill.
    """
    tick = time.perf_counter()
    shard = int(spec["shard"])
    fault = spec.get("fault")
    fire_before_load(fault, shard)
    trace = _resolve_source(spec)
    aggregate = bool(spec["aggregate"])
    want_patterns = bool(spec["want_patterns"])
    want_windows = bool(spec["want_windows"])
    want_referrers = bool(spec.get("want_referrers", False))
    window_seconds = float(spec["window_seconds"])

    # One pass per column over distinct values: each distinct host is
    # normalised once, each distinct (host, value) pair visited once, in
    # first-seen order — so every dict below fills in the order a
    # per-request scan would fill it, and the spilled payload is the same.
    hosts = trace.column("host")
    vocab = StableInterner()
    sid_of_host: dict[str, tuple[int, str]] = {}
    for host in dict.fromkeys(hosts):
        label = normalize_server_name(host) if aggregate else host
        sid_of_host[host] = (vocab.intern(label), label)
    clients: dict[int, set[str]] = {sid: set() for sid, _ in sid_of_host.values()}
    ips: dict[int, set[str]] = {sid: set() for sid in clients}
    files: dict[int, set[str]] = {sid: set() for sid in clients}
    patterns: dict[int, set[tuple[str, ...]]] = defaultdict(set)
    windows: dict[int, set[int]] = defaultdict(set)
    counts: Counter[int] = Counter()
    for host, hits in Counter(hosts).items():
        counts[sid_of_host[host][0]] += hits
    for host, client in dict.fromkeys(zip(hosts, trace.column("client"))):
        clients[sid_of_host[host][0]].add(client)
    for host, address in dict.fromkeys(zip(hosts, trace.column("server_ip"))):
        ips[sid_of_host[host][0]].add(address)
    file_of_uri: dict[str, str] = {}
    names_of_uri: dict[str, tuple[str, ...]] = {}
    for host, uri in dict.fromkeys(zip(hosts, trace.column("uri"))):
        sid = sid_of_host[host][0]
        filename = file_of_uri.get(uri)
        if filename is None:
            filename = file_of_uri[uri] = uri_file(uri)
        files[sid].add(filename)
        if want_patterns:
            names = names_of_uri.get(uri)
            if names is None:
                names = names_of_uri[uri] = query_parameter_names(uri)
            if names:
                patterns[sid].add(names)
    if want_windows:
        for host, stamp in zip(hosts, trace.column("timestamp")):
            windows[sid_of_host[host][0]].add(int(stamp // window_seconds))
    # Referrer summaries mirror pruning.dominant_referrers: per server
    # (aggregated label), count requests per external landing server, in
    # first-seen order — contiguous inputs merged in trace order then
    # reproduce the whole-trace first-seen order, so the reduce-side
    # dominant pick matches Counter.most_common's tie-break exactly.
    referrers: dict[int, dict[str, int]] = {}
    if want_referrers:
        landing_of: dict[str, str | None] = {}
        host_cache: dict[str, str | None] = {}
        pairs = Counter(zip(hosts, trace.column("referrer")))
        for (host, referrer), hits in pairs.items():
            if not referrer:
                continue
            if referrer in landing_of:
                landing = landing_of[referrer]
            else:
                landing = referrer_host(referrer, host_cache)
                landing_of[referrer] = landing
            sid, label = sid_of_host[host]
            if landing is not None and landing != label:
                entries = referrers.get(sid)
                if entries is None:
                    entries = referrers[sid] = {}
                entries[landing] = entries.get(landing, 0) + hits

    payload: dict[str, object] = {
        "requests": len(trace),
        "raw_hosts": sorted(sid_of_host),
        "vocab": {str(sid): label for sid, label in vocab.to_dict().items()},
        "clients": {str(sid): sorted(found) for sid, found in clients.items()},
        "ips": {str(sid): sorted(found) for sid, found in ips.items()},
        "files": {str(sid): sorted(found) for sid, found in files.items()},
        "counts": {str(sid): count for sid, count in counts.items()},
    }
    if want_patterns:
        payload["patterns"] = {
            str(sid): sorted(list(pattern) for pattern in found)
            for sid, found in patterns.items()
        }
    if want_windows:
        payload["windows"] = {str(sid): sorted(found) for sid, found in windows.items()}
    if want_referrers:
        # Insertion order is data, not cosmetics (see above); JSON
        # round-trips object key order, so it survives the spill.
        payload["referrers"] = {
            str(sid): [[landing, count] for landing, count in entries.items()]
            for sid, entries in referrers.items()
        }
    name = str(spec.get("spill_name") or f"index-{shard:04d}")
    spill = PartialStore(spec["spill_root"])
    digest, spilled = spill.put(name, payload)
    fire_after_spill(fault, spill.path_of(name), shard)
    return {
        "shard": shard,
        "name": name,
        "digest": digest,
        "spilled": spilled,
        "requests": len(trace),
        "seconds": time.perf_counter() - tick,
    }


class _MergedIndexes:
    """Reduce-side accumulator for phase-A partials (one at a time)."""

    def __init__(self) -> None:
        self.vocab = StableInterner()
        self.clients: dict[int, set[str]] = defaultdict(set)
        self.ips: dict[int, set[str]] = defaultdict(set)
        self.files: dict[int, set[str]] = defaultdict(set)
        self.patterns: dict[int, set[tuple[str, ...]]] = defaultdict(set)
        self.windows: dict[int, set[int]] = defaultdict(set)
        self.counts: Counter[int] = Counter()
        self.raw_hosts: set[str] = set()
        self.requests = 0
        #: server id -> landing server -> referred-request count, in
        #: global first-seen order (partials merge in trace order and
        #: cover contiguous slices or whole days, so appending each
        #: partial's first-seen entries reproduces the whole-trace order).
        self.referrers: dict[int, dict[str, int]] = {}

    def merge(self, payload: dict) -> None:
        self.requests += int(payload["requests"])
        self.raw_hosts.update(payload["raw_hosts"])
        self.vocab.merge({int(sid): label for sid, label in payload["vocab"].items()})
        for attribute in ("clients", "ips", "files"):
            target = getattr(self, attribute)
            for sid, found in payload[attribute].items():
                target[int(sid)].update(found)
        for sid, count in payload["counts"].items():
            self.counts[int(sid)] += count
        for sid, found in payload.get("patterns", {}).items():
            self.patterns[int(sid)].update(tuple(pattern) for pattern in found)
        for sid, found in payload.get("windows", {}).items():
            self.windows[int(sid)].update(found)
        for sid, entries in payload.get("referrers", {}).items():
            target_entries = self.referrers.setdefault(int(sid), {})
            for landing, count in entries:
                target_entries[landing] = target_entries.get(landing, 0) + int(count)


# -- phase C: partition-parallel pair accumulation ----------------------------------


def _bucket_of(group: list[int], buckets: int) -> int:
    """Deterministic, hash-seed-independent bucket of one sharing group."""
    digest = hashlib.blake2b(",".join(map(str, group)).encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % buckets


def _pair_chunk_job(
    groups: list[list[int]],
    width: int,
    cap: int,
    spill_root: str,
    name: str,
) -> tuple[str, str, int, dict[str, int], float]:
    """One reduce-input job: accumulate one bucket's pair counts and spill.

    Returns ``(name, digest, spill bytes, stats, seconds)``; the counter
    itself travels through the :class:`PartialStore`.
    """
    tick = time.perf_counter()
    stats = PairStats()
    counts = accumulate_pair_counts(groups, width, cap=cap, stats=stats)
    payload = {
        "counts": sorted(counts.items()),
        "stats": stats.to_dict(),
    }
    digest, spilled = PartialStore(spill_root).put(name, payload)
    return name, digest, spilled, stats.to_dict(), time.perf_counter() - tick


class ShardedAccumulator:
    """Drop-in for :func:`~repro.core.interning.accumulate_pair_counts`
    that fans the quadratic work out over the shared pool.

    Groups are hash-partitioned by content into ``buckets`` chunks; each
    chunk runs the real accumulator (same cap, its own
    :class:`~repro.core.interning.PairStats`) and spills its counter;
    the chunks merge in bucket order.  Every group lands in exactly one
    bucket and counter addition is commutative, so the merged counts
    equal the single-pass counts for any bucket assignment — and the
    folded stats match too (``candidate_pairs`` is recomputed as the
    merged counter's size, since one pair can surface in several
    buckets).  The sharded mine builds one only for a pool that runs
    jobs concurrently, with one bucket per pool worker.
    """

    def __init__(
        self,
        pool: JobPool,
        buckets: int,
        spill_root: str | Path,
        dimension: str,
        recorder=None,
    ) -> None:
        self.pool = pool
        self.buckets = max(1, buckets)
        self.spill_root = str(spill_root)
        self.dimension = dimension
        self.recorder = recorder

    def __call__(
        self,
        groups,
        width: int,
        cap: int = 0,
        stats: PairStats | None = None,
        auto_cap: int = 0,
    ) -> Counter[int]:
        chunks: list[list[list[int]]] = [[] for _ in range(self.buckets)]
        sizes: list[int] = []
        for group in groups:
            members = list(group)
            sizes.append(len(members))
            chunks[_bucket_of(members, self.buckets)].append(members)
        if auto_cap > 0 and not cap:
            # Same pure function of the full group-size distribution the
            # single-pass accumulator applies, so the sharded mine makes
            # the identical capping decision and stays byte-identical.
            cap = resolve_auto_cap(sizes, cap, auto_cap)
            if stats is not None:
                stats.auto_cap = cap
        jobs = []
        for bucket, chunk in enumerate(chunks):
            if not chunk:
                continue
            name = f"pairs-{self.dimension}-{bucket:04d}"
            jobs.append(partial(_pair_chunk_job, chunk, width, cap, self.spill_root, name))
        results = self.pool.run(jobs)

        merged: Counter[int] = Counter()
        store = PartialStore(self.spill_root)
        recorder = self.recorder
        for name, digest, spilled, chunk_stats, seconds in results:
            payload = store.load(name, digest)
            store.delete(name)
            merged.update(dict(payload["counts"]))
            if stats is not None:
                stats.groups += chunk_stats["groups"]
                stats.skipped_groups += chunk_stats["skipped_groups"]
                stats.enumerated_pairs += chunk_stats["enumerated_pairs"]
                if chunk_stats["largest_group"] > stats.largest_group:
                    stats.largest_group = chunk_stats["largest_group"]
            if recorder is not None and recorder.enabled:
                recorder.record_span(
                    "pipeline.mine.pair_partial",
                    seconds,
                    {
                        "dimension": self.dimension,
                        "partial": name,
                        "spill_bytes": spilled,
                        **chunk_stats,
                    },
                )
                recorder.counter(
                    "smash_shard_pair_partials_total",
                    "Pair-count partials accumulated by the sharded mine.",
                    labels=("dimension",),
                ).labels(dimension=self.dimension).inc()
                recorder.counter(
                    "smash_shard_spill_bytes_total",
                    "Bytes of sharded-mine partials spilled, by kind.",
                    labels=("kind",),
                ).labels(kind="pairs").inc(spilled)
        if stats is not None:
            stats.candidate_pairs = len(merged)
        return merged


# -- Louvain jobs (module-level for pickling) ---------------------------------------


def _louvain_secondary_job(graph, dimension: str, config: SmashConfig) -> MiningOutcome:
    return mine_herds(graph, dimension, config.louvain)


def _louvain_main_job(
    graph,
    single_client_servers: set[str],
    clients_by_server: dict[str, frozenset[str]],
    config: SmashConfig,
) -> MiningOutcome:
    from repro.core.pipeline import _append_single_client_herds

    main = mine_herds(graph, MAIN_DIMENSION, config.louvain)
    return _append_single_client_herds(main, single_client_servers, clients_by_server)


# -- the sharded mine ---------------------------------------------------------------


class IndexOnlyTrace(HttpTrace):
    """A prepared trace holding inverted indexes but no raw requests.

    The out-of-core reduce builds every per-dimension graph (and every
    content signature) from the merged shard indexes; the scalar facts
    consumers legitimately need — request count, server namespace — are
    injected.  Any path that would actually read raw requests raises a
    :class:`~repro.errors.PipelineError`: silently iterating an empty
    request tuple would corrupt results, failing loudly turns a missed
    consumer into a test failure instead.
    """

    def __init__(self, name: str, num_requests: int) -> None:
        self.name = name
        self._clear_indices()
        self._num_requests = num_requests

    def _no_requests(self) -> PipelineError:
        return PipelineError(
            f"trace {self.name!r} is index-only (out-of-core mine): raw "
            "requests were never assembled in the coordinator"
        )

    @property
    def _columns(self):
        # Every request-level read of HttpTrace goes through the columns.
        raise self._no_requests()

    def __len__(self) -> int:
        return self._num_requests

    @property
    def requests_by_server(self):
        raise self._no_requests()


def _assemble_hollow(
    merged: _MergedIndexes,
    config: SmashConfig,
    trace_name: str,
    want_patterns: bool,
    want_windows: bool,
    want_referrers: bool,
) -> tuple[HttpTrace, PreprocessReport, dict[int, str], dict[str, str]]:
    """Finish preprocessing without ever materialising the window trace.

    The out-of-core counterpart of :func:`_assemble_prepared`: identical
    IDF/min-clients filtering on the merged client sets and identical
    injected indexes, but the prepared trace is an
    :class:`IndexOnlyTrace` — no request is ever resident in the
    coordinator.  Also folds the per-shard referrer summaries into the
    ``dominant_referrers`` map the finish stage would otherwise derive
    by scanning the prepared trace (same majority rule, same
    ``most_common`` tie-break via first-seen insertion order).
    """
    pre = config.preprocess
    label_of = merged.vocab.to_dict()
    popular = {sid for sid, clients in merged.clients.items() if len(clients) > pre.idf_threshold}
    too_rare = {sid for sid, clients in merged.clients.items() if len(clients) < pre.min_clients}
    kept = {
        sid: label
        for sid, label in label_of.items()
        if sid not in popular and sid not in too_rare
    }

    kept_requests = sum(merged.counts[sid] for sid in kept)
    prepared = IndexOnlyTrace(f"{trace_name}:preprocessed", kept_requests)
    order = sorted(kept, key=lambda sid: kept[sid])
    clients_by_server = {kept[sid]: frozenset(merged.clients[sid]) for sid in order}
    servers_of: dict[str, set[str]] = defaultdict(set)
    for label, clients in clients_by_server.items():
        for client in clients:
            servers_of[client].add(label)
    prepared._clients_by_server = clients_by_server
    prepared._ips_by_server = {kept[sid]: frozenset(merged.ips[sid]) for sid in order}
    prepared._files_by_server = {kept[sid]: frozenset(merged.files[sid]) for sid in order}
    prepared._servers_by_client = {
        client: frozenset(found) for client, found in servers_of.items()
    }
    prepared._servers = frozenset(clients_by_server)
    if want_patterns:
        # Only servers with >= 1 parameterised request, matching
        # parameter_patterns_by_server's scan output on the kept trace.
        prepared._patterns_by_server = {
            kept[sid]: frozenset(merged.patterns[sid])
            for sid in order
            if merged.patterns.get(sid)
        }
    if want_windows:
        # Every kept server has >= 1 request, hence >= 1 active window.
        prepared._windows_by_server = {
            kept[sid]: frozenset(merged.windows[sid]) for sid in order
        }

    referrer_of: dict[str, str] = {}
    if want_referrers:
        for sid in order:
            entries = merged.referrers.get(sid)
            if not entries:
                continue
            landing, hits = max(entries.items(), key=lambda item: item[1])
            if hits * 2 > merged.counts[sid]:
                referrer_of[kept[sid]] = landing

    report = PreprocessReport(
        raw_servers=len(merged.raw_hosts),
        aggregated_servers=len(label_of),
        popular_servers_removed=len(popular),
        kept_servers=len(kept),
        raw_requests=merged.requests,
        kept_requests=kept_requests,
    )
    return prepared, report, kept, referrer_of


def _map_partitions(
    partitions,
    store_root,
    boundaries: tuple[int, ...],
    extraction: dict,
    spill: PartialStore,
    dispatcher,
) -> tuple[list[dict], list]:
    """Map the window partitions with no stored output; load them all.

    One map job per partition whose output the store lacks (job index =
    the partition's position in the window); each verified spill is
    moved into the store's :class:`~repro.stream.store.MapOutputStore`.
    Returns the jobs' results and one loader per partition, in day
    order, each reading its stored output digest-verified.
    """
    refs = [(int(day), str(digest)) for day, digest in partitions]
    if len(refs) != len(boundaries):
        raise PipelineError(
            f"store-direct mining got {len(refs)} partitions but "
            f"{len(boundaries)} shard boundaries; they must correspond 1:1"
        )
    maps = TraceStore(store_root).map_outputs()
    keys = [map_output_key(day, digest, extraction) for day, digest in refs]
    names = [maps.find(key) for key in keys]
    specs = [
        {
            "shard": index,
            "source": {
                "kind": "store",
                "root": str(store_root),
                "partitions": [[day, digest]],
            },
            "spill_root": str(spill.root),
            **extraction,
        }
        for index, ((day, digest), name) in enumerate(zip(refs, names))
        if name is None
    ]
    results = dispatcher.run(specs)
    for result in results:
        index = int(result["shard"])
        names[index] = maps.promote(
            spill.path_of(result["name"]), keys[index], result["digest"]
        )
    # An output's name ends in the sha256 of its bytes.
    return results, [
        partial(maps.load, name, name.rpartition(".")[2]) for name in names
    ]


def _map_trace(
    trace: HttpTrace,
    shards: int,
    boundaries: tuple[int, ...] | None,
    extraction: dict,
    spill: PartialStore,
    dispatcher,
) -> tuple[list[dict], list]:
    """Map a trace given in memory as ``shards`` slices; load the spills.

    Returns the jobs' results and one loader per slice, in trace order,
    each reading its spill digest-verified and then deleting it.
    """
    specs = []
    input_partials: list[str] = []
    for index, (start, stop) in enumerate(shard_ranges(len(trace), shards, boundaries)):
        shard_trace = trace.slice(start, stop, name=f"{trace.name}:shard{index}")
        if dispatcher.inline_traces:
            source: dict[str, object] = {"kind": "inline", "trace": shard_trace}
        else:
            # The dispatcher can't share our address space: spill the
            # slice's columns and hand over a digest-verified reference.
            input_name = f"input-{index:04d}"
            digest, _ = spill.put(input_name, {"columns": shard_trace.columns})
            input_partials.append(input_name)
            source = {
                "kind": "spill",
                "root": str(spill.root),
                "name": input_name,
                "digest": digest,
                "trace_name": shard_trace.name,
            }
        specs.append(
            {"shard": index, "source": source, "spill_root": str(spill.root), **extraction}
        )
    results = dispatcher.run(specs)
    for input_name in input_partials:
        spill.delete(input_name)
    return results, [partial(_take_spill, spill, result) for result in results]


def _take_spill(spill: PartialStore, result: dict) -> dict:
    payload = spill.load(result["name"], result["digest"])
    spill.delete(result["name"])
    return payload


def _record_map_jobs(recorder, results: list[dict], reused: int) -> None:
    """One ``pipeline.mine.shard_index`` span per map job that ran."""
    for result in results:
        attributes = {
            "shard": result["shard"],
            "requests": result["requests"],
            "spill_bytes": result["spilled"],
        }
        if "peak_rss_kb" in result:
            attributes["worker_peak_rss_kb"] = result["peak_rss_kb"]
        recorder.record_span("pipeline.mine.shard_index", result["seconds"], attributes)
        recorder.counter(
            "smash_shard_index_partials_total",
            "Index partials produced by the map phase (one per map job).",
        ).inc()
        recorder.counter(
            "smash_shard_spill_bytes_total",
            "Bytes of sharded-mine partials spilled, by kind.",
            labels=("kind",),
        ).labels(kind="index").inc(result["spilled"])
    if reused:
        recorder.counter(
            "smash_shard_map_outputs_reused_total",
            "Stored map outputs merged without mapping their partition again.",
        ).inc(reused)


def _assemble_prepared(
    trace: HttpTrace,
    merged: _MergedIndexes,
    config: SmashConfig,
) -> tuple[HttpTrace, PreprocessReport, dict[int, str]]:
    """Finish preprocessing from the merged indexes.

    Builds the same filtered trace ``preprocess()`` builds (identical
    requests, identical name) and injects the merged inverted indexes
    into its cache slots, so every downstream consumer reads the
    shard-extracted data instead of re-scanning the window.  Returns the
    prepared trace, the report, and the kept ``{stable id: label}``
    namespace.
    """
    pre = config.preprocess
    label_of = merged.vocab.to_dict()
    popular = {sid for sid, clients in merged.clients.items() if len(clients) > pre.idf_threshold}
    too_rare = {sid for sid, clients in merged.clients.items() if len(clients) < pre.min_clients}
    removed_labels = {label_of[sid] for sid in popular | too_rare}
    kept = {
        sid: label
        for sid, label in label_of.items()
        if sid not in popular and sid not in too_rare
    }

    aggregated = aggregate_trace(trace) if pre.aggregate_second_level else trace
    prepared = aggregated.filter_servers(
        lambda server: server not in removed_labels,
        name=f"{trace.name}:preprocessed",
    )

    # Inject the merged indexes into the prepared trace's cache slots.
    # Iteration order of these dicts never reaches an output (every
    # consumer sorts), but keep it canonical anyway.
    order = sorted(kept, key=lambda sid: kept[sid])
    clients_by_server = {kept[sid]: frozenset(merged.clients[sid]) for sid in order}
    servers_of: dict[str, set[str]] = defaultdict(set)
    for label, clients in clients_by_server.items():
        for client in clients:
            servers_of[client].add(label)
    prepared._clients_by_server = clients_by_server
    prepared._ips_by_server = {kept[sid]: frozenset(merged.ips[sid]) for sid in order}
    prepared._files_by_server = {kept[sid]: frozenset(merged.files[sid]) for sid in order}
    prepared._servers_by_client = {
        client: frozenset(found) for client, found in servers_of.items()
    }
    prepared._servers = frozenset(clients_by_server)

    report = PreprocessReport(
        raw_servers=len(merged.raw_hosts),
        aggregated_servers=len(label_of),
        popular_servers_removed=len(popular),
        kept_servers=len(kept),
        raw_requests=merged.requests,
        kept_requests=sum(merged.counts[sid] for sid in kept),
    )
    return prepared, report, kept


def _build_secondary_graph(
    dimension: str,
    prepared: HttpTrace,
    whois,
    config: SmashConfig,
    accumulate: ShardedAccumulator | None,
    merged: _MergedIndexes,
    kept: dict[int, str],
):
    """Build one secondary dimension's graph from the merged indexes.

    *accumulate* is the pool's :class:`ShardedAccumulator`, or None for
    the builders' in-process default.
    """
    if dimension == "urifile":
        return build_urifile_graph(prepared, config.dimensions, accumulate)
    if dimension == "ipset":
        return build_ipset_graph(prepared, config.dimensions, accumulate)
    if dimension == "whois":
        if whois is None:
            return None
        return build_whois_graph(prepared, whois, config.dimensions, accumulate)
    if dimension == "urlparam":
        patterns_of = {
            kept[sid]: frozenset(merged.patterns[sid])
            for sid in kept
            if merged.patterns.get(sid)
        }
        return build_urlparam_graph(
            prepared, config.dimensions, accumulate, patterns_of=patterns_of
        )
    if dimension == "time":
        windows_of = {
            kept[sid]: frozenset(merged.windows[sid])
            for sid in kept
            if merged.windows.get(sid)
        }
        return build_time_graph(
            prepared,
            config.dimensions,
            accumulate=accumulate,
            windows_of=windows_of,
        )
    # Extension dimensions registered only in SECONDARY_GRAPH_BUILDERS:
    # fall back to the un-sharded builder (correct, just not fanned out).
    from repro.core.pipeline import SECONDARY_GRAPH_BUILDERS

    try:
        builder = SECONDARY_GRAPH_BUILDERS[dimension]
    except KeyError:  # pragma: no cover - guarded by SmashConfig.validate
        raise PipelineError(f"unknown dimension {dimension!r}") from None
    return builder(prepared, whois, config)


def mine_sharded(
    pipeline,
    trace: HttpTrace | None,
    whois,
    config: SmashConfig,
    cache,
    span,
    pool: JobPool,
    boundaries: tuple[int, ...] | None = None,
    spill_dir: str | Path | None = None,
    partitions=None,
    store_root: str | Path | None = None,
    trace_name: str | None = None,
):
    """The sharded mine path; see the module docstring.

    Returns a :class:`~repro.core.pipeline.MinedDimensions` byte-for-byte
    equal (in every output-reachable field) to what
    ``SmashPipeline._mine`` produces on the same inputs.

    With *partitions* (``(day, digest)`` references into the store at
    *store_root*) instead of *trace*, map jobs load their own day
    partitions — the coordinator never holds a raw request — and the
    reduce is forced out-of-core (*boundaries* must then be the per-
    partition request counts, from the partition manifests).  Only the
    partitions whose map output the store lacks are mapped, one job
    each, whatever ``config.shards`` says; spills then go under the
    store's ``.partials`` unless *spill_dir* says otherwise.  With a
    *trace*, ``config.shards`` slices it, ``config.out_of_core`` selects
    the hollow reduce, and ``config.dispatch`` selects how map jobs
    execute either way.
    """
    from repro.core.pipeline import (
        DIMENSION_SIGNATURES,
        MinedDimensions,
        _record_dimension,
        _timed_job,
    )

    recorder = pipeline.metrics
    out_of_core = config.out_of_core or trace is None
    if trace is None and (not partitions or store_root is None or not boundaries):
        raise PipelineError(
            "store-direct mining needs partitions, store_root and "
            "shard_boundaries when no trace is given"
        )
    window_name = trace.name if trace is not None else (trace_name or "trace")
    want_patterns = "urlparam" in config.enabled_secondary_dimensions
    want_windows = "time" in config.enabled_secondary_dimensions
    want_referrers = out_of_core and config.pruning.prune_referrer_groups

    if spill_dir is None and partitions is not None:
        # Map outputs are renamed from the spill into the store, so spill
        # on the store's volume.
        spill_dir = TraceStore(store_root).partials_dir()
    if spill_dir is not None:
        parent = Path(spill_dir)
        parent.mkdir(parents=True, exist_ok=True)
        # A crashed coordinator leaks its spill dir; collect stale ones
        # (age- and ownership-checked) before adding our own.
        PartialStore.gc_orphans(parent)
        spill_root = tempfile.mkdtemp(prefix="mine-", dir=str(parent))
    else:
        spill_root = tempfile.mkdtemp(prefix="repro-shardmine-")
    spill = PartialStore(spill_root)
    spill.claim()
    dispatcher = make_dispatcher(
        config.dispatch,
        pool=pool,
        workers=config.workers,
        policy=RetryPolicy.from_config(config),
        plan=config.fault_plan,
        recorder=recorder,
        warm=pipeline.shard_workers,
    )
    try:
        # -- phase A + reduce: sharded preprocess ---------------------------------
        with recorder.span("pipeline.mine.preprocess") as pre_span:
            extraction = {
                "aggregate": config.preprocess.aggregate_second_level,
                "want_patterns": want_patterns,
                "want_windows": want_windows,
                "want_referrers": want_referrers,
                "window_seconds": DEFAULT_WINDOW_SECONDS,
            }
            if partitions is not None:
                results, loads = _map_partitions(
                    partitions, store_root, boundaries, extraction, spill, dispatcher
                )
            else:
                results, loads = _map_trace(
                    trace, config.shards, boundaries, extraction, spill, dispatcher
                )
            num_shards = len(loads)
            if recorder.enabled:
                _record_map_jobs(recorder, results, reused=num_shards - len(results))

            merged = _MergedIndexes()
            with recorder.span("pipeline.mine.shard_merge") as merge_span:
                for load in loads:
                    merged.merge(load())
            referrer_of: dict[str, str] | None = None
            if out_of_core:
                prepared, report, kept, referrer_of = _assemble_hollow(
                    merged,
                    config,
                    window_name,
                    want_patterns,
                    want_windows,
                    want_referrers,
                )
            else:
                prepared, report, kept = _assemble_prepared(trace, merged, config)
            if recorder.enabled:
                merge_span.set(
                    shards=num_shards,
                    mapped=len(results),
                    servers=len(merged.vocab),
                    kept_servers=len(kept),
                )
                pre_span.set(
                    raw_requests=report.raw_requests,
                    kept_requests=report.kept_requests,
                    raw_servers=report.raw_servers,
                    kept_servers=report.kept_servers,
                    popular_servers_removed=report.popular_servers_removed,
                    shards=num_shards,
                    dispatch=dispatcher.kind,
                    out_of_core=out_of_core,
                )

        # -- cache lookup (same contract as the single-shard mine) ----------------
        clients_by_server = prepared.clients_by_server
        single_client_servers = {
            server
            for server, clients in clients_by_server.items()
            if len(clients) == 1
        }
        multi_clients_by_server = {
            server: clients
            for server, clients in clients_by_server.items()
            if server not in single_client_servers
        }
        multi_servers_by_client: dict[str, frozenset[str]] = {}
        for client, servers in prepared.servers_by_client.items():
            surviving = servers - single_client_servers
            if surviving:
                multi_servers_by_client[client] = (
                    servers if len(surviving) == len(servers) else surviving
                )

        dimensions = (MAIN_DIMENSION, *config.enabled_secondary_dimensions)
        signatures: dict[str, str] = {}
        reused: dict[str, MiningOutcome | None] = {}
        to_mine: list[str] = []
        if cache is None:
            to_mine = list(dimensions)
        else:
            for dimension in dimensions:
                try:
                    signer = DIMENSION_SIGNATURES[dimension]
                except KeyError:
                    raise PipelineError(
                        f"dimension {dimension!r} has no entry in "
                        f"DIMENSION_SIGNATURES; register one to make it cacheable"
                    ) from None
                signatures[dimension] = signer(prepared, whois, config)
                hit, outcome = cache.lookup(dimension, signatures[dimension])
                if hit:
                    reused[dimension] = outcome
                else:
                    to_mine.append(dimension)

        # -- phase C: graphs with partition-parallel pair counting ----------------
        job_config = config if config.metrics is None else config.replace(metrics=None)
        graphs: dict[str, object] = {}
        build_seconds: dict[str, float] = {}
        for dimension in to_mine:
            # Buckets only pay on a pool that runs them side by side;
            # otherwise the builders count pairs in-process, unspilled.
            accumulate = (
                ShardedAccumulator(
                    pool, pool.workers, spill_root, dimension, recorder=recorder
                )
                if pool.parallel
                else None
            )
            tick = time.perf_counter()
            if dimension == MAIN_DIMENSION:
                graphs[dimension] = build_client_graph_from_indices(
                    multi_clients_by_server,
                    multi_servers_by_client,
                    config.dimensions,
                    accumulate,
                )
            else:
                graphs[dimension] = _build_secondary_graph(
                    dimension, prepared, whois, job_config, accumulate, merged, kept
                )
            build_seconds[dimension] = time.perf_counter() - tick

        # -- Louvain fan-out on the same pool -------------------------------------
        louvain_jobs = []
        louvain_dimensions = []
        for dimension in to_mine:
            graph = graphs[dimension]
            if graph is None:
                continue
            louvain_dimensions.append(dimension)
            if dimension == MAIN_DIMENSION:
                job = partial(
                    _louvain_main_job,
                    graph,
                    single_client_servers,
                    clients_by_server,
                    job_config,
                )
            else:
                job = partial(_louvain_secondary_job, graph, dimension, job_config)
            louvain_jobs.append(partial(_timed_job, job))
        timed = pool.run(louvain_jobs)

        mined_now: dict[str, MiningOutcome | None] = {dimension: None for dimension in to_mine}
        for dimension, (outcome, seconds) in zip(louvain_dimensions, timed):
            mined_now[dimension] = outcome
            if recorder.enabled:
                _record_dimension(recorder, dimension, outcome, build_seconds[dimension] + seconds)
        if recorder.enabled:
            for dimension in to_mine:
                if dimension not in louvain_dimensions:
                    _record_dimension(recorder, dimension, None, build_seconds[dimension])

        if cache is not None:
            for dimension in to_mine:
                cache.update(dimension, signatures[dimension], mined_now[dimension])
            cache.last_reused = tuple(d for d in dimensions if d in reused)
            cache.last_mined = tuple(to_mine)

        main = reused[MAIN_DIMENSION] if MAIN_DIMENSION in reused else mined_now[MAIN_DIMENSION]
        assert main is not None  # the main-dimension job never returns None
        secondary: dict[str, MiningOutcome] = {}
        for dimension in config.enabled_secondary_dimensions:
            outcome = reused[dimension] if dimension in reused else mined_now[dimension]
            if outcome is not None:
                secondary[dimension] = outcome
        if recorder.enabled:
            span.set(
                requests=report.kept_requests,
                servers=report.kept_servers,
                shards=num_shards,
                dispatch=dispatcher.kind,
                out_of_core=out_of_core,
                mined_dimensions=list(to_mine),
                reused_dimensions=[d for d in dimensions if d in reused],
            )
        return MinedDimensions(
            trace=prepared,
            preprocess_report=report,
            main=main,
            secondary=secondary,
            interner=Interner(clients_by_server),
            stage_cache=(
                {"dominant_referrers": referrer_of} if referrer_of is not None else {}
            ),
        )
    finally:
        dispatcher.close()
        spill.cleanup()
