"""Sharded preprocessing: the map half of the mine, over trace partitions.

SMASH preprocesses the trace once and then mines each dimension's herds
with Louvain.  This module runs the first stage as a deterministic
map-reduce whose peak state is bounded by shard size plus merge state;
:meth:`SmashPipeline.mine <repro.core.pipeline.SmashPipeline.mine>` then
mines the dimensions of the prepared trace it returns exactly as it
mines a single-pass preprocess — one dimension stage, one cache, one
result assembly for every mode.

**Map (index extraction).**  A trace given in memory is cut into
``shards`` contiguous slices (day-partition-aligned when the streaming
window provides boundaries); a store-direct mine maps each window
partition on its own.  Each map job reads its input's columns, applying
the same SLD aggregation as :func:`~repro.core.preprocess.preprocess`,
and emits inverted-index partials (clients / IPs / URI files / optional
parameter patterns and time windows, per server) keyed by the
**namespace-stable** ids of :class:`~repro.core.interning.StableInterner`
— a pure content hash of the server label, so map workers agree on
every id with no global pass and no coordination.  Partials are spilled
to a digest-verified :class:`~repro.stream.store.PartialStore`
immediately, so even a serial map phase never holds more than one
job's indexes.

**Reduce (merge and assemble).**  Partials are merged one at a time in
canonical order (slice order, or day order): vocabularies union with
collision detection, index sets union, request counts add.  The
IDF/min-clients filter runs on the merged client sets, the
:class:`~repro.core.preprocess.PreprocessReport` falls out of the merged
accounting, and the prepared trace is assembled with the merged indexes
injected into its cache slots, so no downstream consumer re-scans the
window to rebuild what the map jobs already extracted.  The prepared
trace equals ``preprocess()``'s index for index, so the mined herds,
the dimension-cache keys and the final campaigns are **byte-identical
to the single-pass mine under any ``PYTHONHASHSEED``** (test-enforced in
subprocesses), and sharded and single-pass mines share cache entries.

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
  prepared trace's indexes and scalars without its requests; it pickles
  with its indexes, so process-pool dimension jobs can read it.
  Reduce-side consumers that genuinely need window-wide request facts
  get them from small per-shard summaries instead: request counts ride
  in the partials and the dominant-referrer map (the one
  ``finish``-stage request scan) is folded from per-partition referrer
  counters and pre-seeded into ``MinedDimensions.stage_cache``.  Any
  code path that would actually touch raw requests on the hollow trace
  raises loudly.

**Dispatch seam.**  How map jobs execute is delegated to a
:class:`~repro.core.dispatch.ShardDispatcher` (``SmashConfig.dispatch``):
inline on the mine's shared pool (the default), serially in the
coordinator, or in warm worker subprocesses speaking the store-paths +
digests contract a remote worker would use (the pipeline's
``shard_workers``, reused across its mines).  This module builds no
graph and runs no Louvain: the dimension jobs always run on the
pipeline's pool, and dispatch only moves the map phase.
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
from repro.core.dimensions.timedim import DEFAULT_WINDOW_SECONDS
from repro.core.dispatch import make_dispatcher
from repro.core.faults import RetryPolicy, fire_after_spill, fire_before_load
from repro.core.interning import StableInterner
from repro.core.preprocess import PreprocessReport, aggregate_trace
from repro.core.pruning import referrer_host
from repro.domains.names import normalize_server_name
from repro.errors import PipelineError
from repro.httplog.trace import HttpTrace
from repro.httplog.uri import query_parameter_names, uri_file
from repro.stream.store import PartialStore, TraceStore
from repro.util.parallel import JobPool

__all__ = [
    "MAP_FORMAT",
    "preprocess_sharded",
    "map_output_key",
    "run_shard_job",
    "IndexOnlyTrace",
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


# -- map: per-job index extraction ------------------------------------------------


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
    """Reduce-side accumulator for map partials (one at a time)."""

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


# -- reduce: the prepared trace ----------------------------------------------------


class IndexOnlyTrace(HttpTrace):
    """A prepared trace holding inverted indexes but no raw requests.

    An out-of-core mine builds every per-dimension graph (and every
    dimension-cache key) from the merged shard indexes; the scalar facts
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

    def __getstate__(self) -> dict[str, object]:
        # The injected indexes are this trace's only content, and a
        # process-pool dimension job cannot rebuild them: pickle them all.
        return dict(self.__dict__)

    @property
    def requests_by_server(self):
        raise self._no_requests()


def _assemble(
    merged: _MergedIndexes,
    config: SmashConfig,
    trace: HttpTrace | None,
    name: str,
    extraction: dict,
) -> tuple[HttpTrace, PreprocessReport, dict[str, str] | None]:
    """Finish preprocessing from the merged indexes.

    Runs ``preprocess()``'s IDF/min-clients filter on the merged client
    sets.  With *trace* the prepared trace is the filtered trace
    ``preprocess()`` builds from it, with identical requests and name;
    without (a hollow reduce), it is an :class:`IndexOnlyTrace` named
    after *name*, so no request is ever resident in the coordinator.
    Either way the merged indexes (and the pattern/window indexes, when
    their dimensions are enabled) are injected into its cache slots, so
    no consumer re-scans the window to rebuild what the map jobs
    extracted.

    Also returns the ``dominant_referrers`` map folded from the per-shard
    referrer summaries when *extraction* asked for them (same majority
    rule, same ``most_common`` tie-break via first-seen insertion
    order), else ``None``.
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

    if trace is None:
        prepared: HttpTrace = IndexOnlyTrace(f"{name}:preprocessed", kept_requests)
    else:
        removed_labels = {label_of[sid] for sid in popular | too_rare}
        aggregated = aggregate_trace(trace) if pre.aggregate_second_level else trace
        prepared = aggregated.filter_servers(
            lambda server: server not in removed_labels,
            name=f"{trace.name}:preprocessed",
        )

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
    if extraction["want_patterns"]:
        # Only servers with >= 1 parameterised request, matching
        # parameter_patterns_by_server's scan of the prepared trace.
        prepared._patterns_by_server = {
            kept[sid]: frozenset(merged.patterns[sid])
            for sid in order
            if merged.patterns.get(sid)
        }
    if extraction["want_windows"]:
        # Every kept server has >= 1 request, hence >= 1 active window.
        prepared._windows_by_server = {
            kept[sid]: frozenset(merged.windows[sid]) for sid in order
        }

    referrer_of: dict[str, str] | None = None
    if extraction["want_referrers"]:
        referrer_of = {}
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
    return prepared, report, referrer_of


# -- map: planning and dispatch -----------------------------------------------------


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


def preprocess_sharded(
    trace: HttpTrace | None,
    config: SmashConfig,
    pool: JobPool,
    recorder,
    warm=None,
    boundaries: tuple[int, ...] | None = None,
    spill_dir: str | Path | None = None,
    partitions=None,
    store_root: str | Path | None = None,
    trace_name: str | None = None,
) -> tuple[HttpTrace, PreprocessReport, dict, dict[str, object]]:
    """The sharded preprocess: map, merge, assemble; see the module docstring.

    Returns ``(prepared, report, stage_cache, attributes)``: the prepared
    trace with the merged indexes injected, the
    :class:`~repro.core.preprocess.PreprocessReport`, the seed of
    ``MinedDimensions.stage_cache`` (the folded dominant-referrer map of
    a hollow reduce) and the span attributes describing the map phase.
    The prepared trace equals, index for index, what ``preprocess()``
    gives on the same requests.

    With *partitions* (``(day, digest)`` references into the store at
    *store_root*) instead of *trace*, map jobs load their own day
    partitions — the coordinator never holds a raw request — and the
    reduce is hollow (*boundaries* must then be the per-partition
    request counts, from the partition manifests).  Only the partitions
    whose map output the store lacks are mapped, one job each, whatever
    ``config.shards`` says; spills then go under the store's
    ``.partials`` unless *spill_dir* says otherwise.  With a *trace*,
    ``config.shards`` slices it, ``config.out_of_core`` selects the
    hollow reduce, and ``config.dispatch`` selects how map jobs execute
    either way: on *pool*, inline, or in the subprocess workers of
    *warm* (a :class:`~repro.core.dispatch.ShardWorkers`).
    """
    out_of_core = config.out_of_core or trace is None
    extraction = {
        "aggregate": config.preprocess.aggregate_second_level,
        "want_patterns": "urlparam" in config.enabled_secondary_dimensions,
        "want_windows": "time" in config.enabled_secondary_dimensions,
        "want_referrers": out_of_core and config.pruning.prune_referrer_groups,
        "window_seconds": DEFAULT_WINDOW_SECONDS,
    }

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
        warm=warm,
    )
    try:
        if partitions is not None:
            results, loads = _map_partitions(
                partitions, store_root, boundaries, extraction, spill, dispatcher
            )
        else:
            results, loads = _map_trace(
                trace, config.shards, boundaries, extraction, spill, dispatcher
            )
        if recorder.enabled:
            _record_map_jobs(recorder, results, reused=len(loads) - len(results))

        merged = _MergedIndexes()
        with recorder.span("pipeline.mine.shard_merge") as merge_span:
            for load in loads:
                merged.merge(load())
        prepared, report, referrer_of = _assemble(
            merged,
            config,
            None if out_of_core else trace,
            trace.name if trace is not None else (trace_name or "trace"),
            extraction,
        )
        if recorder.enabled:
            merge_span.set(
                shards=len(loads),
                mapped=len(results),
                servers=len(merged.vocab),
                kept_servers=report.kept_servers,
            )
    finally:
        dispatcher.close()
        spill.cleanup()
    stage_cache = {} if referrer_of is None else {"dominant_referrers": referrer_of}
    attributes = {"shards": len(loads), "dispatch": dispatcher.kind, "out_of_core": out_of_core}
    return prepared, report, stage_cache, attributes
