"""The end-to-end SMASH pipeline (Figure 2).

    pipeline = SmashPipeline(config)
    result = pipeline.run(trace, whois=registry, redirects=oracle)

``run`` executes preprocessing, per-dimension ASH mining, correlation at
the configured threshold, pruning and campaign inference.  ``run_sweep``
re-correlates the mined herds at several thresholds without redoing the
expensive graph work — how the Table II/III threshold sweeps are produced.

Per-dimension mining is dispatched through ``SECONDARY_GRAPH_BUILDERS``
(a registry, so extensions can add dimensions without touching ``mine``)
and can fan out over a thread or process pool via
``SmashConfig(workers=..., executor=...)`` or ``mine(workers=N)``; the
mining core is deterministic by construction, so parallel and serial runs
produce identical results.

``mine(cache=DimensionCache())`` makes repeated runs over overlapping
inputs incremental: each dimension's mining outcome is cached under a
content signature of exactly the inputs its graph builder reads (the
``DIMENSION_SIGNATURES`` registry), so a re-run only rebuilds dimensions
whose inputs actually changed — the seam the streaming engine uses to
advance a multi-day window without re-mining untouched dimensions.
Because a signature hit proves the builder's inputs are byte-identical
and mining is deterministic, the cached outcome *is* the outcome a cold
rebuild would produce, under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import time
import weakref

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.config import SmashConfig
from repro.core.ashmining import MiningOutcome, mine_herds
from repro.core.correlation import correlate_ids
from repro.core.dimensions.client import build_client_graph_from_indices
from repro.core.dimensions.ipset import build_ipset_graph
from repro.core.dimensions.timedim import build_time_graph
from repro.core.dimensions.urifile import build_urifile_graph
from repro.core.dimensions.urlparam import build_urlparam_graph
from repro.core.dimensions.whoisdim import build_whois_graph
from repro.core.inference import infer_campaigns_ids
from repro.core.interning import Interner
from repro.core.preprocess import PreprocessReport, preprocess
from repro.core.pruning import dominant_referrers, prune_ashes_ids
from repro.core.results import MAIN_DIMENSION, CandidateAsh, SmashResult
from repro.errors import PipelineError
from repro.graph.wgraph import WeightedGraph
from repro.obs.metrics import NULL_RECORDER
from repro.httplog.trace import HttpTrace
from repro.synth.oracles import RedirectOracle
from repro.util.parallel import JobPool, resolve_workers
from repro.whois.registry import WhoisRegistry

#: A secondary-dimension graph builder: ``(trace, whois, config) -> graph``.
#: Returning ``None`` means the dimension cannot run (e.g. no Whois
#: registry available) and contributes no herds.
SecondaryGraphBuilder = Callable[
    [HttpTrace, "WhoisRegistry | None", SmashConfig], "WeightedGraph | None"
]


def _build_urifile(
    trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
) -> WeightedGraph:
    return build_urifile_graph(trace, config.dimensions)


def _build_ipset(
    trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
) -> WeightedGraph:
    return build_ipset_graph(trace, config.dimensions)


def _build_whois(
    trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
) -> WeightedGraph | None:
    if whois is None:
        # No registry available: the dimension contributes no herds
        # (equivalent to all lookups failing).
        return None
    return build_whois_graph(trace, whois, config.dimensions)


def _build_urlparam(
    trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
) -> WeightedGraph:
    return build_urlparam_graph(trace, config.dimensions)


def _build_time(
    trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
) -> WeightedGraph:
    return build_time_graph(trace, config.dimensions)


#: Registry of secondary-dimension builders, replacing the old if/elif
#: dispatch in ``SmashPipeline.mine``.  Extensions can register additional
#: dimensions here (and add them to ``SmashConfig.validate``'s known set).
SECONDARY_GRAPH_BUILDERS: dict[str, SecondaryGraphBuilder] = {
    "urifile": _build_urifile,
    "ipset": _build_ipset,
    "whois": _build_whois,
    "urlparam": _build_urlparam,
    "time": _build_time,
}


#: A dimension's input signature: a stable string covering *exactly* the
#: data its graph builder reads from the (preprocessed) trace and
#: sidecars.  Two calls with equal signatures are guaranteed to mine
#: identical outcomes, which is what lets ``DimensionCache`` reuse them.
DimensionSignature = Callable[
    [HttpTrace, "WhoisRegistry | None", SmashConfig], str
]


def _digest(*parts: object) -> str:
    payload = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _mapping_payload(mapping: dict[str, frozenset[str]]) -> list[tuple[str, tuple[str, ...]]]:
    return sorted(
        (key, tuple(sorted(values))) for key, values in mapping.items()
    )


def _mapping_signature(dimension: str, attribute: str) -> DimensionSignature:
    """Signature for builders that read one server -> set mapping.

    The main dimension qualifies too: the client graph, the
    single-client herds and the multi/single server split are all
    functions of ``clients_by_server`` alone.
    """

    def signer(
        trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
    ) -> str:
        return _digest(
            dimension,
            repr(config.dimensions),
            repr(config.louvain),
            _mapping_payload(getattr(trace, attribute)),
        )

    return signer


def _signature_whois(
    trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
) -> str:
    if whois is None:
        records: object = None
    else:
        records = [
            (server, None if record is None else sorted(record.to_dict().items()))
            for server in sorted(trace.servers)
            for record in (whois.lookup(server),)
        ]
    return _digest(
        "whois", repr(config.dimensions), repr(config.louvain), records
    )


def _signature_urlparam(
    trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
) -> str:
    from repro.core.dimensions.urlparam import parameter_patterns_by_server

    patterns = sorted(
        (server, tuple(sorted(found)))
        for server, found in parameter_patterns_by_server(trace).items()
    )
    return _digest(
        "urlparam",
        repr(config.dimensions),
        repr(config.louvain),
        sorted(trace.servers),
        patterns,
    )


def _signature_time(
    trace: HttpTrace, whois: WhoisRegistry | None, config: SmashConfig
) -> str:
    from repro.core.dimensions.timedim import active_windows_by_server

    windows = sorted(
        (server, tuple(sorted(found)))
        for server, found in active_windows_by_server(trace).items()
    )
    return _digest(
        "time",
        repr(config.dimensions),
        repr(config.louvain),
        sorted(trace.servers),
        windows,
    )


#: Signature functions per dimension, parallel to
#: ``SECONDARY_GRAPH_BUILDERS`` (plus the main dimension).  Computing a
#: signature is one linear pass over the trace — orders of magnitude
#: cheaper than candidate-pair enumeration plus Louvain — so checking
#: the cache is always worth it.  A dimension registered here without a
#: builder (or vice versa) fails loudly in ``mine``.
DIMENSION_SIGNATURES: dict[str, DimensionSignature] = {
    MAIN_DIMENSION: _mapping_signature(MAIN_DIMENSION, "clients_by_server"),
    "urifile": _mapping_signature("urifile", "files_by_server"),
    "ipset": _mapping_signature("ipset", "ips_by_server"),
    "whois": _signature_whois,
    "urlparam": _signature_urlparam,
    "time": _signature_time,
}


class DimensionCache:
    """Content-addressed cache of per-dimension mining outcomes.

    Keyed by dimension name; an entry is reused only when the current
    input signature matches the cached one, so a hit is provably
    equivalent to re-mining (the ISSUE's "incremental == full re-mine"
    invariant).  The streaming engine keeps one of these per stream and
    passes it to every :meth:`SmashPipeline.mine` as the window slides;
    dimensions untouched by the entering/leaving days keep their
    signatures and are spliced back in, dirtied dimensions re-mine.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, MiningOutcome | None]] = {}
        self.hits = 0
        self.misses = 0
        #: Dimensions reused / re-mined by the most recent ``mine`` call.
        self.last_reused: tuple[str, ...] = ()
        self.last_mined: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, dimension: str, signature: str) -> tuple[bool, "MiningOutcome | None"]:
        entry = self._entries.get(dimension)
        if entry is not None and entry[0] == signature:
            self.hits += 1
            return True, entry[1]
        self.misses += 1
        return False, None

    def update(
        self, dimension: str, signature: str, outcome: "MiningOutcome | None"
    ) -> None:
        self._entries[dimension] = (signature, outcome)

    def clear(self) -> None:
        self._entries.clear()
        self.last_reused = ()
        self.last_mined = ()


def _mine_secondary_dimension(
    dimension: str,
    trace: HttpTrace,
    whois: WhoisRegistry | None,
    config: SmashConfig,
) -> MiningOutcome | None:
    """One secondary-dimension job: build the graph, then mine herds.

    Module-level (not a closure) so the process executor can pickle it.
    """
    try:
        builder = SECONDARY_GRAPH_BUILDERS[dimension]
    except KeyError:  # pragma: no cover - guarded by SmashConfig.validate
        raise PipelineError(f"unknown dimension {dimension!r}") from None
    graph = builder(trace, whois, config)
    if graph is None:
        return None
    return mine_herds(graph, dimension, config.louvain)


def _mine_main_dimension(
    multi_clients_by_server: dict[str, frozenset[str]],
    multi_servers_by_client: dict[str, frozenset[str]],
    single_client_servers: set[str],
    clients_by_server: dict[str, frozenset[str]],
    config: SmashConfig,
) -> MiningOutcome:
    """The main-dimension job: client graph, Louvain, single-client herds.

    Receives the multi-client restriction of the preprocessed indices
    directly — no filtered trace is materialised (or shipped to process
    workers) just to re-derive the same two dictionaries.
    """
    graph = build_client_graph_from_indices(
        multi_clients_by_server, multi_servers_by_client, config.dimensions
    )
    main = mine_herds(graph, MAIN_DIMENSION, config.louvain)
    return _append_single_client_herds(main, single_client_servers, clients_by_server)


def _append_single_client_herds(
    main: MiningOutcome,
    single_client_servers: set[str],
    clients_by_server: dict[str, frozenset[str]],
) -> MiningOutcome:
    """Add one main-dimension herd per client owning >= 2 exclusive servers."""
    from collections import defaultdict

    from repro.core.results import Herd

    by_client: dict[str, set[str]] = defaultdict(set)
    for server in single_client_servers:
        (client,) = clients_by_server[server]
        by_client[client].add(server)

    herds = list(main.herds)
    dropped = set(main.dropped)
    next_index = len(herds)
    for client in sorted(by_client):
        servers = by_client[client]
        if len(servers) >= 2:
            herds.append(
                Herd(
                    dimension=MAIN_DIMENSION,
                    index=next_index,
                    servers=frozenset(servers),
                    density=1.0,
                )
            )
            next_index += 1
        else:
            dropped |= servers
    # Single-client herds are complete under eq. 1 (every pair scores 1.0
    # through their one shared client); add those edges to the main graph
    # so intersection densities see them.
    graph = main.graph
    for herd in herds[len(main.herds):]:
        members = sorted(herd.servers)
        for i, first in enumerate(members):
            for second in members[i + 1:]:
                if not graph.has_edge(first, second):
                    graph.add_edge(first, second, 1.0)
    return MiningOutcome(
        herds=tuple(herds),
        dropped=frozenset(dropped),
        modularity=main.modularity,
        graph=graph,
        louvain_runs=main.louvain_runs,
        louvain_levels=main.louvain_levels,
        louvain_moves=main.louvain_moves,
        louvain_sweeps=main.louvain_sweeps,
    )


def _timed_job(job: Callable[[], object]) -> tuple[object, float]:
    """Run one mining job and measure it in the worker that executes it.

    Module-level so the process executor can pickle the wrapper; the
    elapsed time rides back with the outcome instead of being recorded
    from the coordinating thread (which would fold queueing delay into
    the dimension's build time).
    """
    tick = time.perf_counter()
    outcome = job()
    return outcome, time.perf_counter() - tick


def dimension_build_stats(mined: "MinedDimensions") -> dict[str, dict[str, object]]:
    """Per-dimension candidate-pair accounting, keyed by dimension name.

    Reads the ``build_stats`` dict each graph builder attaches (group
    counts, enumerated vs candidate pairs, heavy-hitter cap skips).
    Dimensions whose graph carries no stats are omitted.
    """
    stats: dict[str, dict[str, object]] = {}
    for dimension, outcome in ((MAIN_DIMENSION, mined.main), *mined.secondary.items()):
        build_stats = dict(getattr(outcome.graph, "build_stats", {}) or {})
        build_stats.pop("dimension", None)
        if build_stats:
            stats[dimension] = build_stats
    return stats


def _record_dimension(recorder, dimension: str, outcome, seconds: float) -> None:
    """Record one freshly mined dimension: span, latency, pair counters."""
    attributes: dict[str, object] = {"dimension": dimension}
    if outcome is None:
        attributes["skipped"] = True
        recorder.record_span("pipeline.mine.dimension", seconds, attributes)
        return
    stats = dict(getattr(outcome.graph, "build_stats", {}) or {})
    stats.pop("dimension", None)
    attributes.update(stats)
    attributes["herds"] = len(outcome.herds)
    attributes["dropped"] = len(outcome.dropped)
    attributes["louvain_runs"] = outcome.louvain_runs
    attributes["louvain_levels"] = outcome.louvain_levels
    attributes["louvain_moves"] = outcome.louvain_moves
    recorder.record_span("pipeline.mine.dimension", seconds, attributes)
    recorder.histogram(
        "smash_dimension_build_seconds",
        "Wall time of one dimension's build-graph + Louvain job.",
        labels=("dimension",),
    ).labels(dimension=dimension).observe(seconds)
    pairs = recorder.counter(
        "smash_dimension_pairs_total",
        "Candidate-generation pair accounting per dimension.",
        labels=("dimension", "kind"),
    )
    for kind, key in (("enumerated", "enumerated_pairs"), ("candidate", "candidate_pairs")):
        if key in stats:
            pairs.labels(dimension=dimension, kind=kind).inc(stats[key])
    if stats.get("skipped_groups"):
        recorder.counter(
            "smash_dimension_capped_groups_total",
            "Sharing groups skipped by the max_group_size heavy-hitter cap.",
            labels=("dimension",),
        ).labels(dimension=dimension).inc(stats["skipped_groups"])
    recorder.counter(
        "smash_louvain_levels_total",
        "Louvain coarsening levels executed (top-level runs + refinement).",
        labels=("dimension",),
    ).labels(dimension=dimension).inc(outcome.louvain_levels)
    recorder.counter(
        "smash_louvain_moves_total",
        "Accepted Louvain node moves (top-level runs + refinement).",
        labels=("dimension",),
    ).labels(dimension=dimension).inc(outcome.louvain_moves)


@dataclass(frozen=True)
class MinedDimensions:
    """Intermediate state: preprocessed trace plus per-dimension herds.

    ``interner`` maps the post-preprocess server namespace to dense
    integer ids in canonical order; ``finish`` runs correlation, pruning
    and inference on those ids and decodes back to labels only when
    assembling the :class:`~repro.core.results.SmashResult`.  It is
    ``None`` only for instances built by code that predates interning
    (``finish`` then derives one from the trace).
    """

    trace: HttpTrace
    preprocess_report: PreprocessReport
    main: MiningOutcome
    secondary: dict[str, MiningOutcome]
    interner: Interner | None = None
    #: Cross-``finish`` memo (e.g. the trace's dominant-referrer map):
    #: ``finish`` is called once per threshold in a sweep and twice per
    #: streamed day, over the same mined trace.
    stage_cache: dict = field(default_factory=dict, compare=False, repr=False)


class SmashPipeline:
    """Run SMASH over an HTTP trace.

    Results do not depend on earlier ``run`` calls; all tunables live in
    the :class:`~repro.config.SmashConfig` given at construction.  The
    one thing a pipeline keeps between mines is its warm subprocess
    shard workers (``dispatch="subprocess"``): the first mine that needs
    them starts them, and they live until :meth:`close` (or ``with``
    block exit).  A pipeline nobody closed reaps them when it is
    garbage-collected or the interpreter exits.
    """

    def __init__(self, config: SmashConfig | None = None) -> None:
        self.config = config or SmashConfig()
        self.config.validate()
        #: The metrics recorder every stage records into; the shared
        #: no-op :data:`~repro.obs.NULL_RECORDER` unless the config
        #: carries a live :class:`~repro.obs.MetricsRegistry`.
        self.metrics = self.config.metrics or NULL_RECORDER
        self._shard_workers = None

    @property
    def shard_workers(self):
        """The idle subprocess shard workers every mine reuses.

        A :class:`~repro.core.dispatch.ShardWorkers`, made by the first
        sharded mine, so building a pipeline imports and starts nothing.
        """
        if self._shard_workers is None:
            from repro.core.dispatch import ShardWorkers

            self._shard_workers = ShardWorkers()
            weakref.finalize(self, self._shard_workers.close)
        return self._shard_workers

    def close(self) -> None:
        """End the warm shard workers (idempotent).

        The pipeline stays usable: a later subprocess-dispatched mine
        starts new workers.
        """
        if self._shard_workers is not None:
            self._shard_workers.close()

    def __enter__(self) -> "SmashPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- stage 1+2: preprocess and mine --------------------------------------------

    def mine(
        self,
        trace: HttpTrace | None,
        whois: WhoisRegistry | None = None,
        workers: int | None = None,
        executor: str | None = None,
        cache: DimensionCache | None = None,
        shards: int | None = None,
        shard_boundaries: tuple[int, ...] | None = None,
        spill_dir: object | None = None,
        dispatch: str | None = None,
        out_of_core: bool | None = None,
        partitions: object | None = None,
        store_root: object | None = None,
        trace_name: str | None = None,
    ) -> MinedDimensions:
        """Preprocess *trace* and mine ASHs on every enabled dimension.

        The main dimension and each enabled secondary dimension are
        independent build-graph + Louvain jobs; with ``workers > 1`` they
        run concurrently on the configured executor (*workers* and
        *executor* override :class:`~repro.config.SmashConfig`'s
        ``workers`` / ``executor`` fields).  Mining is deterministic by
        construction, so every worker count and executor kind returns an
        identical :class:`MinedDimensions`.

        With *shards* > 1 (overriding ``SmashConfig.shards``) the whole
        mine runs as the map-reduce of :mod:`repro.core.shardmine`:
        per-shard index extraction with spill-to-store, merged
        preprocessing, and partition-parallel pair counting — byte-
        identical to the single-shard path under any ``PYTHONHASHSEED``.
        *shard_boundaries* (per-day request counts, as the streaming
        engine supplies) aligns shard cuts with stored partitions;
        *spill_dir* hosts the partial spill files (a private temporary
        directory is used when ``None``).

        *dispatch* picks how map jobs execute (``serial`` / ``pool`` /
        ``subprocess``) and *out_of_core* selects the streaming reduce
        that never assembles the full prepared trace in the coordinator
        (both override the :class:`~repro.config.SmashConfig` fields of
        the same names).  With *partitions* (``(day, digest)`` references
        into the :class:`~repro.stream.store.TraceStore` at *store_root*)
        instead of a *trace*, map jobs load their day partitions straight
        from the store — pass ``trace=None``, the per-partition request
        counts as *shard_boundaries*, and optionally *trace_name* for the
        result's trace label.  Every combination returns byte-identical
        mining results.

        With *cache* (a :class:`DimensionCache`), dimensions whose input
        signature matches a cached entry are spliced in from the cache
        instead of re-mined; only dirtied dimensions become jobs.  The
        result is structurally identical either way — a signature hit
        proves the dimension's inputs did not change.

        Servers visited by exactly one client are handled the way the
        paper handles them (Appendix C, footnote 10): "all the servers
        that were visited by only one client form an ASH based on our main
        dimension" — one herd per client, complete by construction under
        eq. 1 (every pair scores 1.0), hence density 1.0.  They are kept
        out of the multi-client similarity graph, where their degenerate
        1.0-weight cliques would chain unrelated client neighbourhoods
        together.
        """
        with self.metrics.span("pipeline.mine", metric="smash_mine_seconds") as span:
            return self._mine(
                trace,
                whois,
                workers,
                executor,
                cache,
                span,
                shards,
                shard_boundaries,
                spill_dir,
                dispatch,
                out_of_core,
                partitions,
                store_root,
                trace_name,
            )

    def _mine(
        self,
        trace: HttpTrace | None,
        whois: WhoisRegistry | None,
        workers: int | None,
        executor: str | None,
        cache: DimensionCache | None,
        span,
        shards: int | None = None,
        shard_boundaries: tuple[int, ...] | None = None,
        spill_dir: object | None = None,
        dispatch: str | None = None,
        out_of_core: bool | None = None,
        partitions: object | None = None,
        store_root: object | None = None,
        trace_name: str | None = None,
    ) -> MinedDimensions:
        if trace is None:
            if partitions is None or store_root is None or shard_boundaries is None:
                raise PipelineError(
                    "mine(trace=None) is the store-direct mode: it needs "
                    "partitions, store_root and shard_boundaries"
                )
            if sum(shard_boundaries) == 0:
                raise PipelineError("cannot run SMASH on an empty trace")
        elif len(trace) == 0:
            raise PipelineError("cannot run SMASH on an empty trace")
        config = self.config
        if (
            workers is not None
            or executor is not None
            or shards is not None
            or dispatch is not None
            or out_of_core is not None
        ):
            # Fold the overrides into the config and re-validate, so a bad
            # value fails fast with a ConfigError instead of surfacing as
            # a ValueError after the preprocessing pass.
            config = config.replace(
                workers=config.workers if workers is None else workers,
                executor=config.executor if executor is None else executor,
                shards=config.shards if shards is None else shards,
                dispatch=config.dispatch if dispatch is None else dispatch,
                out_of_core=(
                    config.out_of_core if out_of_core is None else out_of_core
                ),
            )
            config.validate()
        workers = config.workers
        executor = config.executor
        recorder = self.metrics
        use_sharded = (
            config.shards > 1
            or config.out_of_core
            or config.dispatch != "pool"
            or partitions is not None
        )
        if use_sharded:
            from repro.core.shardmine import mine_sharded

            # One pool serves every fan-out of the sharded mine (shard
            # indexing, per-dimension pair partials, Louvain), so the
            # process executor pays its spawn cost once per mine.
            with JobPool(workers=workers, executor=executor) as pool:
                return mine_sharded(
                    self,
                    trace,
                    whois,
                    config,
                    cache,
                    span,
                    pool,
                    boundaries=shard_boundaries,
                    spill_dir=spill_dir,
                    partitions=partitions,
                    store_root=store_root,
                    trace_name=trace_name,
                )
        with recorder.span("pipeline.mine.preprocess") as pre_span:
            prepared, report = preprocess(trace, config.preprocess)
        if recorder.enabled:
            pre_span.set(
                raw_requests=report.raw_requests,
                kept_requests=report.kept_requests,
                raw_servers=report.raw_servers,
                kept_servers=report.kept_servers,
                popular_servers_removed=report.popular_servers_removed,
            )

        clients_by_server = prepared.clients_by_server
        single_client_servers = {
            server
            for server, clients in clients_by_server.items()
            if len(clients) == 1
        }
        # Multi-client restriction of the two main-dimension indices,
        # derived by dropping the single-client servers: a server-level
        # filter cannot change a surviving server's client set, so this
        # equals (and replaces) materialising a filtered trace.
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
        # Under the thread executor, materialise the shared indices before
        # fanning out so workers read (not race to build) the cached
        # dicts.  Serial and process runs skip this: serial builds lazily
        # in order, and process workers re-derive the indices anyway
        # because HttpTrace pickles without its caches.  (`prepared`'s
        # set-valued indices were already built by `clients_by_server`
        # above; the file index is built separately because it is the
        # only one that parses URIs.)
        if executor == "thread" and resolve_workers(workers) > 1:
            _ = prepared.files_by_server

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

        # The recorder never ships to workers: it may not survive process
        # pickling, and worker-side recordings would be lost anyway.  Jobs
        # measure their own wall time instead (``_timed_job``).
        job_config = config if config.metrics is None else config.replace(metrics=None)
        jobs = []
        for dimension in to_mine:
            if dimension == MAIN_DIMENSION:
                jobs.append(
                    partial(
                        _mine_main_dimension,
                        multi_clients_by_server,
                        multi_servers_by_client,
                        single_client_servers,
                        clients_by_server,
                        job_config,
                    )
                )
            else:
                jobs.append(
                    partial(
                        _mine_secondary_dimension, dimension, prepared, whois, job_config
                    )
                )
        with JobPool(workers=workers, executor=executor) as pool:
            if recorder.enabled and jobs:
                timed = pool.run([partial(_timed_job, job) for job in jobs])
                outcomes = [outcome for outcome, _ in timed]
                for dimension, (outcome, seconds) in zip(to_mine, timed):
                    _record_dimension(recorder, dimension, outcome, seconds)
            else:
                outcomes = pool.run(jobs) if jobs else []
        mined_now: dict[str, MiningOutcome | None] = dict(zip(to_mine, outcomes))

        if cache is not None:
            for dimension in to_mine:
                cache.update(dimension, signatures[dimension], mined_now[dimension])
            cache.last_reused = tuple(d for d in dimensions if d in reused)
            cache.last_mined = tuple(to_mine)

        main = (
            reused[MAIN_DIMENSION]
            if MAIN_DIMENSION in reused
            else mined_now[MAIN_DIMENSION]
        )
        assert main is not None  # the main-dimension job never returns None
        secondary: dict[str, MiningOutcome] = {}
        for dimension in config.enabled_secondary_dimensions:
            outcome = (
                reused[dimension] if dimension in reused else mined_now[dimension]
            )
            if outcome is not None:
                secondary[dimension] = outcome
        if recorder.enabled:
            span.set(
                requests=report.kept_requests,
                servers=report.kept_servers,
                mined_dimensions=list(to_mine),
                reused_dimensions=[d for d in dimensions if d in reused],
            )
        return MinedDimensions(
            trace=prepared,
            preprocess_report=report,
            main=main,
            secondary=secondary,
            # One interning of the namespace serves every finish() call
            # (run_sweep re-correlates at several thresholds).
            interner=Interner(clients_by_server),
        )

    # -- stages 3-5: correlate, prune, infer ----------------------------------------

    def finish(
        self,
        mined: MinedDimensions,
        redirects: RedirectOracle | None = None,
        thresh: float | None = None,
    ) -> SmashResult:
        """Correlation, pruning and campaign inference on mined herds.

        The three stages run on interned server ids; labels reappear only
        here, when the :class:`~repro.core.results.SmashResult` is
        assembled (the results boundary).
        """
        with self.metrics.span("pipeline.finish", metric="smash_finish_seconds") as span:
            return self._finish(mined, redirects, thresh, span)

    def _finish(
        self,
        mined: MinedDimensions,
        redirects: RedirectOracle | None,
        thresh: float | None,
        span,
    ) -> SmashResult:
        config = self.config
        recorder = self.metrics
        interner = mined.interner or Interner(mined.trace.clients_by_server)
        with recorder.span("pipeline.finish.correlate") as correlate_span:
            encoded = correlate_ids(
                mined.main, mined.secondary, interner, config.correlation, thresh=thresh
            )
        if config.pruning.prune_referrer_groups:
            referrer_of = mined.stage_cache.get("dominant_referrers")
            if referrer_of is None:
                referrer_of = dominant_referrers(mined.trace)
                mined.stage_cache["dominant_referrers"] = referrer_of
        else:
            referrer_of = {}
        with recorder.span("pipeline.finish.prune") as prune_span:
            pruned, encoded_report = prune_ashes_ids(
                encoded.candidate_ashes,
                mined.trace,
                interner,
                redirects,
                config.pruning,
                referrer_of=referrer_of,
            )
        with recorder.span("pipeline.finish.infer") as infer_span:
            campaigns = infer_campaigns_ids(
                pruned,
                mined.trace,
                encoded.scores,
                encoded.contributions,
                interner,
                encoded_report,
            )
        if recorder.enabled:
            correlate_span.set(candidate_ashes=len(encoded.candidate_ashes))
            prune_span.set(pruned_ashes=len(pruned))
            infer_span.set(campaigns=len(campaigns))
            span.set(campaigns=len(campaigns))
        herds_by_dimension = {MAIN_DIMENSION: mined.main.herds}
        for dimension, mining in mined.secondary.items():
            herds_by_dimension[dimension] = mining.herds
        label_of = interner.label_of
        return SmashResult(
            herds_by_dimension=herds_by_dimension,
            scores={
                label_of(server_id): score
                for server_id, score in encoded.scores.items()
            },
            contributions={
                label_of(server_id): dict(per_dim)
                for server_id, per_dim in encoded.contributions.items()
            },
            candidate_ashes=tuple(
                CandidateAsh(
                    main_index=main_index,
                    secondary_dimension=dimension,
                    secondary_index=secondary_index,
                    servers=interner.decode_set(members),
                )
                for main_index, dimension, secondary_index, members in pruned
            ),
            campaigns=campaigns,
            prune_report=encoded_report.decode(interner),
            main_dimension_dropped=mined.main.dropped,
        )

    # -- one-shot and sweep APIs -------------------------------------------------------

    def run(
        self,
        trace: HttpTrace,
        whois: WhoisRegistry | None = None,
        redirects: RedirectOracle | None = None,
        thresh: float | None = None,
    ) -> SmashResult:
        """Full pipeline at one threshold (default: the configured one)."""
        mined = self.mine(trace, whois)
        return self.finish(mined, redirects, thresh=thresh)

    def run_sweep(
        self,
        trace: HttpTrace,
        thresholds: tuple[float, ...],
        whois: WhoisRegistry | None = None,
        redirects: RedirectOracle | None = None,
    ) -> dict[float, SmashResult]:
        """Run the pipeline once, then re-correlate at each threshold.

        Mining dominates the cost and is threshold-independent, so the
        Table II/III sweeps reuse it.
        """
        mined = self.mine(trace, whois)
        return {
            threshold: self.finish(mined, redirects, thresh=threshold)
            for threshold in thresholds
        }
