"""Configuration for the SMASH pipeline.

All tunables from the paper live here with the paper's defaults:

* IDF (popularity) filter threshold of **200 clients** (Appendix A).
* URI filename length cut-off ``len = 25`` and character-distribution cosine
  threshold ``0.8`` (Section III-B2, Appendix B).
* Whois similarity requires at least **2 shared fields** (Section III-B2).
* Suspiciousness-score sigmoid parameters ``mu = 4`` and ``sigma = 5.5``
  (Section III-C, footnote 6).
* Inference threshold ``thresh = 0.8`` for campaigns with more than one
  client and ``1.0`` for single-client campaigns (Sections V-A1, Appendix C).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.util.parallel import DISPATCH_KINDS, EXECUTOR_KINDS


@dataclass(frozen=True)
class PreprocessConfig:
    """Parameters of the traffic-preprocessing stage (Section III-A)."""

    #: Servers contacted by more than this many distinct clients are
    #: considered globally popular and removed (Appendix A uses 200).
    idf_threshold: int = 200

    #: Aggregate fully-qualified domain names to their second-level domain
    #: (public-suffix aware).  Disabled only for ablation experiments.
    aggregate_second_level: bool = True

    #: Servers contacted by fewer clients than this are kept regardless; the
    #: paper keeps everything below the IDF threshold, i.e. minimum of 1.
    min_clients: int = 1

    def validate(self) -> None:
        if self.idf_threshold < 1:
            raise ConfigError("idf_threshold must be >= 1")
        if self.min_clients < 1:
            raise ConfigError("min_clients must be >= 1")


@dataclass(frozen=True)
class DimensionConfig:
    """Parameters shared by the similarity dimensions (Section III-B)."""

    #: Filenames with at most this many characters must match exactly;
    #: longer filenames are compared by character-frequency cosine
    #: (Appendix B selects 25).
    filename_length_cutoff: int = 25

    #: Cosine similarity threshold for long (possibly obfuscated) filenames.
    filename_cosine_threshold: float = 0.8

    #: Minimum number of identical Whois fields for two servers to be
    #: considered associated at all (avoids matching on a registration
    #: proxy alone).
    whois_min_shared_fields: int = 2

    #: Edges with similarity weight below this value are not added to the
    #: per-dimension similarity graphs.  A small floor drops the background
    #: of coincidental one-shared-client pairs between unrelated benign
    #: servers (their eq.-1 weight is ~1/|Ci||Cj|), which both keeps the
    #: graphs sparse and reproduces the paper's population of servers that
    #: "can not be correlated with other servers in client similarity"
    #: (Section V-C1).  Campaign members share most of their client sets,
    #: so their weights sit orders of magnitude above this floor.
    min_edge_weight: float = 2e-3

    #: Separate (higher) floor for the main dimension.  Benign servers
    #: constantly share the odd client by coincidence; with eq. 1 those
    #: pairs weigh ~1/(|Ci||Cj|), far below any same-campaign pair (bots
    #: make up most of a malicious server's client set, so campaign edges
    #: sit near 1.0).  Keeping the coincidence mesh would let Louvain fuse
    #: unrelated servers into giant flat communities whose density — the
    #: w_m weight of eq. 9 — is meaningless.  The paper's own data shows
    #: the same cut implicitly: 24,964 of ~35k servers are "dropped after
    #: the main dimension processing because they can not be correlated
    #: with other servers in client similarity" (Section V-C1).
    client_min_edge_weight: float = 0.1

    #: Ignore URI files that appear on more than this fraction of all
    #: servers (e.g. ``index.html`` or ``/``) when building the URI-file
    #: dimension; acts like the IDF filter but for filenames.
    max_file_server_fraction: float = 0.25

    #: Heavy-hitter gate for candidate generation: sharing groups (a
    #: client's servers, an IP's domains, a filename's servers, ...) with
    #: more than this many members are skipped during pair accumulation.
    #: ``0`` (the default) disables the gate, and the mined edge set is
    #: exactly the pre-interning one; a positive cap bounds the quadratic
    #: per-group cost deterministically at the price of missing edges
    #: that only manifest through capped groups (the same trade the
    #: ubiquity and posting-list rules already make).
    max_group_size: int = 0

    #: Load-adaptive heavy-hitter gate: when ``max_group_size`` is off
    #: and this budget is positive, pair accumulation inspects its own
    #: group-size distribution first and — only if the projected
    #: enumerated-pair count exceeds the budget — engages the largest
    #: group-size cap that fits it (see
    #: :func:`~repro.core.interning.resolve_auto_cap`).  A pure function
    #: of the groups themselves, so single-pass, parallel and sharded
    #: runs make the identical decision.  ``0`` (the default) disables
    #: auto-capping and reproduces the uncapped edge set exactly.
    auto_cap_pairs: int = 0

    #: Graph backend selector: ``None`` (the default) auto-detects and
    #: uses the numpy CSR backend when numpy is importable, ``False``
    #: forces the pure-python reference backend, ``True`` demands CSR
    #: (raising if numpy is missing).  Both backends produce
    #: byte-identical mining output, so this is an execution-strategy
    #: flag like ``SmashConfig.workers`` — excluded from equality,
    #: repr, and therefore the incremental-mining content signatures.
    use_csr: bool | None = field(default=None, compare=False, repr=False)

    def validate(self) -> None:
        if self.filename_length_cutoff < 1:
            raise ConfigError("filename_length_cutoff must be >= 1")
        if not 0.0 < self.filename_cosine_threshold <= 1.0:
            raise ConfigError("filename_cosine_threshold must be in (0, 1]")
        if self.whois_min_shared_fields < 1:
            raise ConfigError("whois_min_shared_fields must be >= 1")
        if self.min_edge_weight < 0.0:
            raise ConfigError("min_edge_weight must be >= 0")
        if self.client_min_edge_weight < 0.0:
            raise ConfigError("client_min_edge_weight must be >= 0")
        if not 0.0 < self.max_file_server_fraction <= 1.0:
            raise ConfigError("max_file_server_fraction must be in (0, 1]")
        if self.max_group_size < 0:
            raise ConfigError("max_group_size must be >= 0 (0 = no cap)")
        if self.auto_cap_pairs < 0:
            raise ConfigError("auto_cap_pairs must be >= 0 (0 = no auto cap)")


@dataclass(frozen=True)
class CorrelationConfig:
    """Parameters of ASH correlation and scoring (Section III-C)."""

    #: Location of the "S"-shaped normalisation Phi(x) = (1+erf((x-mu)/sigma))/2.
    #: The paper sets mu = 4 so that herds with fewer than four common
    #: servers receive a low score.
    mu: float = 4.0

    #: Steepness of the normalisation curve; the paper sets sigma = 5.5.
    sigma: float = 5.5

    #: Servers whose accumulated suspiciousness score falls below this
    #: threshold are removed from all ASHs.  Paper default for campaigns
    #: with more than one client.
    thresh: float = 0.8

    #: Threshold used for campaigns with a single involved client
    #: (Appendix C adjusts it to 1.0).
    single_client_thresh: float = 1.0

    def validate(self) -> None:
        if self.sigma <= 0.0:
            raise ConfigError("sigma must be > 0")
        if self.thresh < 0.0:
            raise ConfigError("thresh must be >= 0")
        if self.single_client_thresh < 0.0:
            raise ConfigError("single_client_thresh must be >= 0")


@dataclass(frozen=True)
class PruningConfig:
    """Parameters of the pruning stage (Section III-D)."""

    #: Collapse redirection chains onto their landing server.
    prune_redirection_groups: bool = True

    #: Collapse herds whose members are all referred by one landing server.
    prune_referrer_groups: bool = True

    #: Fraction of a herd that must share one referrer/landing server for
    #: the herd to count as a referrer/redirection group.
    group_share_fraction: float = 1.0

    def validate(self) -> None:
        if not 0.0 < self.group_share_fraction <= 1.0:
            raise ConfigError("group_share_fraction must be in (0, 1]")


@dataclass(frozen=True)
class LouvainConfig:
    """Parameters of the community-detection substrate."""

    #: Stop a Louvain level when the modularity gain falls below this value.
    min_modularity_gain: float = 1e-7

    #: Hard cap on the number of coarsening levels (safety valve; real
    #: graphs converge in a handful of levels).
    max_levels: int = 32

    #: Hard cap on local-move sweeps inside one level.
    max_sweeps: int = 64

    #: Seed for the node-visit shuffling inside Louvain; fixed for
    #: reproducibility.
    seed: int = 0

    #: Recursively re-run Louvain inside each community until no community
    #: splits further.  Plain modularity optimisation cannot resolve
    #: communities whose internal weight is below ~sqrt(2m) of the whole
    #: graph (the resolution limit), which at trace scale fuses small tight
    #: herds into loose neighbourhoods; local refinement removes that
    #: dependence on global graph size while leaving cliques intact
    #: (splitting a clique always lowers modularity).
    refine: bool = True

    #: Recursion depth cap for the refinement (each split strictly
    #: shrinks the community, so this is a safety valve only).
    max_refine_depth: int = 12

    #: Communities at or below this size are never refined further.
    min_refine_size: int = 4

    #: Communities whose induced subgraph is at least this dense are never
    #: split further: they already are the well-connected herds eq. 9's
    #: density weight is designed to reward, and splitting a quasi-clique
    #: whose edge weights merely vary (a campaign with background-visitor
    #: noise) would shred real herds.
    refine_density_stop: float = 0.5

    #: A refinement split is additionally accepted only when the
    #: community's internal Louvain run reaches at least this modularity —
    #: a small guard against splitting on numerical noise.
    refine_min_modularity: float = 0.1

    def validate(self) -> None:
        if self.min_modularity_gain < 0.0:
            raise ConfigError("min_modularity_gain must be >= 0")
        if self.max_levels < 1:
            raise ConfigError("max_levels must be >= 1")
        if self.max_sweeps < 1:
            raise ConfigError("max_sweeps must be >= 1")
        if self.max_refine_depth < 0:
            raise ConfigError("max_refine_depth must be >= 0")
        if self.min_refine_size < 2:
            raise ConfigError("min_refine_size must be >= 2")
        if not 0.0 <= self.refine_min_modularity < 1.0:
            raise ConfigError("refine_min_modularity must be in [0, 1)")
        if not 0.0 <= self.refine_density_stop <= 1.0:
            raise ConfigError("refine_density_stop must be in [0, 1]")


@dataclass(frozen=True)
class SmashConfig:
    """Top-level configuration bundle for a SMASH run.

    The zero-argument constructor reproduces the paper's operating point.
    Use :meth:`replace` to derive variants for sweeps and ablations::

        cfg = SmashConfig().replace(correlation=CorrelationConfig(thresh=1.5))
    """

    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    dimensions: DimensionConfig = field(default_factory=DimensionConfig)
    correlation: CorrelationConfig = field(default_factory=CorrelationConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    louvain: LouvainConfig = field(default_factory=LouvainConfig)

    #: Campaigns must involve at least this many distinct clients to be
    #: reported in the multi-client track (Section V-A1 considers campaigns
    #: with at least two involved clients; single-client campaigns are
    #: handled separately per Appendix C).
    min_campaign_clients: int = 2

    #: Which secondary dimensions to enable.  The default triple is the
    #: paper's published system; ``"urlparam"`` (the Section V-A2
    #: parameter-pattern extension that recovers the Cycbot/Fake AV false
    #: negatives) and ``"time"`` (the Section VI temporal extension) are
    #: available opt-in.  Also drives the Figure-8 decomposition and the
    #: dimension ablations.
    enabled_secondary_dimensions: tuple[str, ...] = ("urifile", "ipset", "whois")

    #: Worker count for per-dimension mining inside ``SmashPipeline.mine``
    #: (the main dimension plus each enabled secondary dimension is an
    #: independent build-graph + Louvain job).  ``1`` (the default) mines
    #: serially; ``0`` means one worker per available CPU.  Mining is
    #: deterministic by construction, so every worker count produces an
    #: identical :class:`~repro.core.results.SmashResult`.
    workers: int = 1

    #: Executor used when ``workers > 1``: ``"serial"``, ``"thread"`` or
    #: ``"process"`` (see :mod:`repro.util.parallel` for the trade-offs).
    executor: str = "thread"

    #: Shard count for the map-reduce mine path
    #: (:mod:`repro.core.shardmine`).  ``1`` (the default) mines in one
    #: pass; ``N > 1`` splits the trace into N contiguous shards
    #: (day-partition-aligned under the streaming engine), extracts
    #: per-shard index partials with spill-to-store, and runs
    #: partition-parallel pair counting on the ``workers``/``executor``
    #: pool.  Sharding is an execution strategy, not a semantic knob:
    #: every shard count produces byte-identical results, so (like
    #: ``workers``) the field is top-level and excluded from the
    #: incremental-mining content signatures.
    shards: int = 1

    #: How the sharded mine's map jobs are dispatched (see
    #: :mod:`repro.core.dispatch`): ``"pool"`` (the default) runs them on
    #: the mine's shared ``workers``/``executor`` pool, ``"serial"``
    #: forces an inline loop in the coordinator, and ``"subprocess"``
    #: runs them in warm worker interpreters speaking the remote-worker
    #: contract (store paths + partial digests only): up to
    #: ``min(workers, shards)`` of them, started by the first mine and
    #: reused by the pipeline's later mines until
    #: ``SmashPipeline.close()``.  Like ``workers`` and ``shards``, a
    #: pure execution strategy: every dispatcher produces byte-identical
    #: results.
    dispatch: str = "pool"

    #: Run the sharded mine out-of-core: shard jobs load their own day
    #: partitions from the :class:`~repro.stream.store.TraceStore` and
    #: the reduce streams spilled index partials into per-dimension
    #: graphs without ever assembling the full prepared trace in the
    #: coordinator.  Byte-identical to the in-memory path; only peak
    #: coordinator RSS changes.  Requires a trace store on the streaming
    #: path (``smash stream --store``).
    out_of_core: bool = False

    #: Default for the streaming engine's per-dimension mining cache: on
    #: window advance, dimensions whose content signature is unchanged by
    #: the entering/leaving days are spliced in from cache instead of
    #: re-mined (see :class:`~repro.core.pipeline.DimensionCache`).  A
    #: cache hit is provably identical to a cold re-mine, so this only
    #: changes advance latency, never results; disable (or pass
    #: ``--no-incremental``) to force full re-mines, e.g. when measuring
    #: cold-path performance.
    incremental: bool = True

    #: How many times a failed shard-map job may be retried before the
    #: coordinator reassigns it to inline execution (see
    #: :mod:`repro.core.faults`).  Retries fire only on *retryable*
    #: failures — worker death, timeout, torn spill — never on a corrupt
    #: source partition, which fails fast on any host.  ``0`` disables
    #: retries (one attempt per job).  Recovery re-runs the identical
    #: deterministic job on a fresh spill name, so results stay
    #: byte-identical whatever the retry budget.
    shard_retries: int = 2

    #: Wall-clock budget (seconds) for one subprocess shard-job attempt;
    #: a worker running past it is killed and the attempt counts as a
    #: retryable timeout.  In-process dispatchers cannot interrupt a
    #: running job and do not enforce it.
    shard_timeout: float = 600.0

    #: Deterministic fault-injection plan (a
    #: :class:`~repro.core.faults.FaultPlan`) applied to shard-map jobs;
    #: ``None`` (the default, and the only sane production value)
    #: injects nothing.  Used by ``smash chaos``, the chaos CI gate and
    #: the fault-tolerance tests to prove recovery: a mine that survives
    #: its plan must produce byte-identical output, so — like
    #: ``metrics`` — the field is excluded from equality, repr, and the
    #: incremental-mining content signatures.
    fault_plan: object | None = field(default=None, compare=False, repr=False)

    #: Metrics recorder (a :class:`~repro.obs.MetricsRegistry`) the
    #: pipeline records spans and counters into; ``None`` (the default)
    #: selects the shared :data:`~repro.obs.NULL_RECORDER`, whose every
    #: method is a no-op.  Recording is metadata-only by contract — it
    #: never influences mining results — so the field is excluded from
    #: equality, repr, and (being top-level) the incremental-mining
    #: content signatures, which digest only the sub-configs.
    metrics: object | None = field(default=None, compare=False, repr=False)

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any parameter is out of range."""
        self.preprocess.validate()
        self.dimensions.validate()
        self.correlation.validate()
        self.pruning.validate()
        self.louvain.validate()
        if self.min_campaign_clients < 1:
            raise ConfigError("min_campaign_clients must be >= 1")
        known = {"urifile", "ipset", "whois", "urlparam", "time"}
        unknown = set(self.enabled_secondary_dimensions) - known
        if unknown:
            raise ConfigError(f"unknown secondary dimensions: {sorted(unknown)}")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0 (0 = one per CPU)")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.executor not in EXECUTOR_KINDS:
            raise ConfigError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.dispatch not in DISPATCH_KINDS:
            raise ConfigError(
                f"dispatch must be one of {DISPATCH_KINDS}, got {self.dispatch!r}"
            )
        if self.shard_retries < 0:
            raise ConfigError("shard_retries must be >= 0 (0 = single attempt)")
        if self.shard_timeout <= 0:
            raise ConfigError("shard_timeout must be > 0 seconds")

    def replace(self, **changes: object) -> "SmashConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_thresh(self, thresh: float) -> "SmashConfig":
        """Return a copy with the correlation threshold replaced.

        Convenience for the threshold sweeps of Tables II, III, XI and XII.
        """
        return self.replace(
            correlation=dataclasses.replace(self.correlation, thresh=thresh)
        )


DEFAULT_CONFIG = SmashConfig()
"""The paper's operating point (thresh 0.8, IDF 200, len 25, mu 4, sigma 5.5)."""
