"""The incremental streaming engine.

:class:`StreamingSmash` turns the one-shot batch pipeline into a
day-over-day system: each :meth:`~StreamingSmash.ingest_day` call slides
the rolling window forward, runs SMASH over the window, hands the run's
campaigns to the :class:`~repro.stream.tracker.CampaignTracker` for
cross-day identity matching, and fans the resulting events out to the
alert sinks.

Per advance the engine mines the similarity dimensions **once** and
correlates at both operating thresholds (0.8 multi-client, 1.0
single-client — footnote 9), exactly as ``SmashPipeline.run_sweep``
reuses mining across thresholds.  The mined dimensions stay cached for
the current window, so :meth:`~StreamingSmash.rerun_at` can explore
additional thresholds without re-mining, and the window itself caches
every per-day input so nothing is regenerated as the window slides.

Two further levers make the advance itself incremental:

* ``incremental=True`` (the default) keeps a
  :class:`~repro.core.pipeline.DimensionCache` across advances, so only
  dimensions whose inputs are dirtied by the entering/leaving days are
  re-mined; the rest are spliced in from cache, provably identical to a
  cold full-window re-mine;
* ``store_dir=...`` persists every ingested day into a
  :class:`~repro.stream.store.TraceStore`, so the window holds on-disk
  handles and checkpoints shrink to metadata plus tracker state.
"""

from __future__ import annotations

import logging

from pathlib import Path

from dataclasses import dataclass, field, replace as dc_replace

from repro.config import SmashConfig
from repro.core.pipeline import (
    DimensionCache,
    MinedDimensions,
    SmashPipeline,
    dimension_build_stats,
)
from repro.core.results import MAIN_DIMENSION, Campaign, SmashResult
from repro.errors import StreamError
from repro.httplog.trace import HttpTrace
from repro.obs.metrics import NULL_RECORDER
from repro.stream.alerts import AlertSink
from repro.stream.scoring import AlertPolicy, CampaignScorer, EvidenceSource, ScorerConfig
from repro.stream.store import TraceStore
from repro.stream.tracker import CampaignTracker, TrackedCampaign, TrackerConfig, TrackEvent
from repro.stream.window import DayPartition, RollingWindow
from repro.synth.oracles import RedirectOracle
from repro.whois.registry import WhoisRegistry

#: The paper's operating thresholds (Section V-A1, Appendix C).
DEFAULT_THRESH = 0.8
SINGLE_CLIENT_THRESH = 1.0

#: Library logger: silent unless an application (e.g. the CLI via
#: ``repro.obs.configure_logging``) attaches a handler.
_LOGGER = logging.getLogger("repro.stream")


@dataclass(frozen=True)
class StreamUpdate:
    """Everything one window advance produced."""

    day: int
    window_days: tuple[int, ...]
    result: SmashResult
    single_client_result: SmashResult | None
    #: The campaigns fed to the tracker: multi-client campaigns from
    #: ``result`` plus single-client campaigns from the 1.0-threshold run.
    campaigns: tuple[Campaign, ...]
    events: tuple[TrackEvent, ...]
    #: Snapshot of the identities alive after this advance.
    active: tuple[TrackedCampaign, ...]
    #: Dimensions spliced in from the incremental cache this advance
    #: (empty when the engine runs with ``incremental=False``).
    reused_dimensions: tuple[str, ...] = ()
    #: Dimensions actually re-mined this advance.
    mined_dimensions: tuple[str, ...] = ()
    #: The subset of ``events`` at or above the policy's ``min_severity``
    #: — exactly what was emitted to the alert sinks this advance.
    alerts: tuple[TrackEvent, ...] = ()
    #: Per-dimension candidate-pair accounting from this advance's mined
    #: graphs (``repro.core.pipeline.dimension_build_stats``): the
    #: heavy-hitter load signal, surfaced in the stream summary JSON.
    #: Cache-spliced dimensions report the stats of the (provably
    #: identical) cached build.
    build_stats: dict[str, dict[str, object]] = field(default_factory=dict)

    @property
    def num_campaigns(self) -> int:
        return len(self.campaigns)

    @property
    def detected_servers(self) -> frozenset[str]:
        servers: set[str] = set()
        for campaign in self.campaigns:
            servers |= campaign.servers
        return frozenset(servers)

    def events_of(self, kind: str) -> tuple[TrackEvent, ...]:
        return tuple(event for event in self.events if event.kind == kind)


class StreamingSmash:
    """Run SMASH incrementally over a multi-day stream of HTTP logs."""

    def __init__(
        self,
        config: SmashConfig | None = None,
        window_size: int = 1,
        tracker: CampaignTracker | None = None,
        tracker_config: TrackerConfig | None = None,
        sinks: tuple[AlertSink, ...] = (),
        thresh: float = DEFAULT_THRESH,
        single_client_thresh: float | None = SINGLE_CLIENT_THRESH,
        workers: int | None = None,
        executor: str | None = None,
        shards: int | None = None,
        shard_retries: int | None = None,
        shard_timeout: float | None = None,
        fault_plan=None,
        store: TraceStore | None = None,
        store_dir: str | Path | None = None,
        incremental: bool | None = None,
        evidence: tuple[EvidenceSource, ...] = (),
        policy: AlertPolicy | None = None,
        scorer: CampaignScorer | ScorerConfig | None = None,
        metrics=None,
    ) -> None:
        if tracker is not None and tracker_config is not None:
            raise StreamError("pass either tracker or tracker_config, not both")
        if store is not None and store_dir is not None:
            raise StreamError("pass either store or store_dir, not both")
        self.config = config or SmashConfig()
        # One recorder serves the whole stack: an explicit `metrics`
        # argument wins, else the config's recorder, else the shared
        # no-op.  The config is re-derived so the pipeline (and its
        # mining spans) record into the same registry.
        self.metrics = metrics or self.config.metrics or NULL_RECORDER
        if self.metrics.enabled and self.config.metrics is not self.metrics:
            self.config = self.config.replace(metrics=self.metrics)
        # Per-advance runs mine every dimension over the current window;
        # `workers`/`executor`/`shards` override the config's fan-out
        # settings without the caller having to build a SmashConfig.
        # Mining is deterministic (sharded or not), so this never changes
        # the stream's campaigns or tracker identities — only how fast
        # each advance completes and how much memory it holds at peak.
        # `shard_retries`/`shard_timeout`/`fault_plan` ride the same way:
        # retries and injected (recoverable) faults change only how an
        # advance executes, never what it mines.
        overrides = {
            "workers": workers,
            "executor": executor,
            "shards": shards,
            "shard_retries": shard_retries,
            "shard_timeout": shard_timeout,
            "fault_plan": fault_plan,
        }
        changed = {name: value for name, value in overrides.items() if value is not None}
        if changed:
            self.config = self.config.replace(**changed)
        self.pipeline = SmashPipeline(self.config)
        self.store = (
            TraceStore(store_dir, metrics=self.metrics)
            if store_dir is not None
            else store
        )
        if self.store is not None and self.metrics.enabled:
            self.store.metrics = self.metrics
        if self.config.out_of_core and self.store is None:
            raise StreamError(
                "out-of-core streaming needs a trace store (store_dir=... or "
                "--store): store-direct shard jobs load day partitions from it"
            )
        self.window = RollingWindow(window_size, store=self.store)
        self.tracker = tracker or CampaignTracker(tracker_config)
        self.sinks = tuple(sinks)
        self.thresh = thresh
        self.single_client_thresh = single_client_thresh
        self.incremental = (
            self.config.incremental if incremental is None else incremental
        )
        self._dimension_cache = DimensionCache() if self.incremental else None
        self._mined: tuple[tuple[int, ...], MinedDimensions] | None = None
        self.evidence = tuple(evidence)
        names = [source.name for source in self.evidence]
        if len(names) != len(set(names)):
            raise StreamError(f"evidence source names must be unique: {names}")
        self.policy = policy or AlertPolicy()
        self.policy.validate()
        if isinstance(scorer, ScorerConfig):
            scorer = CampaignScorer(scorer)
        self.scorer = scorer or CampaignScorer()

    # -- ingestion ----------------------------------------------------------------

    def ingest_day(
        self,
        day: int,
        trace: HttpTrace,
        whois: WhoisRegistry | None = None,
        redirects: RedirectOracle | None = None,
    ) -> StreamUpdate:
        """Advance the stream by one day of log records."""
        with self.metrics.span(
            "stream.advance", metric="smash_advance_seconds", day=day
        ) as span:
            update = self._ingest_day(day, trace, whois, redirects)
        if self.metrics.enabled:
            self._record_advance(span, trace, update)
        if _LOGGER.isEnabledFor(logging.DEBUG):
            _LOGGER.debug(
                "advance",
                extra={
                    "data": {
                        "day": day,
                        "window_days": list(update.window_days),
                        "requests": len(trace),
                        "reused_dimensions": len(update.reused_dimensions),
                        "mined_dimensions": len(update.mined_dimensions),
                        "campaigns": len(update.campaigns),
                        "events": len(update.events),
                        "alerts": len(update.alerts),
                        "active": len(update.active),
                    }
                },
            )
        return update

    def _record_advance(self, span, trace: HttpTrace, update: StreamUpdate) -> None:
        """Fold one advance's outcome into the metrics registry."""
        recorder = self.metrics
        span.set(
            requests=len(trace),
            window_days=list(update.window_days),
            campaigns=len(update.campaigns),
            events=len(update.events),
            alerts=len(update.alerts),
            reused_dimensions=list(update.reused_dimensions),
            mined_dimensions=list(update.mined_dimensions),
        )
        recorder.counter(
            "smash_requests_ingested_total",
            "HTTP log records ingested across all advances.",
        ).inc(len(trace))
        reused = recorder.counter(
            "smash_dimensions_reused_total",
            "Dimensions spliced in from the incremental cache.",
            labels=("dimension",),
        )
        for dimension in update.reused_dimensions:
            reused.labels(dimension=dimension).inc()
        mined = recorder.counter(
            "smash_dimensions_mined_total",
            "Dimensions re-mined because their inputs changed.",
            labels=("dimension",),
        )
        for dimension in update.mined_dimensions:
            mined.labels(dimension=dimension).inc()
        created = len(update.events_of("new_campaign"))
        expired = len(update.events_of("campaign_died"))
        recorder.counter(
            "smash_tracker_created_total", "New campaign identities created."
        ).inc(created)
        recorder.counter(
            "smash_tracker_expired_total", "Campaign identities that died out."
        ).inc(expired)
        recorder.counter(
            "smash_tracker_matches_total",
            "Campaigns matched to an already-tracked identity.",
        ).inc(max(0, len(update.campaigns) - created))
        emitted = recorder.counter(
            "smash_alerts_emitted_total",
            "Alerts emitted to the sinks, by severity.",
            labels=("severity",),
        )
        suppressed = recorder.counter(
            "smash_alerts_suppressed_total",
            "Events below the alert policy's min_severity, by severity.",
            labels=("severity",),
        )
        alerted = set(map(id, update.alerts))
        for event in update.events:
            severity = event.severity or "info"
            if id(event) in alerted:
                emitted.labels(severity=severity).inc()
            else:
                suppressed.labels(severity=severity).inc()
        recorder.gauge(
            "smash_window_days", "Days currently in the rolling window."
        ).set(len(update.window_days))
        recorder.gauge(
            "smash_active_campaigns", "Tracked campaign identities currently alive."
        ).set(len(update.active))

    def _ingest_day(
        self,
        day: int,
        trace: HttpTrace,
        whois: WhoisRegistry | None,
        redirects: RedirectOracle | None,
    ) -> StreamUpdate:
        self.window.append(DayPartition(day=day, trace=trace, whois=whois, redirects=redirects))
        if self.config.out_of_core:
            # Never assemble the window trace in this process: sidecars
            # merge one partition at a time and the mine is store-direct.
            combined_whois, combined_redirects = self.window.combined_sidecars()
            combined_trace: HttpTrace | None = None
        else:
            combined_trace, combined_whois, combined_redirects = self.window.combined()

        mined = self._mine_window(combined_trace, combined_whois)
        self._mined = (self.window.days, mined)
        if self._dimension_cache is not None:
            reused_dimensions = self._dimension_cache.last_reused
            mined_dimensions = self._dimension_cache.last_mined
        else:
            reused_dimensions = ()
            mined_dimensions = (
                MAIN_DIMENSION,
                *self.config.enabled_secondary_dimensions,
            )

        result = self.pipeline.finish(mined, combined_redirects, thresh=self.thresh)
        campaigns = list(result.campaigns_with_clients(2))
        single_result: SmashResult | None = None
        if self.single_client_thresh is not None:
            single_result = self.pipeline.finish(
                mined, combined_redirects, thresh=self.single_client_thresh
            )
            campaigns.extend(single_result.campaigns_with_clients(1, 1))

        events = self.tracker.advance(day, campaigns)

        # Evidence accumulates from the day's own traffic *before* the
        # day's events are scored, so a campaign whose server trips an
        # IDS signature today is already escalated in today's alerts.
        for source in self.evidence:
            source.observe_day(day, trace)
        scored = tuple(self._score_event(event) for event in events)
        alerts = tuple(
            event for event in scored if self.policy.passes(event.severity or "info")
        )
        for sink in self.sinks:
            for event in scored if sink.receive_all else alerts:
                sink.emit(event)

        return StreamUpdate(
            day=day,
            window_days=self.window.days,
            result=result,
            single_client_result=single_result,
            campaigns=tuple(campaigns),
            events=scored,
            active=self.tracker.active,
            reused_dimensions=reused_dimensions,
            mined_dimensions=mined_dimensions,
            alerts=alerts,
            build_stats=dimension_build_stats(mined),
        )

    def _mine_window(
        self, combined_trace: HttpTrace | None, combined_whois: WhoisRegistry | None
    ) -> MinedDimensions:
        """Mine the combined window, sharded along day partitions.

        With ``config.shards > 1`` the mine receives the window's per-day
        request counts as shard boundaries (shard cuts land on stored
        partition edges) and, when a trace store is attached, spills its
        index/pair partials under the store's ``.partials`` directory
        instead of a process-private tempdir.

        With ``config.out_of_core`` (*combined_trace* is ``None``) the
        mine is store-direct: shard jobs are handed ``(day, digest)``
        partition references and load their own partitions from the
        store; boundaries come from the partition manifests, so no day is
        materialised in the coordinator at all.
        """
        if self.config.out_of_core:
            assert self.store is not None  # guaranteed by __init__
            refs = self.window.partition_refs()
            days = self.window.days
            return self.pipeline.mine(
                None,
                whois=combined_whois,
                cache=self._dimension_cache,
                partitions=[(ref.day, ref.digest) for ref in refs],
                store_root=self.store.root,
                shard_boundaries=tuple(
                    self.store.request_count(ref.day, ref.digest) for ref in refs
                ),
                trace_name=f"window-days-{days[0]}-{days[-1]}",
                spill_dir=self.store.partials_dir(),
            )
        if self.config.shards <= 1:
            return self.pipeline.mine(
                combined_trace, whois=combined_whois, cache=self._dimension_cache
            )
        return self.pipeline.mine(
            combined_trace,
            whois=combined_whois,
            cache=self._dimension_cache,
            shard_boundaries=self.window.partition_request_counts(),
            spill_dir=None if self.store is None else self.store.partials_dir(),
        )

    def _score_event(self, event: TrackEvent) -> TrackEvent:
        """Attach score + severity from the identity's current history."""
        campaign = self.tracker.get(event.uid)
        features, score = self.scorer.assess(campaign, self.evidence)
        severity = self.policy.severity(event, features, score)
        return dc_replace(event, severity=severity, score=score)

    def ingest_dataset(self, dataset, day: int | None = None) -> StreamUpdate:
        """Ingest a :class:`~repro.synth.generator.SyntheticDataset`.

        Evidence sources adopt the dataset's ground-truth objects first
        (scenario generators rebuild the IDS signature sets and blacklist
        listings per day as campaigns rotate infrastructure).
        """
        for source in self.evidence:
            source.bind_dataset(dataset)
        return self.ingest_day(
            day if day is not None else dataset.day,
            dataset.trace,
            whois=dataset.whois,
            redirects=dataset.redirects,
        )

    def run_datasets(self, datasets) -> list[StreamUpdate]:
        """Ingest an iterable of datasets (e.g. ``TraceGenerator.iter_days()``)."""
        return [self.ingest_dataset(dataset) for dataset in datasets]

    def rerun_at(self, thresh: float) -> SmashResult:
        """Re-correlate the current window at another threshold.

        Reuses the cached mined dimensions — no preprocessing or graph
        mining is repeated (mining dominates the cost and is
        threshold-independent, like ``SmashPipeline.run_sweep``).
        """
        if self._mined is None or self._mined[0] != self.window.days:
            if not len(self.window):
                raise StreamError("no day ingested yet")
            if self.config.out_of_core:
                combined_whois, _ = self.window.combined_sidecars()
                combined_trace: HttpTrace | None = None
            else:
                combined_trace, combined_whois, _ = self.window.combined()
            self._mined = (
                self.window.days,
                self._mine_window(combined_trace, combined_whois),
            )
        if self.config.out_of_core:
            _, combined_redirects = self.window.combined_sidecars()
        else:
            _, _, combined_redirects = self.window.combined()
        return self.pipeline.finish(self._mined[1], combined_redirects, thresh=thresh)

    def close(self) -> None:
        """Close every sink and end the pipeline's warm shard workers.

        One failing sink never skips the rest, nor the workers.
        """
        first_error: BaseException | None = None
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as error:  # noqa: BLE001 - sinks are third-party code
                if first_error is None:
                    first_error = error
        self.pipeline.close()
        if first_error is not None:
            raise first_error

    # -- checkpoint support -------------------------------------------------------

    @property
    def last_day(self) -> int | None:
        return self.tracker.last_day

    def state_dict(self) -> dict[str, object]:
        """Serialisable state: tracker + window + stream parameters.

        The :class:`~repro.config.SmashConfig` and alert sinks are *not*
        serialised; pass them again when restoring.  The mined-dimension
        and incremental caches are derived state, rebuilt on demand.

        With a trace store attached the window serialises as per-day
        ``(day, digest)`` references plus the store root, so checkpoints
        stay a few KB regardless of window length.
        """
        state: dict[str, object] = {
            "thresh": self.thresh,
            "single_client_thresh": self.single_client_thresh,
            "window": self.window.to_dict(),
            "tracker": self.tracker.to_dict(),
        }
        if self.store is not None:
            state["store_root"] = str(self.store.root.resolve())
        if self.evidence:
            # Evidence accumulations are stream state like the tracker:
            # a resumed stream must score a replayed day identically.
            state["evidence"] = {
                source.name: source.state_dict() for source in self.evidence
            }
        state["policy"] = self.policy.to_dict()
        return state

    @classmethod
    def from_state_dict(
        cls,
        state: dict[str, object],
        config: SmashConfig | None = None,
        sinks: tuple[AlertSink, ...] = (),
        store: TraceStore | None = None,
        incremental: bool | None = None,
        evidence: tuple[EvidenceSource, ...] = (),
        policy: AlertPolicy | None = None,
        scorer: CampaignScorer | ScorerConfig | None = None,
        metrics=None,
    ) -> "StreamingSmash":
        """Rebuild an engine; evidence *objects* are process wiring (like
        sinks and the config) and must be passed again, but each one's
        accumulated hits are restored from the checkpoint by source name.
        With no explicit *policy* the checkpointed severity rules win,
        mirroring how resume treats the window size and tracker tuning.
        """
        window_state = state["window"]
        if store is None and isinstance(window_state, dict) and window_state.get("store"):
            # Reopen the store the checkpoint was written against, if it
            # is still where the checkpoint says it was.
            root = state.get("store_root")
            if isinstance(root, str) and Path(root).is_dir():
                store = TraceStore(root)
        window = RollingWindow.from_dict(window_state, store=store)  # type: ignore[arg-type]
        single = state.get("single_client_thresh")
        if policy is None:
            policy_state = state.get("policy")
            if isinstance(policy_state, dict):
                policy = AlertPolicy.from_dict(policy_state)
        engine = cls(
            config=config,
            window_size=window.size,
            tracker=CampaignTracker.from_dict(state["tracker"]),  # type: ignore[arg-type]
            sinks=sinks,
            thresh=float(state.get("thresh", DEFAULT_THRESH)),  # type: ignore[arg-type]
            single_client_thresh=None if single is None else float(single),  # type: ignore[arg-type]
            store=store,
            incremental=incremental,
            evidence=evidence,
            policy=policy,
            scorer=scorer,
            metrics=metrics,
        )
        engine.window = window
        evidence_state = state.get("evidence")
        if isinstance(evidence_state, dict):
            for source in engine.evidence:
                source_state = evidence_state.get(source.name)
                if isinstance(source_state, dict):
                    source.load_state(source_state)
        return engine
