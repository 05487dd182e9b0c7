"""Incremental multi-day streaming engine with cross-day campaign tracking.

The batch pipeline answers "what is malicious in *this* trace?"; this
package answers the operational question the paper closes with — SMASH
"can be run everyday to detect daily malicious activities" — by running
the pipeline continuously:

* :mod:`repro.stream.window` — rolling N-day window over per-day log
  partitions (trace + Whois + redirect sidecars), oldest day evicted as
  the stream advances;
* :mod:`repro.stream.engine` — :class:`StreamingSmash`, one pipeline
  run per window advance with mining reused across thresholds;
* :mod:`repro.stream.tracker` — :class:`CampaignTracker`, stable
  campaign identities matched across days via server-set Jaccard (with
  a client-set fallback for agile campaigns), yielding Figure 7's
  persistence decomposition and campaign lifetimes as live bookkeeping;
* :mod:`repro.stream.alerts` — pluggable sinks for new-campaign /
  campaign-growth / campaign-died events;
* :mod:`repro.stream.scoring` — evidence-driven alert scoring:
  :class:`EvidenceSource` providers over the ground-truth IDS /
  blacklists, a :class:`CampaignScorer` deriving a deterministic risk
  score from each identity's history, and an :class:`AlertPolicy` that
  attaches ``severity``/``score`` to every event and suppresses
  sub-threshold noise before it reaches the sinks;
* :mod:`repro.stream.checkpoint` — JSON snapshot/resume of the whole
  engine (window + tracker), so a killed stream resumes losslessly;
* :mod:`repro.stream.store` — :class:`TraceStore`, an on-disk
  content-addressed day-partition store; with one attached the window
  holds lazy :class:`PartitionRef` handles and checkpoints shrink to
  metadata plus tracker state.

Quick start::

    from repro.stream import StreamingSmash
    from repro.synth import TraceGenerator, small_scenario

    engine = StreamingSmash()
    for dataset in TraceGenerator(small_scenario(days=7)).iter_days():
        update = engine.ingest_dataset(dataset)
        print(update.day, update.num_campaigns, [c.uid for c in update.active])
"""

from repro._lazy import lazy_exports

__all__ = [
    "AlertPolicy",
    "AlertSink",
    "BlacklistEvidence",
    "CHECKPOINT_VERSION",
    "CallbackSink",
    "CampaignScorer",
    "CampaignTracker",
    "ConsoleSink",
    "DayPartition",
    "EvidenceSource",
    "IdsEvidence",
    "JsonlSink",
    "ListSink",
    "PartitionRef",
    "RiskFeatures",
    "RollingWindow",
    "SEVERITIES",
    "SEVERITY_RANK",
    "ScorerConfig",
    "StaticEvidence",
    "StreamUpdate",
    "StreamingSmash",
    "TraceStore",
    "TrackEvent",
    "TrackedCampaign",
    "TrackerConfig",
    "jaccard",
    "load_checkpoint",
    "partition_digest",
    "save_checkpoint",
    "scenario_evidence",
    "scenario_ids_evidence",
    "severity_at_least",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.stream.alerts": (
            "AlertSink",
            "CallbackSink",
            "ConsoleSink",
            "JsonlSink",
            "ListSink",
        ),
        "repro.stream.checkpoint": ("CHECKPOINT_VERSION", "load_checkpoint", "save_checkpoint"),
        "repro.stream.engine": ("StreamingSmash", "StreamUpdate"),
        "repro.stream.scoring": (
            "SEVERITIES",
            "SEVERITY_RANK",
            "AlertPolicy",
            "BlacklistEvidence",
            "CampaignScorer",
            "EvidenceSource",
            "IdsEvidence",
            "RiskFeatures",
            "ScorerConfig",
            "StaticEvidence",
            "scenario_evidence",
            "scenario_ids_evidence",
            "severity_at_least",
        ),
        "repro.stream.store": ("PartitionRef", "TraceStore", "partition_digest"),
        "repro.stream.tracker": (
            "CampaignTracker",
            "TrackedCampaign",
            "TrackerConfig",
            "TrackEvent",
            "jaccard",
        ),
        "repro.stream.window": ("DayPartition", "RollingWindow"),
    },
)
