"""SMASH — Systematic Mining of Associated Server Herds.

A full reproduction of Zhang, Saha, Gu, Lee, Mellia, *"Systematic Mining
of Associated Server Herds for Malware Campaign Discovery"*, ICDCS 2015.

Public API quick tour::

    from repro import SmashPipeline, SmashConfig
    from repro.synth import data2011day, TraceGenerator

    dataset = TraceGenerator(data2011day()).generate_day(0)
    result = SmashPipeline(SmashConfig()).run(
        dataset.trace, whois=dataset.whois, redirects=dataset.redirects
    )
    for campaign in result.campaigns_with_clients(2):
        print(campaign.num_servers, sorted(campaign.servers)[:5])

Packages:

* :mod:`repro.core` — the SMASH pipeline (preprocess, dimensions, ASH
  mining, correlation, pruning, campaign inference);
* :mod:`repro.stream` — incremental multi-day streaming engine: rolling
  window, per-advance pipeline runs, cross-day campaign identity
  tracking (stable IDs, persistence, churn), alert sinks and
  checkpoint/resume;
* :mod:`repro.synth` — synthetic ISP trace generator (the evaluation
  substrate);
* :mod:`repro.groundtruth` — signature IDS + blacklist ground truth;
* :mod:`repro.obs` — opt-in observability: metrics registry, stage
  spans, Prometheus-text and JSONL-snapshot exporters (recording never
  changes outputs);
* :mod:`repro.eval` — the paper's verification methodology and every
  table/figure of Section V;
* :mod:`repro.baselines` — IDS-only, blacklist-only, client-clustering
  and domain-reputation baselines;
* :mod:`repro.graph` / :mod:`repro.httplog` / :mod:`repro.whois` /
  :mod:`repro.domains` — substrates.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "Campaign",
    "CampaignTracker",
    "CheckpointError",
    "ConfigError",
    "CorrelationConfig",
    "DimensionConfig",
    "GraphError",
    "GroundTruthError",
    "Herd",
    "LouvainConfig",
    "ObsError",
    "PipelineError",
    "PreprocessConfig",
    "PruningConfig",
    "ReproError",
    "RollingWindow",
    "ScenarioError",
    "SmashConfig",
    "SmashPipeline",
    "SmashResult",
    "StreamError",
    "StreamUpdate",
    "StreamingSmash",
    "TraceError",
    "TrackedCampaign",
    "TrackerConfig",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.config": (
            "CorrelationConfig",
            "DimensionConfig",
            "LouvainConfig",
            "PreprocessConfig",
            "PruningConfig",
            "SmashConfig",
        ),
        "repro.core": ("Campaign", "Herd", "SmashPipeline", "SmashResult"),
        "repro.errors": (
            "CheckpointError",
            "ConfigError",
            "GraphError",
            "GroundTruthError",
            "ObsError",
            "PipelineError",
            "ReproError",
            "ScenarioError",
            "StreamError",
            "TraceError",
        ),
        "repro.stream": (
            "CampaignTracker",
            "RollingWindow",
            "StreamingSmash",
            "StreamUpdate",
            "TrackedCampaign",
            "TrackerConfig",
        ),
    },
)
