"""Baseline detectors SMASH is compared against.

* :mod:`ids_only` / :mod:`blacklist_only` — the paper's ground-truth
  sources used *as detectors* (the "detected by IDS and blacklists"
  rows of Tables II/III);
* :mod:`client_clustering` — a BotMiner/BotSniffer-style client-side
  clustering detector, reproducing the paper's argument that such systems
  need multiple infected clients per campaign (Section V-A3);
* :mod:`domain_reputation` — an EXPOSURE-style supervised per-domain
  reputation classifier, reproducing the argument that per-domain
  features miss compromised benign servers (Section V-D1).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BlacklistOnlyDetector",
    "ClientClusteringDetector",
    "DomainReputationDetector",
    "IdsOnlyDetector",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines.ids_only": ("IdsOnlyDetector",),
        "repro.baselines.blacklist_only": ("BlacklistOnlyDetector",),
        "repro.baselines.client_clustering": ("ClientClusteringDetector",),
        "repro.baselines.domain_reputation": ("DomainReputationDetector",),
    },
)
