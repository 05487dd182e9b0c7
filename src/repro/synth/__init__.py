"""Synthetic ISP HTTP-trace generator.

This package replaces the paper's 9 days of large-ISP PCAP traces
(Table I).  It produces :class:`~repro.synth.generator.SyntheticDataset`
objects bundling an HTTP trace with the ground-truth artefacts SMASH's
evaluation needs: a Whois registry, two IDS signature generations,
blacklist services, a redirect-chain oracle, a domain-liveness oracle and
the planted-campaign truth.

Entry points:

* :func:`repro.synth.scenarios.data2011day` / ``data2012day`` /
  ``data2012week`` — presets shaped like the paper's datasets.
* :class:`repro.synth.generator.TraceGenerator` — build custom scenarios.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CampaignSpec",
    "GroundTruth",
    "HostLiveness",
    "PlantedCampaign",
    "RedirectOracle",
    "ScenarioSpec",
    "SyntheticDataset",
    "TierSpec",
    "TraceGenerator",
    "data2011day",
    "data2012day",
    "data2012week",
    "small_scenario",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.synth.campaigns": ("CampaignSpec", "TierSpec"),
        "repro.synth.generator": ("SyntheticDataset", "TraceGenerator"),
        "repro.synth.oracles": ("HostLiveness", "RedirectOracle"),
        "repro.synth.scenario_spec": ("ScenarioSpec",),
        "repro.synth.scenarios": ("data2011day", "data2012day", "data2012week", "small_scenario"),
        "repro.synth.truth": ("GroundTruth", "PlantedCampaign"),
    },
)
