"""Ground-truth substrate: signature IDS and online blacklists.

These play the role of the paper's commercial IDS (two signature
generations, 2012 and 2013) and the online blacklist ecosystem used in
Section IV-B to verify SMASH's inferences.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BlacklistAggregator",
    "BlacklistService",
    "Signature",
    "SignatureIds",
    "ThreatLabel",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.groundtruth.labels": ("Signature", "ThreatLabel"),
        "repro.groundtruth.ids": ("SignatureIds",),
        "repro.groundtruth.blacklist": ("BlacklistAggregator", "BlacklistService"),
    },
)
