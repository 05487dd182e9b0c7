"""SMASH core: the paper's primary contribution.

The pipeline (Figure 2) is::

    trace -> preprocess -> ASH mining (per dimension) -> ASH correlation
          -> pruning -> malicious campaign inference

Entry point: :class:`repro.core.pipeline.SmashPipeline`.
"""

from repro._lazy import lazy_exports
from repro.core.preprocess import PreprocessReport, preprocess

__all__ = [
    "Campaign",
    "CandidateAsh",
    "Herd",
    "Interner",
    "PreprocessReport",
    "SmashPipeline",
    "SmashResult",
    "preprocess",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.results": ("Campaign", "CandidateAsh", "Herd", "SmashResult"),
        "repro.core.interning": ("Interner",),
        "repro.core.pipeline": ("SmashPipeline",),
    },
)
