"""Evaluation harness: the paper's verification methodology, the
table/figure series of Section V, and streaming reformulations of the
week-long experiments (:mod:`repro.eval.streaming`)."""

from repro._lazy import lazy_exports

__all__ = [
    "CampaignVerdict",
    "ExperimentRunner",
    "ServerLabel",
    "VerificationSummary",
    "Verifier",
    "alert_quality",
    "campaign_lifetimes",
    "daily_tracking_summary",
    "fig7_streaming",
    "planted_campaign_servers",
    "stream_week",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.eval.verification": (
            "CampaignVerdict",
            "ServerLabel",
            "VerificationSummary",
            "Verifier",
        ),
        "repro.eval.alerts": ("alert_quality", "planted_campaign_servers"),
        "repro.eval.experiments": ("ExperimentRunner",),
        "repro.eval.streaming": (
            "campaign_lifetimes",
            "daily_tracking_summary",
            "fig7_streaming",
            "stream_week",
        ),
    },
)
