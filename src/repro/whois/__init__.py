"""Whois substrate: registration records and a queryable registry."""

from repro._lazy import lazy_exports

__all__ = ["WHOIS_FIELDS", "WhoisRecord", "WhoisRegistry"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.whois.record": ("WhoisRecord", "WHOIS_FIELDS"),
        "repro.whois.registry": ("WhoisRegistry",),
    },
)
