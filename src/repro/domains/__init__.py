"""Domain-name substrate: public-suffix handling and SLD aggregation."""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_SUFFIXES",
    "PublicSuffixList",
    "is_ip_address",
    "normalize_server_name",
    "second_level_domain",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.domains.publicsuffix": ("PublicSuffixList", "DEFAULT_SUFFIXES"),
        "repro.domains.names": ("is_ip_address", "normalize_server_name", "second_level_domain"),
    },
)
