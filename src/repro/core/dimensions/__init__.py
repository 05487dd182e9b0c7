"""Similarity dimensions (Section III-B).

Each dimension builds a weighted similarity graph over the preprocessed
servers; ASH mining runs Louvain on each graph independently.

* :mod:`client` — the main dimension (eq. 1);
* :mod:`urifile` — URI-file similarity (eqs. 2-7);
* :mod:`ipset` — IP-address-set similarity (eq. 8);
* :mod:`whoisdim` — Whois field similarity.

The registry in :func:`secondary_builders` is the extension point the
paper describes ("SMASH, as an extensible system, can easily incorporate
new dimensions").
"""

from repro._lazy import lazy_exports

__all__ = [
    "build_client_graph",
    "build_ipset_graph",
    "build_urifile_graph",
    "build_whois_graph",
    "file_similarity",
    "secondary_builders",
    "whois_similarity",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.dimensions.client": ("build_client_graph",),
        "repro.core.dimensions.ipset": ("build_ipset_graph",),
        "repro.core.dimensions.urifile": ("build_urifile_graph", "file_similarity"),
        "repro.core.dimensions.whoisdim": ("build_whois_graph", "whois_similarity"),
    },
)


def secondary_builders() -> dict[str, object]:
    """Name -> builder for the built-in secondary dimensions.

    Builders share the signature ``(trace, config, *, whois=None)`` except
    where noted; :class:`repro.core.pipeline.SmashPipeline` adapts them.
    """
    from repro.core.dimensions.ipset import build_ipset_graph
    from repro.core.dimensions.urifile import build_urifile_graph
    from repro.core.dimensions.whoisdim import build_whois_graph

    return {
        "urifile": build_urifile_graph,
        "ipset": build_ipset_graph,
        "whois": build_whois_graph,
    }
