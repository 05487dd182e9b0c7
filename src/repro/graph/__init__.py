"""Graph substrate: weighted graphs, modularity, Louvain communities.

Two interchangeable graph backends live here: the pure-python
:class:`WeightedGraph` (the reference implementation) and the
numpy-array-backed :class:`CsrGraph` (the fast path, used automatically
when numpy is available).  They produce byte-identical pipeline output;
:func:`new_graph` picks one from the ``use_csr`` config flag.
"""

from repro._lazy import lazy_exports
from repro.graph.modularity import modularity

__all__ = [
    "HAVE_NUMPY",
    "CsrGraph",
    "LouvainResult",
    "WeightedGraph",
    "connected_components",
    "louvain_communities",
    "modularity",
    "new_graph",
    "resolve_use_csr",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.graph.wgraph": ("WeightedGraph",),
        "repro.graph.csr": ("HAVE_NUMPY", "CsrGraph", "new_graph", "resolve_use_csr"),
        "repro.graph.louvain": ("LouvainResult", "louvain_communities"),
        "repro.graph.components": ("connected_components",),
    },
)
