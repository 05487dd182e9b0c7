"""Small shared utilities: text vectors, statistics, RNG, task execution."""

from repro._lazy import lazy_exports

__all__ = [
    "EXECUTOR_KINDS",
    "charset_cosine",
    "charset_vector",
    "child_rng",
    "ecdf",
    "make_rng",
    "percentile_of",
    "resolve_workers",
    "run_jobs",
    "summarize",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.util.text": ("charset_cosine", "charset_vector"),
        "repro.util.stats": ("ecdf", "percentile_of", "summarize"),
        "repro.util.rng": ("child_rng", "make_rng"),
        "repro.util.parallel": ("EXECUTOR_KINDS", "resolve_workers", "run_jobs"),
    },
)
