"""Observability: metrics registry, stage spans, exporters, log setup.

See :mod:`repro.obs.metrics` for the recording model and
:mod:`repro.obs.export` for the Prometheus / JSONL snapshot formats.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "NULL_RECORDER",
    "JsonLogFormatter",
    "MetricFamily",
    "MetricsRegistry",
    "NullRecorder",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "configure_logging",
    "detect_format",
    "parse_prometheus_text",
    "read_snapshot",
    "render_stats",
    "serve_prometheus_once",
    "snapshot_lines",
    "to_prometheus_text",
    "write_prometheus",
    "write_snapshot",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.export": (
            "PROMETHEUS_CONTENT_TYPE",
            "parse_prometheus_text",
            "read_snapshot",
            "serve_prometheus_once",
            "snapshot_lines",
            "to_prometheus_text",
            "write_prometheus",
            "write_snapshot",
        ),
        "repro.obs.logsetup": ("JsonLogFormatter", "configure_logging"),
        "repro.obs.metrics": (
            "DEFAULT_LATENCY_BUCKETS",
            "NULL_RECORDER",
            "MetricFamily",
            "MetricsRegistry",
            "NullRecorder",
            "Span",
        ),
        "repro.obs.report": ("detect_format", "render_stats"),
    },
)
