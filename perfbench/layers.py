"""Per-layer tracing of one benchmark pass, from outside the program.

``Tracer.install`` wraps public names of the program in the traced
process only: module-level functions (wherever a module bound them by
``from ... import``), the ``SECONDARY_GRAPH_BUILDERS`` and
``DIMENSION_SIGNATURES`` registry entries, and a few methods of
module-level classes.  Each wrapper opens a span on the run's
:class:`repro.obs.MetricsRegistry`, so it nests with the spans the
program already records (``store.put/get``, ``pipeline.mine.*``,
``pipeline.finish.*``).  Spans stay in memory and are dumped when the
pass ends; :func:`layer_metrics` turns the dump into self times.

A span's self time is its duration minus the durations of its live
child spans.  Spans the program records after the fact with
``record_span`` (worker-measured jobs) overlap live spans, so they
count only for their attributes and reported seconds, never as
children.  Names that do not exist in the traced tree are skipped, so
the tracer keeps working when a layer is renamed or removed; the lost
time then shows as lower ``trace.coverage``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict

DIMENSIONS = ("client", "urifile", "ipset", "whois")

#: Span name -> layer metric (self seconds).  Span names not listed here
#: (the benchmark's pass/day roots, ``stream.advance``,
#: ``pipeline.mine``, ``pipeline.finish``) are containers: their self
#: time is the part of wall time no layer accounts for.
SPAN_LAYER = {
    "httplog.read": "httplog.read_s",
    "store.put": "stream.store.put_s",
    "store.get": "stream.store.get_s",
    "stream.store.digest": "stream.store.digest_s",
    "stream.window.combine": "stream.window.combine_s",
    "pipeline.mine.preprocess": "core.preprocess.run_s",
    "core.preprocess.index": "core.preprocess.run_s",
    "core.pipeline.signature": "core.pipeline.signature_s",
    "core.pipeline.interner": "core.pipeline.interner_s",
    "pipeline.finish.correlate": "core.correlation.correlate_s",
    "pipeline.finish.prune": "core.pruning.prune_s",
    "core.pruning.referrers": "core.pruning.prune_s",
    "pipeline.finish.infer": "core.inference.infer_s",
    "core.dispatch.wait": "core.dispatch.wait_s",
    "pipeline.mine.shard_merge": "core.shardmine.merge_s",
    "core.shardmine.pair_partial": "core.shardmine.pair_partial_s",
    "stream.tracker.advance": "stream.tracker.advance_s",
    "stream.scoring.assess": "stream.scoring.assess_s",
    "stream.alerts.emit": "stream.alerts.emit_s",
    "stream.checkpoint.save": "stream.checkpoint.save_s",
    "eval.export.write": "eval.export.write_s",
}
for _dimension in DIMENSIONS:
    SPAN_LAYER[f"core.dimensions.{_dimension}.build"] = f"core.dimensions.{_dimension}.build_s"
    SPAN_LAYER[f"graph.louvain.{_dimension}"] = f"graph.louvain.{_dimension}_s"

#: Every ``_s`` metric, in report order; each also gets a ``_share`` twin.
SECONDS = (
    "httplog.read_s",
    "stream.store.put_s",
    "stream.store.get_s",
    "stream.store.digest_s",
    "stream.window.combine_s",
    "core.preprocess.run_s",
    "core.pipeline.signature_s",
    "core.pipeline.interner_s",
    *(f"core.dimensions.{d}.build_s" for d in DIMENSIONS),
    *(f"graph.louvain.{d}_s" for d in DIMENSIONS),
    "core.correlation.correlate_s",
    "core.pruning.prune_s",
    "core.inference.infer_s",
    "core.dispatch.wait_s",
    "core.dispatch.spawn_overhead_s",
    "core.shardmine.job_s",
    "core.shardmine.merge_s",
    "core.shardmine.pair_partial_s",
    "stream.tracker.advance_s",
    "stream.scoring.assess_s",
    "stream.alerts.emit_s",
    "stream.checkpoint.save_s",
    "eval.export.write_s",
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    *((name, "s", "lower") for name in SECONDS),
    *((name[: -len("_s")] + "_share", "ratio", "lower") for name in SECONDS),
    ("httplog.records", "count", "lower"),
    ("stream.store.bytes_written", "bytes", "lower"),
    ("stream.store.bytes_read", "bytes", "lower"),
    ("core.preprocess.kept_requests", "count", "lower"),
    ("core.pipeline.cache_hit_ratio", "ratio", "higher"),
    ("core.dimensions.candidate_pairs", "count", "lower"),
    ("core.dimensions.pair_yield", "ratio", "higher"),
    ("graph.louvain.moves", "count", "lower"),
    ("core.dispatch.jobs", "count", "lower"),
    ("core.dispatch.worker_peak_rss_mb", "MB", "lower"),
    ("core.shardmine.spill_bytes", "bytes", "lower"),
    ("core.faults.retries", "count", "lower"),
    ("stream.alerts.events", "count", "lower"),
    ("stream.checkpoint.bytes", "bytes", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _louvain_span(args, kwargs) -> str:
    dimension = kwargs.get("dimension", args[1] if len(args) > 1 else "unknown")
    return f"graph.louvain.{dimension}"


#: Module-level functions: ``(module, name, span)``.  Every binding of
#: the function object in a loaded ``repro`` module (or the benchmark's
#: own ``__main__``) is replaced, so ``from x import f`` callers are
#: traced too.  *span* is a name or a function of the call's arguments.
FUNCTIONS = (
    ("repro.httplog.loader", "read_jsonl", "httplog.read"),
    ("repro.stream.store", "partition_digest", "stream.store.digest"),
    (
        "repro.core.dimensions.client",
        "build_client_graph_from_indices",
        "core.dimensions.client.build",
    ),
    ("repro.core.dimensions.urifile", "build_urifile_graph", "core.dimensions.urifile.build"),
    ("repro.core.dimensions.ipset", "build_ipset_graph", "core.dimensions.ipset.build"),
    ("repro.core.dimensions.whoisdim", "build_whois_graph", "core.dimensions.whois.build"),
    ("repro.core.ashmining", "mine_herds", _louvain_span),
    ("repro.core.pruning", "dominant_referrers", "core.pruning.referrers"),
    ("repro.core.shardmine", "_pair_chunk_job", "core.shardmine.pair_partial"),
    ("repro.eval.export", "write_result_json", "eval.export.write"),
    ("repro.stream.checkpoint", "save_checkpoint", "stream.checkpoint.save"),
)

#: Methods of module-level classes: ``(module, class, method, span)``.
METHODS = (
    ("repro.httplog.trace", "HttpTrace", "_build_indices", "core.preprocess.index"),
    ("repro.httplog.trace", "HttpTrace", "_build_request_index", "core.preprocess.index"),
    ("repro.httplog.trace", "HttpTrace", "_build_file_index", "core.preprocess.index"),
    ("repro.stream.window", "RollingWindow", "combined", "stream.window.combine"),
    ("repro.stream.window", "RollingWindow", "combined_sidecars", "stream.window.combine"),
    ("repro.stream.tracker", "CampaignTracker", "advance", "stream.tracker.advance"),
    ("repro.stream.scoring", "CampaignScorer", "assess", "stream.scoring.assess"),
    ("repro.stream.scoring", "AlertPolicy", "severity", "stream.scoring.assess"),
    ("repro.stream.alerts", "JsonlSink", "emit", "stream.alerts.emit"),
    ("repro.core.dispatch", "ShardDispatcher", "run", "core.dispatch.wait"),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Install span wrappers around the program's layers; undo on exit."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self.counts: Counter[str] = Counter()
        self.recorded: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _span_wrapper(self, original, span):
        registry = self.registry
        counts = self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs)
            with registry.span(name):
                result = original(*args, **kwargs)
            if name == "httplog.read":
                counts["httplog.records"] += len(result)
            elif name == "stream.alerts.emit":
                counts["stream.alerts.events"] += 1
            elif name == "core.dispatch.wait":
                counts["core.dispatch.jobs"] += len(args[1] if len(args) > 1 else kwargs["specs"])
            return result

        return traced

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "__main__" or name.startswith("repro")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, replacement)

    def install(self) -> None:
        for module_name, attribute, span in FUNCTIONS:
            module = _module(module_name)
            original = getattr(module, attribute, None)
            if callable(original):
                self._replace_everywhere(original, self._span_wrapper(original, span))
        for module_name, class_name, method, span in METHODS:
            owner = getattr(_module(module_name), class_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if callable(original):
                self._set(owner, method, self._span_wrapper(original, span))
        pipeline = _module("repro.core.pipeline")
        builders = getattr(pipeline, "SECONDARY_GRAPH_BUILDERS", {})
        for dimension, builder in list(builders.items()):
            wrapped = self._span_wrapper(builder, f"core.dimensions.{dimension}.build")
            self._undo.append((builders, dimension, builder))
            builders[dimension] = wrapped
        signatures = getattr(pipeline, "DIMENSION_SIGNATURES", {})
        for dimension, signer in list(signatures.items()):
            self._undo.append((signatures, dimension, signer))
            signatures[dimension] = self._span_wrapper(signer, "core.pipeline.signature")
        self._install_interner()
        self._install_record_span()

    def _install_interner(self) -> None:
        interning = _module("repro.core.interning")
        original = getattr(interning, "Interner", None)
        if original is None:
            return
        registry = self.registry

        class TracedInterner(original):
            def __init__(self, *args, **kwargs) -> None:
                with registry.span("core.pipeline.interner"):
                    super().__init__(*args, **kwargs)

        TracedInterner.__name__ = original.__name__
        TracedInterner.__qualname__ = original.__qualname__
        self._replace_everywhere(original, TracedInterner)

    def _install_record_span(self) -> None:
        """Mark spans recorded after the fact, so they never count as children."""
        recorded = self.recorded
        original = self.registry.record_span

        @functools.wraps(original)
        def record_span(*args, **kwargs):
            span = original(*args, **kwargs)
            recorded.add(span.index)
            return span

        self.registry.record_span = record_span

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attribute] = value
            else:
                setattr(owner, attribute, value)

    def dump(self) -> dict:
        """The pass's spans, counters and gauges as plain JSON data."""
        spans = [
            {
                "index": span.index,
                "name": span.name,
                "parent": span.parent,
                "seconds": span.seconds,
                "recorded": span.index in self.recorded,
                "attributes": span.attributes,
            }
            for span in self.registry.spans
        ]
        families = {}
        for family in self.registry.families():
            if family.kind in ("counter", "gauge"):
                families[family.name] = sum(child.value for _, child in family.samples())
        return {"spans": spans, "families": families, "counts": dict(self.counts)}


def self_times(spans: list[dict]) -> tuple[dict[str, float], float, float]:
    """``(self seconds per layer metric, unattributed seconds, root seconds)``."""
    live = [span for span in spans if not span["recorded"]]
    covered_by_children: dict[int, float] = defaultdict(float)
    for span in live:
        if span["parent"] is not None:
            covered_by_children[span["parent"]] += span["seconds"]
    per_layer: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    root = 0.0
    for span in live:
        own = max(0.0, span["seconds"] - covered_by_children[span["index"]])
        layer = SPAN_LAYER.get(span["name"])
        if layer is None:
            unattributed += own
        else:
            per_layer[layer] += own
        if span["parent"] is None:
            root += span["seconds"]
    return per_layer, unattributed, root


def layer_metrics(dump: dict, untraced_wall: float, worker_rss_kb: list[int]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass."""
    spans = dump["spans"]
    families = dump["families"]
    counts = dump["counts"]
    per_layer, _unattributed, wall = self_times(spans)

    def named(name: str) -> list[dict]:
        return [span for span in spans if span["name"] == name]

    job_s = sum(span["seconds"] for span in named("pipeline.mine.shard_index"))
    values: dict[str, float] = {name: per_layer.get(name, 0.0) for name in SECONDS}
    values["core.shardmine.job_s"] = job_s
    values["core.dispatch.spawn_overhead_s"] = max(0.0, values["core.dispatch.wait_s"] - job_s)
    for name in SECONDS:
        values[name[: -len("_s")] + "_share"] = values[name] / wall if wall else 0.0

    mined = reused = 0
    for span in named("pipeline.mine"):
        mined += len(span["attributes"].get("mined_dimensions", []))
        reused += len(span["attributes"].get("reused_dimensions", []))
    candidate = enumerated = moves = 0
    for span in named("pipeline.mine.dimension"):
        attributes = span["attributes"]
        candidate += attributes.get("candidate_pairs", 0)
        enumerated += attributes.get("enumerated_pairs", 0)
        moves += attributes.get("louvain_moves", 0)

    values.update(
        {
            "httplog.records": counts.get("httplog.records", 0),
            "stream.store.bytes_written": families.get("smash_store_bytes_written_total", 0),
            "stream.store.bytes_read": families.get("smash_store_bytes_read_total", 0),
            "core.preprocess.kept_requests": sum(
                span["attributes"].get("kept_requests", 0)
                for span in named("pipeline.mine.preprocess")
            ),
            "core.pipeline.cache_hit_ratio": reused / (mined + reused) if mined + reused else 0.0,
            "core.dimensions.candidate_pairs": candidate,
            "core.dimensions.pair_yield": candidate / enumerated if enumerated else 0.0,
            "graph.louvain.moves": moves,
            "core.dispatch.jobs": counts.get("core.dispatch.jobs", 0),
            "core.dispatch.worker_peak_rss_mb": max(worker_rss_kb, default=0) / 1024.0,
            "core.shardmine.spill_bytes": families.get("smash_shard_spill_bytes_total", 0),
            "core.faults.retries": families.get("smash_shard_retries_total", 0),
            "stream.alerts.events": counts.get("stream.alerts.events", 0),
            "stream.checkpoint.bytes": families.get("smash_checkpoint_bytes", 0),
            "trace.coverage": sum(per_layer.values()) / wall if wall else 0.0,
            "trace.overhead": wall / untraced_wall if untraced_wall else 0.0,
        }
    )
    return {name: float(values[name]) for name, _, _ in PER_LAYER}
