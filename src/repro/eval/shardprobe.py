"""Subprocess probe for the sharded-mine benchmark.

``ru_maxrss`` is a *process-lifetime* high-water mark, so peak-memory
comparisons between mining configurations are only honest when every
configuration runs in its own fresh interpreter.  The sharded suite
(:func:`repro.eval.bench.sharded_scaling`) therefore spawns this module
once per ``(shards, workers, executor, dispatch, out_of_core)`` row::

    python -m repro.eval.shardprobe '{"store_root": ..., "day": 0, ...}'

The probe loads the benchmark day from the coordinator's
:class:`~repro.stream.store.TraceStore` (digest-verified, the same
partition every row sees), runs one mine + finish under the requested
configuration, and prints a single JSON object: timings, throughput,
peak RSS (self and, for process-executor rows, the worker children),
and a SHA-256 digest of the full result document so the coordinator can
assert byte-identical output across every shard count.

``ru_maxrss`` never resets, and the partition load (materialising every
request from JSON) sets a high-water mark the mine phase may never
exceed — which would make whole-process peaks identical across rows and
hide what sharding changes.  On Linux the kernel's ``VmHWM`` counter
*can* be reset (``echo 5 > /proc/self/clear_refs``), so the probe resets
it after the load and reports ``mine_peak_rss_kb``: the high-water mark
of the mine phase alone, the number the shard-size-bounded-memory claim
is about.  ``peak_rss_kb`` stays the process-lifetime ``ru_maxrss`` for
context.

The probe separates the coordinator's peak from the workers': this
process *is* the coordinator, so its mine-phase ``VmHWM`` is reported as
``coordinator_peak_rss_kb``, while ``worker_peak_rss_kb`` is the largest
``VmHWM`` a subprocess shard worker reported for itself on its
``pipeline.mine.shard_index`` span, or 0 when no shard job ran in a
worker.  (The children's ``ru_maxrss`` would not do: a vfork+exec child
inherits the coordinator's high-water mark.)  An ``out_of_core`` row
additionally drops the loaded partition before mining and hands the mine
``(day, digest)`` references instead, so the coordinator never holds a
raw request.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time

from repro.util.memory import peak_rss_kb


def _reset_peak_rss() -> bool:
    """Reset the kernel's VmHWM counter for this process (Linux only).

    :func:`~repro.util.memory.peak_rss_kb` then reads the peak since the
    reset.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def run_probe(spec: dict) -> dict[str, object]:
    from repro.config import SmashConfig
    from repro.core.pipeline import SmashPipeline
    from repro.eval.export import result_to_dict
    from repro.obs import MetricsRegistry
    from repro.stream.store import TraceStore

    out_of_core = bool(spec.get("out_of_core", False))
    day = int(spec["day"])
    digest = str(spec["digest"])
    tick = time.perf_counter()
    store = TraceStore(spec["store_root"])
    partition = store.ref(day, digest).load()
    load_seconds = time.perf_counter() - tick

    fault_plan = None
    if spec.get("fault_plan") is not None:
        from repro.core.faults import FaultPlan

        fault_plan = FaultPlan.from_dict(spec["fault_plan"])
    registry = MetricsRegistry()
    config = SmashConfig().replace(
        shards=int(spec["shards"]),
        workers=int(spec["workers"]),
        executor=str(spec["executor"]),
        dispatch=str(spec.get("dispatch", "pool")),
        out_of_core=out_of_core,
        shard_retries=int(spec.get("shard_retries", 2)),
        shard_timeout=float(spec.get("shard_timeout", 600.0)),
        fault_plan=fault_plan,
        metrics=registry,
    )
    config.validate()
    pipeline = SmashPipeline(config)
    if out_of_core:
        # The coordinator's whole point in this mode is never holding the
        # partition: keep only the sidecars, drop the loaded day, and let
        # store-direct shard jobs re-read it in their own processes.
        # Rows share one store, so drop the map output an earlier row
        # kept there: every out-of-core row (the chaos twin above all)
        # maps its day.
        shutil.rmtree(store.map_outputs().root, ignore_errors=True)
        whois, redirects = partition.whois, partition.redirects
        num_requests = store.request_count(day, digest)
        del partition
        import gc

        gc.collect()
        phase_peaks = _reset_peak_rss()
        tick = time.perf_counter()
        mined = pipeline.mine(
            None,
            whois=whois,
            partitions=[(day, digest)],
            store_root=spec["store_root"],
            shard_boundaries=(num_requests,),
        )
    else:
        whois, redirects = partition.whois, partition.redirects
        num_requests = len(partition.trace)
        phase_peaks = _reset_peak_rss()
        tick = time.perf_counter()
        mined = pipeline.mine(partition.trace, whois=whois)
    mine_seconds = time.perf_counter() - tick
    mine_peak_rss_kb = peak_rss_kb()
    result = pipeline.finish(mined, redirects)
    total_seconds = time.perf_counter() - tick

    document = json.dumps(result_to_dict(result), sort_keys=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    worker_peak_rss_kb = max(
        (
            span.attributes["worker_peak_rss_kb"]
            for span in registry.spans_named("pipeline.mine.shard_index")
            if "worker_peak_rss_kb" in span.attributes
        ),
        default=0,
    )
    return {
        "shards": config.shards,
        "workers": config.workers,
        "executor": config.executor,
        "dispatch": config.dispatch,
        "out_of_core": out_of_core,
        "chaos": fault_plan is not None,
        "requests": num_requests,
        "servers_mined": len(mined.trace.servers),
        "campaigns": len(result.campaigns),
        "load_seconds": round(load_seconds, 6),
        "mine_seconds": round(mine_seconds, 6),
        "total_seconds": round(total_seconds, 6),
        "requests_per_second": round(num_requests / mine_seconds, 1),
        "peak_rss_kb": usage.ru_maxrss,
        "mine_peak_rss_kb": mine_peak_rss_kb,
        # The coordinator/worker RSS split: with subprocess dispatch the
        # map phase's memory lives in the children, so the coordinator
        # peak is the out-of-core claim and the worker peak its price.
        "coordinator_peak_rss_kb": mine_peak_rss_kb,
        "worker_peak_rss_kb": worker_peak_rss_kb,
        "mine_phase_isolated": phase_peaks,
        "digest": hashlib.sha256(document.encode("utf-8")).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.eval.shardprobe '<spec json>'", file=sys.stderr)
        return 2
    print(json.dumps(run_probe(json.loads(argv[0])), sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
