"""Performance benchmarks (the CI ``bench`` job and ``smash bench``).

Two suites, each writing one JSON document so the numbers are tracked
per PR instead of asserted once and forgotten:

``stream`` (``BENCH_stream.json``)
    Measures the costs the incremental-streaming work (PR 3) removes:
    per-day advance time cold vs incremental on a varying and a steady
    workload, checkpoint bytes with and without a
    :class:`~repro.stream.store.TraceStore`, days/sec throughput.

``mine`` (``BENCH_mine.json``)
    Measures the interned-ID mining core against the frozen pre-refactor
    label-path core (:class:`repro.core.legacy.LegacyPipeline`) over a
    sweep of synthetic scenario sizes (servers/clients/requests all
    scale with the factor): end-to-end run time, mine/finish stage
    split, requests/sec throughput, per-dimension candidate-pair
    accounting, and a heavy-hitter section showing how the
    ``max_group_size`` gate bounds an otherwise quadratic shared-IP
    posting list.

``sharded`` (merged into ``BENCH_mine.json`` under ``"sharded"``)
    Measures the map-reduce mine path (:mod:`repro.core.shardmine`) at
    10x the mine suite's largest scale: peak RSS per shard count (each
    configuration in its own subprocess — see
    :mod:`repro.eval.shardprobe`), spill-merge throughput serial and on
    the process pool, and the byte-identity of every row's result
    document.

All harnesses re-check output equivalence while they time (incremental
== cold, interned == label path, sharded == single-pass), so a
benchmark run is also an equivalence smoke test.

All stage timings come from the ``repro.obs`` span layer rather than
ad-hoc ``time.perf_counter()`` bookkeeping: instrumented components
(:class:`~repro.core.pipeline.SmashPipeline`,
:class:`~repro.stream.engine.StreamingSmash`) record their own spans,
and un-instrumented ones (the frozen
:class:`~repro.core.legacy.LegacyPipeline`, raw graph builders) are
timed with external spans in the same registry.  Pass ``--metrics-out``
/ ``--trace-out`` to keep that registry as a Prometheus exposition or a
span snapshot next to the JSON documents.  The mine suite additionally
reports ``obs_overhead``: the enabled-recorder cost of a full run
against the :class:`~repro.obs.NullRecorder` default.

Run directly::

    python -m repro.eval.bench --suite stream --days 4 --window 2 --out BENCH_stream.json
    python -m repro.eval.bench --suite mine --scales 0.25,0.5,1.0 --out BENCH_mine.json

or via the CLI: ``smash bench --scales 0.25,0.5,1.0``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tempfile
from typing import TYPE_CHECKING
from pathlib import Path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.httplog.trace import HttpTrace
    from repro.stream.engine import StreamingSmash
    from repro.stream.window import DayPartition

# Package imports happen inside the suite functions: the CLI imports
# this module at parser-build time (for ``add_bench_arguments``), and
# that must not drag the streaming engine, the synth generator and the
# pipeline into every ``smash generate/run/report/stream`` startup.


def _timed_stream(
    partitions: list["DayPartition"],
    window_size: int,
    incremental: bool,
    store_dir: str | Path | None = None,
    registry=None,
) -> tuple["StreamingSmash", dict[str, object]]:
    """Ingest *partitions* into a fresh engine; per-day times come from
    the engine's own ``stream.advance`` spans."""
    from repro.obs.metrics import MetricsRegistry
    from repro.stream.engine import StreamingSmash

    registry = registry if registry is not None else MetricsRegistry()
    engine = StreamingSmash(
        window_size=window_size,
        incremental=incremental,
        store_dir=store_dir,
        metrics=registry,
    )
    base = len(registry.spans)
    reused: list[int] = []
    campaigns: list[tuple[tuple[str, ...], ...]] = []
    for partition in partitions:
        update = engine.ingest_day(
            partition.day,
            partition.trace,
            whois=partition.whois,
            redirects=partition.redirects,
        )
        reused.append(len(update.reused_dimensions))
        campaigns.append(
            tuple(tuple(sorted(c.servers)) for c in update.campaigns)
        )
    per_day = [
        span.seconds
        for span in registry.spans[base:]
        if span.name == "stream.advance"
    ]
    total = sum(per_day)
    stats = {
        "per_day_seconds": [round(seconds, 6) for seconds in per_day],
        "total_seconds": round(total, 6),
        "days_per_second": round(len(partitions) / total, 4) if total else None,
        "reused_dimensions_per_day": reused,
        "_campaigns": campaigns,  # stripped before serialisation
    }
    return engine, stats


def _speedup(cold: dict[str, object], warm: dict[str, object]) -> float | None:
    cold_total = cold["total_seconds"]
    warm_total = warm["total_seconds"]
    if not isinstance(cold_total, float) or not isinstance(warm_total, float):
        return None
    if warm_total <= 0:
        return None
    return round(cold_total / warm_total, 3)


def bench_stream(
    days: int = 4, window: int = 2, seed: int = 7, registry=None
) -> dict[str, object]:
    """Run the streaming benchmark and return the result document."""
    from repro.stream.checkpoint import save_checkpoint
    from repro.stream.store import TraceStore
    from repro.stream.window import DayPartition
    from repro.synth.generator import TraceGenerator
    from repro.synth.scenarios import small_scenario

    datasets = list(TraceGenerator(small_scenario(seed=seed, days=days)).iter_days())
    varying = [
        DayPartition(
            day=dataset.day,
            trace=dataset.trace,
            whois=dataset.whois,
            redirects=dataset.redirects,
        )
        for dataset in datasets
    ]
    # Steady state: the same day content arriving day after day.
    first = varying[0]
    steady = [
        DayPartition(
            day=day, trace=first.trace, whois=first.whois, redirects=first.redirects
        )
        for day in range(days)
    ]

    document: dict[str, object] = {
        "benchmark": "repro.stream",
        "days": days,
        "window": window,
        "seed": seed,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workloads": {},
    }

    workloads: dict[str, object] = {}
    for name, partitions in (("varying", varying), ("steady", steady)):
        _, cold = _timed_stream(partitions, window, incremental=False, registry=registry)
        _, warm = _timed_stream(partitions, window, incremental=True, registry=registry)
        if cold.pop("_campaigns") != warm.pop("_campaigns"):
            raise AssertionError(
                f"incremental and cold runs diverged on the {name} workload"
            )
        workloads[name] = {
            "cold": cold,
            "incremental": warm,
            "speedup": _speedup(cold, warm),
        }
    document["workloads"] = workloads

    # Checkpoint footprint: inline (v1-style embedded window) vs store-backed.
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        root = Path(tmp)
        inline_engine, _ = _timed_stream(varying, window, incremental=True, registry=registry)
        save_checkpoint(inline_engine, root / "inline.ckpt")
        store_engine, _ = _timed_stream(
            varying, window, incremental=True, store_dir=root / "store", registry=registry
        )
        save_checkpoint(store_engine, root / "store.ckpt")
        inline_bytes = (root / "inline.ckpt").stat().st_size
        store_bytes = (root / "store.ckpt").stat().st_size
        document["checkpoint"] = {
            "inline_bytes": inline_bytes,
            "store_bytes": store_bytes,
            "shrink_factor": round(inline_bytes / store_bytes, 1)
            if store_bytes
            else None,
            "store_partition_bytes": TraceStore(root / "store").total_bytes(),
        }
    return document


# -- mine-core scaling benchmark ---------------------------------------------------


def _fresh_trace(trace: "HttpTrace") -> "HttpTrace":
    """Same requests, no cached indices — a cold trace for honest timing."""
    from repro.httplog.trace import HttpTrace

    return HttpTrace.from_columns(trace.columns, name=trace.name)


def _timed_pipeline(
    pipeline_factory,
    dataset,
    repeats: int,
    registry=None,
    self_instrumented: bool = False,
) -> tuple[dict[str, float], object, object]:
    """Best-of-*repeats* staged timing of one core on one dataset.

    Timings are read back from ``pipeline.mine`` / ``pipeline.finish``
    spans in *registry*.  With ``self_instrumented=True`` the core is
    built with the registry attached (``SmashConfig(metrics=...)``) and
    records those spans itself — the enabled-recorder path; otherwise
    the core runs with its default :class:`~repro.obs.NullRecorder` and
    this harness wraps each stage in an external span, so the timed work
    is the zero-overhead disabled path.  The frozen legacy core has no
    recorder support and is always timed externally.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = registry if registry is not None else MetricsRegistry()
    best_total = None
    best = None
    for _ in range(max(1, repeats)):
        if self_instrumented:
            from repro.config import SmashConfig

            pipeline = pipeline_factory(SmashConfig(metrics=registry))
        else:
            pipeline = pipeline_factory()
        trace = _fresh_trace(dataset.trace)
        gc.collect()
        base = len(registry.spans)
        if self_instrumented:
            mined = pipeline.mine(trace, dataset.whois)
            result = pipeline.finish(mined, dataset.redirects)
        else:
            with registry.span("pipeline.mine"):
                mined = pipeline.mine(trace, dataset.whois)
            with registry.span("pipeline.finish"):
                result = pipeline.finish(mined, dataset.redirects)
        ran = registry.spans[base:]
        mine_seconds = next(s.seconds for s in ran if s.name == "pipeline.mine")
        finish_seconds = next(s.seconds for s in ran if s.name == "pipeline.finish")
        total = mine_seconds + finish_seconds
        if best_total is None or total < best_total:
            best_total = total
            best = (
                {
                    "mine_seconds": round(mine_seconds, 6),
                    "finish_seconds": round(finish_seconds, 6),
                    "total_seconds": round(total, 6),
                    "requests_per_second": round(len(trace) / total, 1),
                },
                mined,
                result,
            )
    assert best is not None
    return best


def _flux_trace(num_servers: int) -> "HttpTrace":
    """A domain-flux heavy hitter: every server shares one sinkhole IP.

    The shared IP's posting list has ``num_servers`` members, so
    uncapped candidate generation walks ``n*(n-1)/2`` pairs; each
    consecutive server pair also shares a private relay IP, so a capped
    run still has honest (linear) work to do.
    """
    from repro.httplog.records import HttpRequest
    from repro.httplog.trace import HttpTrace

    requests = []
    for index in range(num_servers):
        host = f"flux{index:05d}.example"
        client = f"bot{index % 97:03d}"
        requests.append(
            HttpRequest(
                timestamp=float(index),
                client=client,
                host=host,
                server_ip="198.51.100.7",
                uri="/gate.php",
            )
        )
        requests.append(
            HttpRequest(
                timestamp=float(index) + 0.5,
                client=client,
                host=host,
                server_ip=f"10.{index // 250}.{index % 250}.9",
                uri="/gate.php",
            )
        )
        if index + 1 < num_servers:
            requests.append(
                HttpRequest(
                    timestamp=float(index) + 0.7,
                    client=client,
                    host=host,
                    server_ip=f"172.16.{index // 250}.{index % 250}",
                    uri="/gate.php",
                )
            )
        if index > 0:
            requests.append(
                HttpRequest(
                    timestamp=float(index) + 0.8,
                    client=client,
                    host=host,
                    server_ip=f"172.16.{(index - 1) // 250}.{(index - 1) % 250}",
                    uri="/gate.php",
                )
            )
    return HttpTrace(requests, name=f"flux{num_servers}")


def heavy_hitter_scaling(
    sizes: tuple[int, ...] = (200, 400, 800), cap: int = 64, registry=None
) -> dict[str, object]:
    """Candidate-pair counts on the flux trace, capped vs uncapped.

    Uncapped, the shared-IP group alone contributes ``n*(n-1)/2``
    enumerated pairs — quadratic in scenario size.  With
    ``DimensionConfig(max_group_size=cap)`` the group is skipped
    deterministically and the walked-pair count stays linear (the relay
    pairs).  Both runs are timed (external spans — graph builders do not
    record their own) and their pair accounting recorded.
    """
    from repro.config import DimensionConfig
    from repro.core.dimensions.ipset import build_ipset_graph
    from repro.obs.metrics import MetricsRegistry

    registry = registry if registry is not None else MetricsRegistry()
    rows = []
    for size in sizes:
        trace = _flux_trace(size)
        entry: dict[str, object] = {"servers": size}
        for label, config in (
            ("uncapped", DimensionConfig()),
            ("capped", DimensionConfig(max_group_size=cap)),
        ):
            fresh = _fresh_trace(trace)
            gc.collect()
            with registry.span(
                "bench.heavy_hitter.build", servers=size, mode=label
            ) as span:
                graph = build_ipset_graph(fresh, config)
            stats = dict(graph.build_stats)
            entry[label] = {
                "seconds": round(span.seconds, 6),
                "enumerated_pairs": stats.get("enumerated_pairs"),
                "candidate_pairs": stats.get("candidate_pairs"),
                "skipped_groups": stats.get("skipped_groups"),
                "edges": graph.num_edges(),
            }
        rows.append(entry)
    return {"cap": cap, "dimension": "ipset", "sizes": rows}


def mine_scaling(
    scales: tuple[float, ...] = (0.25, 0.5, 1.0),
    seed: int = 7,
    repeats: int = 2,
    heavy_sizes: tuple[int, ...] = (200, 400, 800),
    heavy_cap: int = 64,
    registry=None,
) -> dict[str, object]:
    """Interned core vs the frozen pre-refactor core across scenario sizes.

    Returns the ``BENCH_mine.json`` document.  Every scale is an
    equivalence check as well: the two cores' full result documents must
    be byte-identical or the benchmark aborts.  Both headline timings
    run on the disabled-recorder path so the comparison stays fair; the
    ``obs_overhead`` section quantifies the enabled-recorder cost
    separately at the largest scale.
    """
    from repro.core.legacy import LegacyPipeline
    from repro.core.pipeline import SmashPipeline, dimension_build_stats
    from repro.eval.export import result_to_dict
    from repro.synth.generator import TraceGenerator
    from repro.synth.scenarios import data2012day

    rows = []
    for scale in scales:
        # Separate (identical) datasets per core: the legacy pipeline
        # injects pre-refactor-built indices into its traces, and the
        # cores must not subsidise each other's caches.
        dataset = TraceGenerator(data2012day(scale=scale, seed=seed)).generate_day(0)
        dataset_legacy = TraceGenerator(data2012day(scale=scale, seed=seed)).generate_day(0)
        interned, mined, result = _timed_pipeline(
            SmashPipeline, dataset, repeats, registry=registry
        )
        legacy, _, legacy_result = _timed_pipeline(
            LegacyPipeline, dataset_legacy, repeats, registry=registry
        )
        new_doc = json.dumps(result_to_dict(result), sort_keys=True)
        old_doc = json.dumps(result_to_dict(legacy_result), sort_keys=True)
        if new_doc != old_doc:
            raise AssertionError(f"interned and label-path cores diverged at scale {scale}")
        rows.append(
            {
                "scale": scale,
                "requests": len(dataset.trace),
                "servers_raw": len(dataset.trace.servers),
                "servers_mined": len(mined.trace.servers),
                "campaigns": len(result.campaigns),
                "interned": interned,
                "legacy": legacy,
                "speedup": round(
                    legacy["total_seconds"] / interned["total_seconds"], 3
                ),
                "identical_output": True,
                "dimension_stats": dimension_build_stats(mined),
            }
        )

    # Enabled-recorder overhead at the largest scale: same core, same
    # dataset shape, recorder attached vs the NullRecorder default.
    obs_overhead = None
    if scales:
        overhead_dataset = TraceGenerator(
            data2012day(scale=scales[-1], seed=seed)
        ).generate_day(0)
        disabled, _, _ = _timed_pipeline(
            SmashPipeline, overhead_dataset, repeats, registry=registry
        )
        enabled, _, _ = _timed_pipeline(
            SmashPipeline, overhead_dataset, repeats, registry=registry, self_instrumented=True
        )
        obs_overhead = {
            "scale": scales[-1],
            "disabled": disabled,
            "enabled": enabled,
            "overhead_ratio": round(
                enabled["total_seconds"] / disabled["total_seconds"], 4
            )
            if disabled["total_seconds"]
            else None,
        }

    document: dict[str, object] = {
        "benchmark": "repro.mine",
        "seed": seed,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "scales": rows,
        "largest_scale_speedup": rows[-1]["speedup"] if rows else None,
        "obs_overhead": obs_overhead,
        "heavy_hitter": heavy_hitter_scaling(heavy_sizes, heavy_cap, registry=registry),
    }
    return document


# -- sharded-mine scaling benchmark -------------------------------------------------


def sharded_scaling(
    scale: float = 10.0,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    seed: int = 7,
    registry=None,
    shard_retries: int = 2,
    shard_timeout: float = 600.0,
    fault_plan: dict | None = None,
) -> dict[str, object]:
    """Sharded map-reduce mine vs the single-pass mine at one large scale.

    The benchmark day is generated once and persisted into a temporary
    :class:`~repro.stream.store.TraceStore`; every configuration row then
    runs in its own fresh interpreter (:mod:`repro.eval.shardprobe`) that
    loads the digest-verified partition back from the store, because
    ``ru_maxrss`` is a process-lifetime high-water mark and in-process
    rows would all report the first row's peak.

    Rows: the single-pass baseline, each requested shard count on the
    serial executor (the peak-memory story — map partials spill to the
    store and merge one shard at a time), the largest shard count on
    the process pool with one worker per CPU (the throughput story), and
    the largest shard count in out-of-core mode with subprocess dispatch
    (the coordinator-memory story: store-direct map jobs in child
    interpreters, streaming reduce, no window trace in the coordinator),
    and a chaos twin of that row under an injected worker-crash +
    torn-spill fault plan (the robustness story: retries recover the
    identical output, and the fault-free vs retrying ratio is gated).
    Every row's full result document must hash identically or the
    benchmark aborts — the byte-identity acceptance gate, measured at
    bench scale rather than only at test scale.
    """
    import subprocess

    from repro.obs.metrics import MetricsRegistry
    from repro.stream.store import TraceStore
    from repro.stream.window import DayPartition
    from repro.synth.generator import TraceGenerator
    from repro.synth.scenarios import data2012day

    registry = registry if registry is not None else MetricsRegistry()
    with registry.span("bench.sharded.generate", scale=scale) as span:
        dataset = TraceGenerator(data2012day(scale=scale, seed=seed)).generate_day(0)
    generate_seconds = span.seconds

    configs = [(1, 1, "serial", "pool", False, None)]
    for shards in shard_counts:
        if shards > 1:
            configs.append((shards, 1, "serial", "pool", False, None))
    largest = max(shard_counts) if shard_counts else 1
    if largest > 1:
        configs.append((largest, 0, "process", "pool", False, None))
        configs.append((largest, 1, "serial", "subprocess", True, None))
        # Chaos twin of the out-of-core subprocess row: one worker crash
        # plus one torn spill (both wall-clock-free — no hang, so the
        # overhead ratio measures retry cost, not timeout waits).  The
        # one-day store-direct mine runs a single map job, so both
        # faults hit it, on consecutive attempts.  Its digest joins the
        # identity assertion: recovery must reproduce the exact output,
        # and benchcheck gates the overhead ratio.
        chaos_plan = fault_plan or {
            "version": 1,
            "faults": [
                {"shard": 0, "kind": "crash_before_spill", "attempt": 1},
                {"shard": 0, "kind": "corrupt_partial", "attempt": 2},
            ],
        }
        configs.append((largest, 1, "serial", "subprocess", True, chaos_plan))

    rows: list[dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-sharded-") as tmp:
        store = TraceStore(Path(tmp) / "store")
        ref = store.put(
            DayPartition(
                day=0,
                trace=dataset.trace,
                whois=dataset.whois,
                redirects=dataset.redirects,
            )
        )
        for shards, workers, executor, dispatch, out_of_core, row_plan in configs:
            spec = {
                "store_root": str(store.root),
                "day": ref.day,
                "digest": ref.digest,
                "shards": shards,
                "workers": workers,
                "executor": executor,
                "dispatch": dispatch,
                "out_of_core": out_of_core,
                "shard_retries": shard_retries,
                "shard_timeout": shard_timeout,
                "fault_plan": row_plan,
            }
            with registry.span(
                "bench.sharded.probe",
                shards=shards,
                workers=workers,
                executor=executor,
                dispatch=dispatch,
                out_of_core=out_of_core,
                chaos=row_plan is not None,
            ):
                probe = subprocess.run(
                    [sys.executable, "-m", "repro.eval.shardprobe", json.dumps(spec)],
                    capture_output=True,
                    text=True,
                )
            if probe.returncode != 0:
                raise AssertionError(
                    f"shard probe {shards}/{workers}/{executor}/{dispatch}"
                    f"{'/ooc' if out_of_core else ''}"
                    f"{'/chaos' if row_plan is not None else ''}"
                    f" failed:\n{probe.stderr}"
                )
            rows.append(json.loads(probe.stdout))

    digests = {row["digest"] for row in rows}
    if len(digests) != 1:
        raise AssertionError(
            f"sharded and single-pass mines diverged at scale {scale}: {digests}"
        )
    baseline = rows[0]
    serial_rows = [
        r
        for r in rows
        if r["executor"] == "serial" and r["shards"] > 1 and not r["out_of_core"]
    ]
    most_sharded = serial_rows[-1] if serial_rows else baseline
    ooc_rows = [r for r in rows if r["out_of_core"] and not r.get("chaos")]
    ooc = ooc_rows[-1] if ooc_rows else None
    chaos_rows = [r for r in rows if r.get("chaos")]
    chaos = chaos_rows[-1] if chaos_rows else None
    # The headline compares *mine-phase* peaks (VmHWM reset after the
    # load — see shardprobe): whole-process ru_maxrss is set by the
    # partition load, which is identical across rows.
    document: dict[str, object] = {
        "scale": scale,
        "seed": seed,
        "requests": baseline["requests"],
        "generate_seconds": round(generate_seconds, 3),
        "configs": rows,
        "identical_output": True,
        "baseline_mine_peak_rss_kb": baseline["mine_peak_rss_kb"],
        "sharded_mine_peak_rss_kb": most_sharded["mine_peak_rss_kb"],
        "mine_peak_rss_reduction": round(
            baseline["mine_peak_rss_kb"] / most_sharded["mine_peak_rss_kb"], 3
        )
        if most_sharded["mine_peak_rss_kb"]
        else None,
    }
    if ooc is not None:
        # The out-of-core headline: the coordinator's mine-phase peak with
        # store-direct subprocess map jobs and the streaming reduce,
        # against the single-pass coordinator holding everything.
        document["out_of_core_coordinator_peak_rss_kb"] = ooc["coordinator_peak_rss_kb"]
        document["coordinator_rss_reduction"] = (
            round(
                baseline["mine_peak_rss_kb"] / ooc["coordinator_peak_rss_kb"], 3
            )
            if ooc["coordinator_peak_rss_kb"]
            else None
        )
    if chaos is not None and ooc is not None:
        # Fault-free vs retrying twin rows (same shards/dispatch/mode):
        # the ratio is the price of recovering from the injected plan,
        # gated in benchcheck as sharded.chaos_overhead_bounded.
        document["chaos"] = {
            "mine_seconds": chaos["mine_seconds"],
            "fault_free_mine_seconds": ooc["mine_seconds"],
            "overhead_ratio": round(chaos["mine_seconds"] / ooc["mine_seconds"], 3)
            if ooc["mine_seconds"]
            else None,
            "plan": chaos_plan,
        }
    return document


def _print_sharded_summary(document: dict[str, object]) -> None:
    configs = document["configs"]
    assert isinstance(configs, list)
    for row in configs:
        mode = " out-of-core" if row.get("out_of_core") else ""
        print(
            f"shards={row['shards']} workers={row['workers']} {row['executor']} "
            f"dispatch={row.get('dispatch', 'pool')}{mode}: "
            f"mine {row['mine_seconds']}s ({row['requests_per_second']} req/s), "
            f"coordinator peak RSS {row['mine_peak_rss_kb']} KB"
        )
    print(
        f"mine-phase peak RSS {document['baseline_mine_peak_rss_kb']} KB single-pass -> "
        f"{document['sharded_mine_peak_rss_kb']} KB most-sharded serial "
        f"({document['mine_peak_rss_reduction']}x), identical output"
    )
    if "out_of_core_coordinator_peak_rss_kb" in document:
        print(
            f"out-of-core coordinator peak RSS "
            f"{document['out_of_core_coordinator_peak_rss_kb']} KB "
            f"({document['coordinator_rss_reduction']}x below single-pass)"
        )
    chaos = document.get("chaos")
    if isinstance(chaos, dict):
        print(
            f"chaos twin (injected crash + torn spill): mine "
            f"{chaos['mine_seconds']}s vs fault-free "
            f"{chaos['fault_free_mine_seconds']}s "
            f"(overhead ratio {chaos['overhead_ratio']}), identical output"
        )


def _print_mine_summary(document: dict[str, object]) -> None:
    scales = document["scales"]
    assert isinstance(scales, list)
    for row in scales:
        print(
            f"scale {row['scale']}: {row['requests']} requests, "
            f"interned {row['interned']['total_seconds']}s "
            f"({row['interned']['requests_per_second']} req/s), "
            f"legacy {row['legacy']['total_seconds']}s "
            f"-> {row['speedup']}x, identical output"
        )
    overhead = document.get("obs_overhead")
    if isinstance(overhead, dict):
        print(
            f"obs overhead at scale {overhead['scale']}: "
            f"disabled {overhead['disabled']['total_seconds']}s, "
            f"enabled {overhead['enabled']['total_seconds']}s "
            f"(ratio {overhead['overhead_ratio']})"
        )
    heavy = document["heavy_hitter"]
    assert isinstance(heavy, dict)
    for entry in heavy["sizes"]:
        print(
            f"heavy-hitter {entry['servers']} servers: "
            f"uncapped {entry['uncapped']['enumerated_pairs']} pairs "
            f"({entry['uncapped']['seconds']}s), "
            f"capped {entry['capped']['enumerated_pairs']} pairs "
            f"({entry['capped']['seconds']}s)"
        )


def _print_stream_summary(document: dict[str, object]) -> None:
    workloads = document["workloads"]
    assert isinstance(workloads, dict)
    for name, entry in workloads.items():
        assert isinstance(entry, dict)
        print(
            f"{name}: cold {entry['cold']['total_seconds']}s, "
            f"incremental {entry['incremental']['total_seconds']}s "
            f"(speedup {entry['speedup']}x)"
        )
    checkpoint = document["checkpoint"]
    assert isinstance(checkpoint, dict)
    print(
        f"checkpoint: inline {checkpoint['inline_bytes']} B, "
        f"store-backed {checkpoint['store_bytes']} B "
        f"({checkpoint['shrink_factor']}x smaller)"
    )


def add_bench_arguments(parser: argparse.ArgumentParser, default_suite: str = "stream") -> None:
    """The benchmark flag set, shared by ``smash bench`` and this module."""
    parser.add_argument(
        "--suite",
        choices=["stream", "mine", "sharded", "all"],
        default=default_suite,
        help=f"which benchmark suite to run (default: {default_suite})",
    )
    parser.add_argument("--days", type=int, default=4, help="streaming suite: days to ingest")
    parser.add_argument("--window", type=int, default=2, help="streaming suite: window size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scales",
        default="0.25,0.5,1.0",
        help="mine suite: comma-separated scenario scale factors",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="mine suite: timing repetitions per core (best is kept)",
    )
    parser.add_argument(
        "--sharded-scale",
        type=float,
        default=10.0,
        help="sharded suite: scenario scale factor (default 10.0, ~1M requests "
        "— 10x the mine suite's largest default scale)",
    )
    parser.add_argument(
        "--shard-counts",
        default="1,2,4,8",
        help="sharded suite: comma-separated shard counts to probe",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="sharded suite: retry budget per shard-map job (default 2)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="sharded suite: per-attempt subprocess worker timeout "
        "(default 600)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="sharded suite: JSON fault plan for the chaos twin row "
        "(default: a generated crash + torn-spill plan)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_stream.json / BENCH_mine.json; "
        "with --suite all, the mine document — the stream document "
        "then goes to BENCH_stream.json)",
    )
    parser.add_argument(
        "--stream-out",
        default="BENCH_stream.json",
        help="streaming-suite output path when --suite all (default: BENCH_stream.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="after running the selected suites, compare the fresh documents "
        "against the committed baselines (--check-baseline-dir) and exit "
        "non-zero on regression (see repro.eval.benchcheck)",
    )
    parser.add_argument(
        "--check-report",
        default="BENCH_check.json",
        metavar="FILE",
        help="--check: write the machine-readable comparison report here "
        "(default: BENCH_check.json; point it outside the checkout in CI)",
    )
    parser.add_argument(
        "--check-baseline-dir",
        default=".",
        metavar="DIR",
        help="--check: directory holding the committed BENCH_mine.json / "
        "BENCH_stream.json baselines (default: current directory)",
    )
    parser.add_argument(
        "--check-tolerance",
        type=float,
        default=None,
        help="--check: fractional slack before a speedup/shrink ratio "
        "regression fails (default: 0.35)",
    )
    parser.add_argument(
        "--check-rss-tolerance",
        type=float,
        default=None,
        help="--check: fractional slack before mine-phase peak-RSS growth "
        "fails (default: 0.25)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the bench run's metrics as a Prometheus text exposition to FILE",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a JSONL metrics + stage-span snapshot of the bench run to "
        "FILE (render with 'repro stats FILE')",
    )


def run_bench_cli(args: argparse.Namespace) -> int:
    """Execute the suites selected on an ``add_bench_arguments`` namespace."""
    from repro.obs.metrics import MetricsRegistry

    # One registry across every suite: all timed spans land in it, so
    # the obs exports describe the whole bench run.
    registry = MetricsRegistry()
    wrote = []
    if args.suite in ("stream", "all"):
        document = bench_stream(
            days=args.days, window=args.window, seed=args.seed, registry=registry
        )
        out = Path(args.stream_out if args.suite == "all" else (args.out or "BENCH_stream.json"))
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        _print_stream_summary(document)
        wrote.append(out)
    if args.suite in ("mine", "all"):
        scales = tuple(float(part) for part in args.scales.split(",") if part)
        document = mine_scaling(
            scales=scales, seed=args.seed, repeats=args.repeats, registry=registry
        )
        out = Path(args.out or "BENCH_mine.json")
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        _print_mine_summary(document)
        wrote.append(out)
    if args.suite == "sharded":
        shard_counts = tuple(int(part) for part in args.shard_counts.split(",") if part)
        fault_plan = None
        if getattr(args, "fault_plan", None):
            fault_plan = json.loads(Path(args.fault_plan).read_text())
        document = sharded_scaling(
            scale=args.sharded_scale,
            shard_counts=shard_counts,
            seed=args.seed,
            registry=registry,
            shard_retries=args.shard_retries,
            shard_timeout=args.shard_timeout,
            fault_plan=fault_plan,
        )
        # The sharded suite extends the mine document rather than owning a
        # separate file: read-modify-write under the "sharded" key so both
        # mining benchmarks stay tracked side by side in BENCH_mine.json.
        out = Path(args.out or "BENCH_mine.json")
        merged: dict[str, object] = {}
        if out.exists():
            existing = json.loads(out.read_text())
            if isinstance(existing, dict):
                merged = existing
        merged["sharded"] = document
        out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        _print_sharded_summary(document)
        wrote.append(out)
    if args.metrics_out or args.trace_out:
        from repro.obs import write_prometheus, write_snapshot

        if args.metrics_out:
            write_prometheus(registry, args.metrics_out)
            print(f"metrics -> {args.metrics_out}")
        if args.trace_out:
            write_snapshot(registry, args.trace_out)
            print(f"trace snapshot -> {args.trace_out}")
    for path in wrote:
        print(f"wrote {path}")
    if getattr(args, "check", False):
        from repro.eval.benchcheck import (
            DEFAULT_RSS_TOLERANCE,
            DEFAULT_TOLERANCE,
            run_check,
        )

        # A suite pair (mine then sharded) writes the same document twice;
        # compare each fresh file once, re-read from disk so the sharded
        # merge is included.
        unique = list(dict.fromkeys(path.resolve() for path in wrote))
        return run_check(
            unique,
            baseline_dir=Path(args.check_baseline_dir),
            tolerance=(
                args.check_tolerance
                if args.check_tolerance is not None
                else DEFAULT_TOLERANCE
            ),
            rss_tolerance=(
                args.check_rss_tolerance
                if args.check_rss_tolerance is not None
                else DEFAULT_RSS_TOLERANCE
            ),
            report_path=Path(args.check_report),
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.bench",
        description="performance benchmarks (each suite writes one JSON doc)",
    )
    add_bench_arguments(parser, default_suite="stream")
    return run_bench_cli(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
