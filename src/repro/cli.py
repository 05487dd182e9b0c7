"""Command-line interface.

Subcommands cover the deploy-and-operate loop the paper describes
("SMASH ... can be run everyday to detect daily malicious activities"):

* ``generate`` — materialise a synthetic scenario day to a JSONL trace
  (plus whois/oracle sidecar files), for demos and load testing;
* ``run`` — run the pipeline on a JSONL trace and write the campaign
  report as JSON;
* ``report`` — print a human-readable summary of a campaign JSON file;
* ``stream`` — run the incremental engine (:mod:`repro.stream`) over a
  multi-day stream with cross-day campaign tracking, alerts and
  checkpoint/resume;
* ``chaos`` — run a sharded mine under a deterministic injected fault
  plan (:mod:`repro.core.faults`) and assert its recovered output is
  byte-identical to the fault-free single-pass mine;
* ``bench`` — run the performance suites (:mod:`repro.eval.bench`):
  the interned-core scaling benchmark (``BENCH_mine.json``) and/or the
  streaming perf-trajectory benchmark (``BENCH_stream.json``);
* ``stats`` — render a human-readable report from a metrics artifact
  written by ``--metrics-out`` / ``--trace-out`` (:mod:`repro.obs`).

Examples::

    python -m repro generate --scenario small --out day0
    python -m repro run --trace day0/trace.jsonl --whois day0/whois.json \
        --redirects day0/redirects.json --out campaigns.json
    python -m repro report campaigns.json
    python -m repro stream --scenario small --days 7 \
        --checkpoint stream.ckpt --events events.jsonl --out summary.json
    python -m repro stream --day-dirs day0 day1 day2 --window 2 \
        --metrics-out metrics.prom --trace-out trace.jsonl
    python -m repro stats trace.jsonl
    python -m repro bench --scales 0.25,0.5,1.0 --out BENCH_mine.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from repro.config import SmashConfig
from repro.core.pipeline import SmashPipeline
from repro.eval.export import write_result_json
from repro.httplog.loader import read_jsonl, write_jsonl
from repro.obs import (
    MetricsRegistry,
    configure_logging,
    render_stats,
    write_prometheus,
    write_snapshot,
)
from repro.synth.generator import TraceGenerator
from repro.synth.oracles import RedirectOracle
from repro.synth.scenarios import data2011day, data2012day, data2012week, small_scenario
from repro.whois.record import WhoisRecord
from repro.whois.registry import WhoisRegistry

_SCENARIOS = {
    "small": small_scenario,
    "data2011day": data2011day,
    "data2012day": data2012day,
    "data2012week": data2012week,
}


def _write_whois_json(registry: WhoisRegistry, path: Path) -> None:
    records = [
        record.to_dict() for record in sorted(registry, key=lambda r: r.domain)
    ]
    path.write_text(json.dumps(records, indent=1) + "\n")


def _read_whois_json(path: Path) -> WhoisRegistry:
    records = json.loads(path.read_text())
    return WhoisRegistry(WhoisRecord.from_dict(entry) for entry in records)


def _write_redirects_json(oracle: RedirectOracle, path: Path) -> None:
    path.write_text(json.dumps(oracle.to_dict(), indent=1) + "\n")


def _read_redirects_json(path: Path) -> RedirectOracle:
    return RedirectOracle.from_dict(json.loads(path.read_text()))


def _cmd_generate(args: argparse.Namespace) -> int:
    factory = _SCENARIOS[args.scenario]
    spec = factory(seed=args.seed) if args.scenario == "small" else factory(
        scale=args.scale, seed=args.seed
    )
    generator = TraceGenerator(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = generator.generate_day(args.day)
    written = write_jsonl(dataset.trace, out / "trace.jsonl")
    _write_whois_json(dataset.whois, out / "whois.json")
    _write_redirects_json(dataset.redirects, out / "redirects.json")
    truth = {
        "campaigns": [
            {
                "name": campaign.name,
                "category": campaign.category,
                "activity": campaign.activity,
                "servers": sorted(campaign.servers),
                "clients": sorted(campaign.clients),
            }
            for campaign in dataset.truth.campaigns
        ],
        "noise_category": dict(sorted(dataset.truth.noise_category.items())),
    }
    (out / "truth.json").write_text(json.dumps(truth, indent=1) + "\n")
    print(f"wrote {written} requests to {out / 'trace.jsonl'}")
    print(f"sidecars: whois.json, redirects.json, truth.json in {out}/")
    return 0


def _obs_registry(args: argparse.Namespace) -> MetricsRegistry | None:
    """A live registry when any obs export flag asks for one, else None."""
    if getattr(args, "metrics_out", None) or getattr(args, "trace_out", None):
        return MetricsRegistry()
    return None


def _export_obs(registry: MetricsRegistry | None, args: argparse.Namespace) -> None:
    if registry is None:
        return
    if args.metrics_out:
        write_prometheus(registry, args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    if args.trace_out:
        write_snapshot(registry, args.trace_out)
        print(f"trace snapshot -> {args.trace_out}")


def _apply_backend_flag(config: SmashConfig, args: argparse.Namespace) -> SmashConfig:
    """Pin the pure-python graph backend when ``--pure-python`` was given."""
    if getattr(args, "pure_python", False):
        return config.replace(
            dimensions=dataclasses.replace(config.dimensions, use_csr=False)
        )
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    trace = read_jsonl(args.trace)
    whois = _read_whois_json(Path(args.whois)) if args.whois else None
    redirects = _read_redirects_json(Path(args.redirects)) if args.redirects else None
    registry = _obs_registry(args)
    config = SmashConfig().with_thresh(args.thresh).replace(
        workers=args.workers,
        executor=args.executor,
        shards=args.shards,
        dispatch=args.dispatch,
        out_of_core=args.out_of_core,
        shard_retries=args.shard_retries,
        shard_timeout=args.shard_timeout,
        fault_plan=_load_fault_plan(args),
        metrics=registry,
    )
    config = _apply_backend_flag(config, args)
    if args.dimensions:
        config = config.replace(
            enabled_secondary_dimensions=tuple(args.dimensions.split(","))
        )
    config.validate()
    with SmashPipeline(config) as pipeline:
        result = pipeline.run(trace, whois=whois, redirects=redirects)
    write_result_json(result, args.out)
    print(
        f"{len(result.campaigns)} campaigns, "
        f"{len(result.detected_servers)} servers -> {args.out}"
    )
    _export_obs(registry, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.campaigns).read_text())
    campaigns = data.get("campaigns", [])
    print(f"{len(campaigns)} inferred campaigns, "
          f"{len(data.get('detected_servers', []))} servers total")
    for campaign in campaigns:
        print(
            f"\ncampaign #{campaign['id']}: {campaign['num_servers']} servers, "
            f"{campaign['num_clients']} clients"
        )
        for server in campaign["servers"][: args.max_servers]:
            dims = ",".join(campaign["dimensions"].get(server, []))
            score = campaign["scores"].get(server)
            rendered = f"{score:.2f}" if isinstance(score, float) else "-"
            print(f"    {server:<40} score={rendered:<6} [{dims}]")
        hidden = campaign["num_servers"] - args.max_servers
        if hidden > 0:
            print(f"    ... and {hidden} more")
    return 0


def _ids_evidence(arg: str | None):
    """``--ids`` sources: 'scenario' binds the generator's per-day IDS
    generations; a path loads ``{"ids2012": [servers], "ids2013": [...]}``."""
    from repro.domains.names import normalize_server_name
    from repro.stream import StaticEvidence
    from repro.stream.scoring import scenario_ids_evidence

    if arg is None:
        return ()
    if arg == "scenario":
        return scenario_ids_evidence()
    data = json.loads(Path(arg).read_text())
    # Campaign servers are pipeline-aggregated second-level names; feed
    # entries ("www.evil.com") must land in the same name space or they
    # silently never match.
    known_2012 = frozenset(normalize_server_name(s) for s in data.get("ids2012", ()))
    known_2013 = frozenset(normalize_server_name(s) for s in data.get("ids2013", ()))
    return (
        StaticEvidence("ids2012", known_2012, kind="ids"),
        StaticEvidence("ids2013_zero_day", known_2013 - known_2012, kind="zero_day"),
    )


def _blacklist_evidence(arg: str | None):
    """``--blacklist`` source: 'scenario' binds the generator's per-day
    aggregator; a path loads a JSON array of servers (or feed->servers map)."""
    from repro.domains.names import normalize_server_name
    from repro.stream import BlacklistEvidence, StaticEvidence

    if arg is None:
        return ()
    if arg == "scenario":
        return (BlacklistEvidence(),)
    data = json.loads(Path(arg).read_text())
    if isinstance(data, dict):
        servers = [server for feed in data.values() for server in feed]
    else:
        servers = list(data)
    normalized = [normalize_server_name(server) for server in servers]
    return (StaticEvidence("blacklist", normalized, kind="blacklist"),)


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream import (
        AlertPolicy,
        JsonlSink,
        StreamingSmash,
        TrackerConfig,
        load_checkpoint,
        save_checkpoint,
    )
    from repro.stream.window import DayPartition

    configure_logging(args.log_level, args.log_json)
    logger = logging.getLogger("repro.stream.cli")
    registry = _obs_registry(args)
    evidence = _ids_evidence(args.ids) + _blacklist_evidence(args.blacklist)
    if args.day_dirs and any(flag == "scenario" for flag in (args.ids, args.blacklist)):
        print("error: --ids/--blacklist scenario evidence needs a generated "
              "scenario feed, not --day-dirs (pass evidence files instead)",
              file=sys.stderr)
        return 2
    policy = AlertPolicy(min_severity=args.min_severity, growth_rate=args.growth_rate)
    policy.validate()
    # On --resume the sinks dedupe against what their files already hold
    # (the resumed stream replays at most the crashed day); a fresh
    # stream appends plainly, so reusing a file never swallows new days.
    sinks: tuple[JsonlSink, ...] = ()
    if args.events:
        # The event log stays complete whatever the severity floor; only
        # the --alerts feed is filtered.
        sinks += (JsonlSink(args.events, resume_safe=args.resume, receive_all=True),)
    if args.alerts:
        sinks += (JsonlSink(args.alerts, resume_safe=args.resume),)
    config = _apply_backend_flag(
        SmashConfig().replace(
            workers=args.workers,
            executor=args.executor,
            shards=args.shards,
            dispatch=args.dispatch,
            out_of_core=args.out_of_core,
            shard_retries=args.shard_retries,
            shard_timeout=args.shard_timeout,
            fault_plan=_load_fault_plan(args),
            incremental=args.incremental,
        ),
        args,
    )
    config.validate()
    checkpoint = Path(args.checkpoint) if args.checkpoint else None
    if args.resume and checkpoint is not None and checkpoint.exists():
        # Evidence accumulations are restored from the checkpoint into
        # the freshly-built sources; the alert policy is operational
        # tuning (like sinks), so the command line's flags apply.
        engine = load_checkpoint(
            checkpoint,
            config=config,
            sinks=sinks,
            store_dir=args.store,
            evidence=evidence,
            policy=policy,
            metrics=registry,
        )
        print(f"resumed from {checkpoint} (last day: {engine.last_day})")
        # The checkpoint carries the stream's window size and tracker
        # tuning; changing them mid-stream would silently change what a
        # "matched" campaign means, so the checkpointed values win.
        if engine.window.size != args.window:
            print(f"note: --window {args.window} ignored on resume "
                  f"(checkpoint uses {engine.window.size})")
        if engine.tracker.config.server_jaccard != args.match_jaccard:
            print(f"note: --match-jaccard {args.match_jaccard} ignored on resume "
                  f"(checkpoint uses {engine.tracker.config.server_jaccard})")
    else:
        engine = StreamingSmash(
            config=config,
            window_size=args.window,
            tracker_config=TrackerConfig(server_jaccard=args.match_jaccard),
            sinks=sinks,
            store_dir=args.store,
            evidence=evidence,
            policy=policy,
            metrics=registry,
        )
    start_day = 0 if engine.last_day is None else engine.last_day + 1

    def feed():
        if args.day_dirs:
            for day, directory in enumerate(args.day_dirs):
                if day < start_day:
                    continue
                root = Path(directory)
                whois_path = root / "whois.json"
                redirects_path = root / "redirects.json"
                yield DayPartition(
                    day=day,
                    trace=read_jsonl(root / "trace.jsonl"),
                    whois=_read_whois_json(whois_path) if whois_path.exists() else None,
                    redirects=_read_redirects_json(redirects_path)
                    if redirects_path.exists() else None,
                )
        else:
            factory = _SCENARIOS[args.scenario]
            if args.scenario == "small":
                spec = factory(seed=args.seed, days=args.days)
            else:
                spec = factory(scale=args.scale, seed=args.seed)
            generator = TraceGenerator(spec)
            for dataset in generator.iter_days(start=start_day):
                # Scenario ground truth rotates with the campaigns; the
                # evidence sources adopt each day's IDS/blacklists just
                # before the engine ingests that day.
                for source in engine.evidence:
                    source.bind_dataset(dataset)
                yield DayPartition(
                    day=dataset.day,
                    trace=dataset.trace,
                    whois=dataset.whois,
                    redirects=dataset.redirects,
                )

    updates = []
    try:
        for partition in feed():
            update = engine.ingest_day(
                partition.day,
                partition.trace,
                whois=partition.whois,
                redirects=partition.redirects,
            )
            updates.append(update)
            critical = sum(1 for event in update.alerts if event.severity == "critical")
            logger.info(
                f"day {update.day}",
                extra={
                    "data": {
                        "day": update.day,
                        "campaigns": update.num_campaigns,
                        "servers": len(update.detected_servers),
                        "new": len(update.events_of("new_campaign")),
                        "grown": len(update.events_of("campaign_growth")),
                        "died": len(update.events_of("campaign_died")),
                        "active": len(update.active),
                        "alerts": len(update.alerts),
                        "critical": critical,
                        "mined_dimensions": len(update.mined_dimensions),
                        "reused_dimensions": len(update.reused_dimensions),
                    }
                },
            )
            if checkpoint is not None:
                save_checkpoint(engine, checkpoint)
    finally:
        engine.close()

    if not updates and start_day > 0:
        print("nothing to do: stream already past the requested days")

    tracker = engine.tracker
    print(f"\n{len(tracker.campaigns)} campaign identities tracked:")
    for row in tracker.lifetimes():
        status = "active" if row["alive"] else "dead"
        print(
            f"  {row['uid']}: days {row['first_seen']}-{row['last_seen']} "
            f"({row['days_seen']} seen, {row['max_consecutive_days']} consecutive), "
            f"{row['servers']} servers ({row['all_servers']} all-time), {status}"
        )

    if args.campaigns_out:
        if updates:
            write_result_json(updates[-1].result, args.campaigns_out)
            print(f"final-window campaigns -> {args.campaigns_out}")
        else:
            print("no new days streamed; --campaigns-out not written")

    if args.out:
        summary = {
            "lifetimes": tracker.lifetimes(),
            "persistence": [
                {
                    "day": p.day,
                    "old_servers": p.old_servers,
                    "new_servers_old_clients": p.new_servers_old_clients,
                    "new_servers_new_clients": p.new_servers_new_clients,
                }
                for p in tracker.persistence_series()
            ],
            # Per-day, per-dimension candidate-pair accounting: the
            # heavy-hitter load signal, now visible outside `smash bench`.
            "build_stats": [
                {"day": update.day, "dimensions": update.build_stats}
                for update in updates
            ],
        }
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
        print(f"\nsummary -> {args.out}")
    _export_obs(registry, args)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.eval.bench import run_bench_cli

    return run_bench_cli(args)


def _result_digest(result) -> str:
    import hashlib

    from repro.eval.export import result_to_dict

    document = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def _counter_total(registry: MetricsRegistry, name: str) -> int:
    family = registry.get(name)
    if family is None:
        return 0
    return int(sum(child.value for _, child in family.samples()))


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Prove fault recovery: a faulted sharded mine must equal the clean run."""
    from repro.core.faults import RECOVERABLE_KINDS, FaultPlan
    from repro.errors import ReproError

    factory = _SCENARIOS[args.scenario]
    spec = factory(seed=args.seed) if args.scenario == "small" else factory(
        scale=args.scale, seed=args.seed
    )
    dataset = TraceGenerator(spec).generate_day(0)

    config = _apply_backend_flag(
        SmashConfig().replace(
            workers=args.workers,
            executor=args.executor,
            shards=args.shards,
            dispatch=args.dispatch,
            shard_retries=args.shard_retries,
            shard_timeout=args.shard_timeout,
        ),
        args,
    )
    config.validate()

    # The reference is the fault-free *single-pass* mine: recovery must
    # reproduce not just "a" result but the one the unsharded pipeline
    # computes (sharded == single-pass is already test-enforced; chaos
    # extends the equality through crashes, hangs and torn spills).
    with SmashPipeline(config.replace(shards=1)) as pipeline:
        clean = pipeline.run(dataset.trace, whois=dataset.whois, redirects=dataset.redirects)
    clean_digest = _result_digest(clean)
    print(f"clean run: {len(clean.campaigns)} campaigns, digest {clean_digest[:12]}")

    if args.fault_plan:
        plan = FaultPlan.load(args.fault_plan)
    else:
        kinds = tuple(args.kinds.split(",")) if args.kinds else RECOVERABLE_KINDS
        # Hangs must overshoot the timeout comfortably or they are not
        # hangs; everything else in the plan is wall-clock-free.
        plan = FaultPlan.generate(
            args.shards, kinds, hang_seconds=max(4.0, 4.0 * args.shard_timeout)
        )
    print(f"fault plan: {len(plan.faults)} trigger(s)")
    for fault in plan.faults:
        scope = "every attempt" if fault.attempt is None else f"attempt {fault.attempt}"
        print(f"  shard {fault.shard} {scope}: {fault.kind}")

    registry = MetricsRegistry()
    chaos_digest = None
    failure = None
    pipeline = SmashPipeline(config.replace(fault_plan=plan, metrics=registry))
    try:
        chaos = pipeline.run(dataset.trace, whois=dataset.whois, redirects=dataset.redirects)
        chaos_digest = _result_digest(chaos)
    except ReproError as error:
        failure = f"{type(error).__name__}: {error}"
    finally:
        pipeline.close()

    identical = chaos_digest is not None and chaos_digest == clean_digest
    accounting = {
        name: _counter_total(registry, f"smash_shard_{name}_total")
        for name in ("retries", "worker_failures", "reassigned")
    }
    if failure is not None:
        print(f"chaos run FAILED: {failure}")
    else:
        print(f"chaos run: digest {chaos_digest[:12]}")
    print(
        f"recovery: {accounting['worker_failures']} worker failure(s), "
        f"{accounting['retries']} retr(y/ies), "
        f"{accounting['reassigned']} reassignment(s)"
    )
    print("byte-identical to clean run" if identical else "OUTPUT DIVERGED")

    if args.report:
        report = {
            "identical": identical,
            "clean_digest": clean_digest,
            "chaos_digest": chaos_digest,
            "error": failure,
            "plan": plan.to_dict(),
            "shards": args.shards,
            "dispatch": args.dispatch,
            **accounting,
        }
        Path(args.report).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"report -> {args.report}")
    return 0 if identical else 1


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """``--metrics-out`` / ``--trace-out`` metric export destinations."""
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's metrics as a Prometheus text exposition to FILE",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a JSONL metrics + stage-span snapshot to FILE "
        "(render with 'repro stats FILE')",
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    print(render_stats(args.file), end="")
    return 0


def _add_worker_flags(parser: argparse.ArgumentParser) -> None:
    """``--workers`` / ``--executor`` / ``--shards`` for parallel mining."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="workers for per-dimension mining (0 = one per CPU, default 1 = "
        "serial); every worker count produces identical output",
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default="thread",
        help="executor used when --workers > 1 (default: thread)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard the mine into N map-reduce partitions with spill-to-store "
        "partials (default 1 = single pass); every shard count produces "
        "byte-identical output",
    )
    parser.add_argument(
        "--dispatch",
        choices=["serial", "pool", "subprocess"],
        default="pool",
        help="how sharded map jobs execute: on the worker pool (default), "
        "inline (serial), or in warm worker subprocesses (up to --workers, "
        "kept for the whole command) exchanging only store paths and content "
        "digests; every dispatch kind produces "
        "byte-identical output",
    )
    parser.add_argument(
        "--out-of-core",
        action="store_true",
        help="reduce shard partials into per-dimension indexes without ever "
        "assembling the full window trace in the coordinator (requires "
        "--store for streaming; output is byte-identical either way)",
    )
    parser.add_argument(
        "--pure-python",
        action="store_true",
        help="force the pure-python reference graph backend instead of the "
        "numpy CSR fast path (output is byte-identical either way)",
    )
    _add_fault_flags(parser)


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    """``--shard-retries`` / ``--shard-timeout`` / ``--fault-plan``."""
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="retries per failed shard-map job before the coordinator "
        "reassigns it inline (default 2; 0 = single attempt); recovery "
        "produces byte-identical output",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="kill a subprocess shard worker after this many seconds and "
        "retry (default 600)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="inject deterministic shard-job faults from this JSON plan "
        "(testing/chaos only; see 'repro chaos')",
    )


def _load_fault_plan(args: argparse.Namespace):
    if getattr(args, "fault_plan", None):
        from repro.core.faults import FaultPlan

        return FaultPlan.load(args.fault_plan)
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SMASH malware-campaign discovery (ICDCS 2015)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="materialise a synthetic scenario day")
    generate.add_argument("--scenario", choices=sorted(_SCENARIOS), default="small")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--day", type=int, default=0)
    generate.add_argument("--out", required=True, help="output directory")
    generate.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run SMASH on a JSONL trace")
    run.add_argument("--trace", required=True)
    run.add_argument("--whois", default=None)
    run.add_argument("--redirects", default=None)
    run.add_argument("--thresh", type=float, default=0.8)
    run.add_argument(
        "--dimensions",
        default=None,
        help="comma-separated secondary dimensions "
        "(default: urifile,ipset,whois)",
    )
    run.add_argument("--out", required=True, help="campaign JSON output path")
    _add_worker_flags(run)
    _add_obs_flags(run)
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="summarise a campaign JSON file")
    report.add_argument("campaigns")
    report.add_argument("--max-servers", type=int, default=5)
    report.set_defaults(func=_cmd_report)

    stream = sub.add_parser(
        "stream", help="run the incremental multi-day streaming engine"
    )
    stream.add_argument("--scenario", choices=sorted(_SCENARIOS), default="small")
    stream.add_argument("--scale", type=float, default=1.0)
    stream.add_argument("--seed", type=int, default=7)
    stream.add_argument(
        "--days",
        type=int,
        default=7,
        help="number of days (small scenario only; presets fix their own)",
    )
    stream.add_argument(
        "--day-dirs",
        nargs="+",
        default=None,
        metavar="DIR",
        help="stream from 'repro generate' output directories instead of "
        "generating a scenario (each holds trace.jsonl [+ sidecars])",
    )
    stream.add_argument("--window", type=int, default=1, help="rolling window size in days")
    stream.add_argument(
        "--match-jaccard",
        type=float,
        default=0.3,
        help="server-set Jaccard threshold for cross-day campaign identity",
    )
    stream.add_argument("--checkpoint", default=None, help="checkpoint file, saved after every day")
    stream.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint if it exists",
    )
    stream.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persist each day partition into this on-disk trace store; "
        "checkpoints then hold (day, digest) references instead of "
        "embedded traces and stay a few KB regardless of window size",
    )
    stream.add_argument(
        "--no-incremental",
        dest="incremental",
        action="store_false",
        default=True,
        help="disable the per-dimension incremental mining cache and fully "
        "re-mine the window every day (results are identical either way)",
    )
    stream.add_argument(
        "--events",
        default=None,
        help="append every scored tracker event to this JSONL file "
        "(unfiltered by --min-severity)",
    )
    stream.add_argument(
        "--alerts",
        default=None,
        metavar="FILE",
        help="append scored alerts (severity >= --min-severity) to this "
        "JSONL file; with --resume, replayed days are never duplicated",
    )
    stream.add_argument(
        "--min-severity",
        choices=["info", "warning", "critical"],
        default="info",
        help="suppress events below this severity before they reach any "
        "sink (default: info = everything)",
    )
    stream.add_argument(
        "--growth-rate",
        type=float,
        default=3.0,
        help="servers added per advance that makes a growth event at "
        "least a warning (default: 3)",
    )
    stream.add_argument(
        "--ids",
        default=None,
        metavar="SCENARIO_OR_FILE",
        help="IDS evidence: 'scenario' runs the generated scenario's "
        "2012/2013 signature generations over each day (zero-day "
        "hits escalate to critical), or a JSON file "
        '{"ids2012": [servers], "ids2013": [servers]}',
    )
    stream.add_argument(
        "--blacklist",
        default=None,
        metavar="SCENARIO_OR_FILE",
        help="blacklist evidence: 'scenario' checks servers against the "
        "generated scenario's blacklist aggregator, or a JSON array "
        "of servers / {feed: [servers]} file",
    )
    stream.add_argument("--out", default=None, help="write lifetimes + persistence summary JSON")
    stream.add_argument(
        "--campaigns-out",
        default=None,
        help="write the final window's campaign JSON (same schema as 'run --out')",
    )
    stream.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="info",
        help="stderr log level for per-advance summaries (default: info)",
    )
    stream.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as JSON objects instead of human-readable text",
    )
    _add_worker_flags(stream)
    _add_obs_flags(stream)
    stream.set_defaults(func=_cmd_stream)

    chaos = sub.add_parser(
        "chaos",
        help="run a sharded mine under an injected fault plan and assert "
        "its output is byte-identical to the fault-free single-pass mine",
    )
    chaos.add_argument("--scenario", choices=sorted(_SCENARIOS), default="small")
    chaos.add_argument("--scale", type=float, default=1.0)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--shards", type=int, default=3)
    chaos.add_argument(
        "--dispatch",
        choices=["serial", "pool", "subprocess"],
        default="subprocess",
        help="dispatcher to stress (default: subprocess — the only one that "
        "can enforce timeouts and survive real worker death)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=0,
        help="concurrent shard workers (0 = one per CPU)",
    )
    chaos.add_argument("--executor", choices=["serial", "thread", "process"], default="thread")
    chaos.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="retry budget per shard job (default 2)",
    )
    chaos.add_argument(
        "--shard-timeout",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="per-attempt worker timeout; injected hangs sleep 4x this "
        "(default 20)",
    )
    chaos.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="use this JSON fault plan instead of generating one",
    )
    chaos.add_argument(
        "--kinds",
        default=None,
        help="comma-separated fault kinds for the generated plan "
        "(default: all six recoverable kinds)",
    )
    chaos.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write a JSON chaos report (digests, plan, retry accounting)",
    )
    chaos.add_argument(
        "--pure-python",
        action="store_true",
        help="force the pure-python graph backend in both runs",
    )
    chaos.set_defaults(func=_cmd_chaos)

    bench = sub.add_parser(
        "bench",
        help="run the perf benchmarks (mine scaling and/or streaming)",
    )
    from repro.eval.bench import add_bench_arguments

    add_bench_arguments(bench, default_suite="mine")
    bench.set_defaults(func=_cmd_bench)

    stats = sub.add_parser(
        "stats",
        help="render a metrics/trace artifact written by --metrics-out/--trace-out",
    )
    stats.add_argument("file", help="Prometheus text exposition or JSONL snapshot")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
