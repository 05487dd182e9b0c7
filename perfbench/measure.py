"""The measured process: replay one workload's input through the program.

    python3 perfbench/measure.py --workload week-stream --inputs DIR \
        --work DIR --seconds 30 --result FILE [--trace] [--max-passes N]
    python3 perfbench/measure.py --workload week-stream --work DIR --setup-only

``run.py`` starts this process with a pinned ``PYTHONHASHSEED`` and a
``PYTHONPATH`` of ``perfbench/hooks`` plus ``src``.  It builds the
pipeline or streaming engine through the same public calls ``smash run``
and ``smash stream --day-dirs --store --checkpoint --events`` make, then
runs passes in a closed loop: each pass replays the whole input from an
empty store, checkpoint and sink file, and the next pass starts when the
previous one has finished.  The first pass always runs to its end; once
``--seconds`` is spent, a later pass stops after the operation (day)
that is running, so a run ends within one operation of ``--seconds``
and every operation of the input is timed at least once.

Each operation is timed step by step (read the day dir; mine; write the
output), and after every step the process times a few pieces of a fixed
pure-Python loop, outside the steps.  Those pieces sample how fast the
machine runs at that moment; ``run.py`` scales the timings by them.

``--setup-only`` stops once the imports are done and the pipeline or
engine is built, prints ``time.monotonic()`` at that point, so the
caller can time process start to ready, and then prints the median of
a few calibration pieces.  ``--trace`` runs one pass under
``layers.Tracer``, without calibration, and adds its span dump to the
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from common import WORKLOADS, day_dirs, vmhwm_kb

from repro.config import SmashConfig
from repro.core.pipeline import SmashPipeline
from repro.eval.export import write_result_json
from repro.httplog.loader import read_jsonl
from repro.obs import MetricsRegistry
from repro.stream import AlertPolicy, JsonlSink, StreamingSmash, TrackerConfig, save_checkpoint
from repro.stream.window import whois_from_list
from repro.synth.oracles import RedirectOracle


def read_day(directory: Path, registry):
    """A day directory's ``(trace, whois, redirects)``, as ``smash`` reads it."""
    with registry.span("httplog.read"):
        trace = read_jsonl(directory / "trace.jsonl")
        whois = whois_from_list(json.loads((directory / "whois.json").read_text()))
        redirects = RedirectOracle.from_dict(json.loads((directory / "redirects.json").read_text()))
    return trace, whois, redirects


def build(workload: dict, work: Path, metrics=None):
    """The pipeline (batch) or engine (stream) of one pass, over *work*."""
    if workload["kind"] == "batch":
        config = SmashConfig().with_thresh(workload["thresh"]).replace(metrics=metrics)
        return SmashPipeline(config)
    config = SmashConfig().replace(
        workers=1,
        shards=workload["shards"],
        dispatch=workload["dispatch"],
        out_of_core=workload["out_of_core"],
        metrics=metrics,
    )
    return StreamingSmash(
        config=config,
        window_size=workload["window"],
        tracker_config=TrackerConfig(),
        sinks=(JsonlSink(work / "events.jsonl", receive_all=True),),
        store_dir=work / "store",
        policy=AlertPolicy(),
        metrics=metrics,
    )


#: Calibration pieces timed after every step of an operation, and at
#: the end of a set-up sample.
PIECES_PER_LAP = 2
SETUP_PIECES = 9


def calibration_piece() -> float:
    """Seconds one fixed piece of pure-Python work takes right now (~2-3 ms)."""
    start = time.perf_counter()
    total = 0
    table = {}
    for number in range(20_000):
        total += number * number
        table[number & 255] = total
    return time.perf_counter() - start


class StepClock:
    """Times the steps of one operation, sampling machine speed between them.

    ``lap()`` ends the running step, times the calibration pieces (which
    belong to no step), and starts the next step.  With *calibration*
    None, as in a traced pass, no pieces run.
    """

    def __init__(self, calibration: list[float] | None) -> None:
        self.calibration = calibration
        self.steps: list[float] = []
        self.start = time.perf_counter()

    def lap(self) -> None:
        self.steps.append(time.perf_counter() - self.start)
        if self.calibration is not None:
            self.calibration.extend(calibration_piece() for _ in range(PIECES_PER_LAP))
        self.start = time.perf_counter()


def batch_pass(pipeline, days: list[Path], work: Path, registry, stop_at, calibration) -> dict:
    out = work / "campaigns.json"
    error = None
    with registry.span("bench.pass"):
        clock = StepClock(calibration)
        try:
            trace, whois, redirects = read_day(days[0], registry)
            clock.lap()
            result = pipeline.run(trace, whois=whois, redirects=redirects)
            clock.lap()
            write_result_json(result, out)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            error = f"{type(exc).__name__}: {exc}"
        clock.lap()
    op = {"latency": sum(clock.steps), "output": str(out), "error": error}
    return {"wall": op["latency"], "ops": [op], "complete": True}


def stream_pass(engine, days: list[Path], work: Path, registry, stop_at, calibration) -> dict:
    """Replay *days*; stop after the day that ends past *stop_at*."""
    checkpoint = work / "stream.ckpt"
    events = work / "events.jsonl"
    ops = []
    offset = 0
    with registry.span("bench.pass"):
        for day, directory in enumerate(days):
            with registry.span("bench.day", day=day):
                clock = StepClock(calibration)
                error = None
                try:
                    trace, whois, redirects = read_day(directory, registry)
                    clock.lap()
                    engine.ingest_day(day, trace, whois=whois, redirects=redirects)
                    clock.lap()
                    save_checkpoint(engine, checkpoint)
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                    error = f"{type(exc).__name__}: {exc}"
                clock.lap()
            size = events.stat().st_size if events.exists() else 0
            ops.append(
                {"latency": sum(clock.steps), "events": [offset, size], "error": error}
            )
            offset = size
            if error is not None or time.perf_counter() >= stop_at:
                break
        engine.close()
    partials = work / "store" / ".partials"
    leftover = sorted(p.name for p in partials.iterdir()) if partials.is_dir() else []
    shutil.rmtree(work / "store", ignore_errors=True)
    return {
        # First input byte read to the last day's checkpoint written.
        "wall": sum(op["latency"] for op in ops),
        "ops": ops,
        "complete": len(ops) == len(days),
        "events": str(events),
        "partials_left": leftover,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-passes", type=int, default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        build(workload, args.work)
        print(repr(time.monotonic()))
        print(repr(statistics.median(calibration_piece() for _ in range(SETUP_PIECES))))
        return 0

    days = day_dirs(args.inputs)
    run_pass = batch_pass if workload["kind"] == "batch" else stream_pass
    passes = []
    calibration = None if args.trace else []
    dump = None
    deadline = time.perf_counter() + args.seconds
    while True:
        work = args.work / f"pass-{len(passes)}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        registry = MetricsRegistry()
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer(registry)
            tracer.install()
            target = build(workload, work, metrics=registry)
        else:
            target = build(workload, work)
        # The first pass times every operation once, whatever --seconds is.
        stop_at = deadline if passes else float("inf")
        result = run_pass(target, days, work, registry, stop_at, calibration)
        if tracer is not None:
            tracer.uninstall()
            dump = tracer.dump()
        passes.append(result)
        del target
        gc.collect()
        if args.max_passes and len(passes) >= args.max_passes:
            break
        if time.perf_counter() >= deadline:
            break

    report = {
        "pid": os.getpid(),
        "passes": passes,
        "calibration": calibration,
        "vmhwm_kb": vmhwm_kb(),
        "trace": dump,
    }
    args.result.write_text(json.dumps(report, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
