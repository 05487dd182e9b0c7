"""End-to-end SMASH benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload day-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload week-outofcore --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --pin          # regenerate perfbench/pins.json

Workloads (see NOTES.md): ``day-batch``, ``week-stream``,
``week-outofcore``.  ``--seed n`` selects input set ``n % 3``; each set
is generated once per checkout by ``gen.py`` in its own process, and its
digest must match the one pinned in ``pins.json`` or the run aborts.

With ``--trace 0`` the run times fresh interpreters for ``setup_s`` and
then runs ``measure.py`` in a closed loop for ``--seconds``, reporting
``setup_s``, ``wall_s``, ``day_p50_s`` and ``peak_rss_mb``
(``worker_peak_rss_mb`` is printed for week-outofcore as well).  Each
operation (a batch job or a day) is repeated in every pass of the run;
the timings take each operation's median over its repetitions and scale
it to the reference speed of a calibration loop timed in the same run
(NOTES.md, "Noise").  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of ``layers.py``.  Every operation's output is checked
against the pinned reference digests; the last line of standard output
is the JSON result, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    CACHE,
    HASH_SEED,
    HOOKS,
    INPUT_SETS,
    PINS,
    PROFILES,
    REFERENCE_OF,
    SETUP_SAMPLES,
    SRC,
    WORKER_RSS_ENV,
    WORKLOADS,
    day_dirs,
    input_digest,
    input_dir,
    input_seed,
    load_pins,
    pin_key,
)
from layers import PER_LAYER, layer_metrics

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("day_p50_s", "s"), ("peak_rss_mb", "MB"))

#: Seconds one calibration piece (``measure.calibration_piece``) takes
#: at the reference speed the timings are scaled to: about the median
#: of the 2-vCPU VM these figures were taken on.
REFERENCE_PIECE_S = 0.0025

#: A pass still running this long after ``--seconds`` is spent is taken
#: to hang: the measured process and its workers are killed and the run
#: fails.  The longest pass (week-outofcore) takes 19-35 s.
PASS_TIMEOUT = 120.0


class BenchError(Exception):
    """The benchmark cannot run: missing program, inputs off their pins."""


def measured_env(rss_dir: Path | None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join([str(HOOKS), str(SRC)])
    # Temporary files of the program stay inside the checkout.
    tmp = CACHE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if rss_dir is not None:
        env[WORKER_RSS_ENV] = str(rss_dir)
    return env


def ensure_inputs(profile: str, kind: str, seed: int, pins: dict, pinning: bool) -> Path:
    """Generate the input set once, then check it against its pinned digest."""
    root = input_dir(profile, kind, seed)
    if not root.is_dir():
        root.parent.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(BENCH_DIR / "gen.py"), "--profile", profile]
        command += ["--kind", kind, "--seed", str(seed), "--out", str(root)]
        subprocess.run(command, check=True, env=measured_env(None))
    key = pin_key(profile, kind, seed)
    actual = input_digest(root)
    if pinning:
        pins["inputs"][key] = actual
    elif pins["inputs"].get(key) != actual:
        raise BenchError(
            f"input set {key} has digest {actual}, pinned {pins['inputs'].get(key)}: "
            "repro.synth output changed, so the workload changed; "
            "rerun 'perfbench/run.py --pin' only if that is intended"
        )
    return root


def run_group(command: list[str], env: dict[str, str], timeout: float) -> str:
    """Run *command* in a process group of its own and return its stdout.

    On a timeout or an interrupt the whole group is killed, so the shard
    workers of a hung measured process die with it.
    """
    with subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as process:
        try:
            stdout, _ = process.communicate(timeout=timeout)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
    if process.returncode:
        raise subprocess.CalledProcessError(process.returncode, command)
    return stdout


def setup_sample(workload: str, work: Path) -> tuple[float, float]:
    """``(seconds, piece)``: spawn of a fresh interpreter until its engine
    is built, and the median calibration piece it timed right after."""
    command = [sys.executable, str(BENCH_DIR / "measure.py"), "--workload", workload]
    command += ["--work", str(work), "--setup-only"]
    start = time.monotonic()
    stdout = run_group(command, measured_env(None), PASS_TIMEOUT)
    shutil.rmtree(work, ignore_errors=True)
    ready, piece = stdout.strip().splitlines()[-2:]
    return float(ready) - start, float(piece)


def run_measure(
    workload: str, inputs: Path, work: Path, seconds: float, passes: int, trace: bool
) -> dict:
    rss_dir = work / "worker-rss"
    rss_dir.mkdir(parents=True)
    result = work / "result.json"
    command = [sys.executable, str(BENCH_DIR / "measure.py"), "--workload", workload]
    command += ["--inputs", str(inputs), "--work", str(work / "passes")]
    command += ["--seconds", str(seconds), "--max-passes", str(passes), "--result", str(result)]
    if trace:
        command.append("--trace")
    run_group(command, measured_env(rss_dir), seconds + PASS_TIMEOUT)
    report = json.loads(result.read_text())
    workers = [path.read_text().split() for path in sorted(rss_dir.glob("*.kb"))]
    report["worker_pids"] = [int(pid) for pid, _ in workers]
    report["worker_rss_kb"] = [int(kb) for _, kb in workers]
    return report


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(workload: str, run: dict) -> list[str]:
    """One digest per operation: the campaign JSON, or one day's events."""
    if WORKLOADS[workload]["kind"] == "batch":
        path = Path(run["ops"][0]["output"])
        return [sha256_bytes(path.read_bytes()) if path.is_file() else ""]
    data = Path(run["events"]).read_bytes() if Path(run["events"]).is_file() else b""
    return [sha256_bytes(data[op["events"][0] : op["events"][1]]) for op in run["ops"]]


def check_passes(
    workload: str, report: dict, reference: list[str] | None
) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every operation of every pass."""
    attempted = failed = 0
    problems: list[str] = []
    for number, run in enumerate(report["passes"]):
        digests = output_digests(workload, run)
        for day, (op, digest) in enumerate(zip(run["ops"], digests)):
            attempted += 1
            if op.get("error"):
                problem = op["error"]
            elif reference is None or day >= len(reference):
                problem = "no pinned reference"
            elif digest != reference[day]:
                problem = f"output digest {digest[:12]} != pinned {reference[day][:12]}"
            else:
                continue
            failed += 1
            problems.append(f"pass {number} op {day}: {problem}")
        if run.get("partials_left"):
            failed += 1
            problems.append(f"pass {number}: .partials not empty: {run['partials_left']}")
    return attempted, failed, problems


def reference_of(pins: dict, profile: str, workload: str, seed: int) -> list[str] | None:
    value = pins["outputs"].get(pin_key(profile, REFERENCE_OF[workload], seed))
    if isinstance(value, str):
        return [value]
    return value


def op_latencies(report: dict) -> list[float]:
    """Each operation's median latency over its repetitions in the run.

    Operation *i* does the same work in every pass, so its repetitions
    differ only by how fast the machine ran at the time.
    """
    repetitions: dict[int, list[float]] = {}
    for run in report["passes"]:
        for index, op in enumerate(run["ops"]):
            repetitions.setdefault(index, []).append(op["latency"])
    return [statistics.median(repetitions[index]) for index in sorted(repetitions)]


def end_to_end(
    workload: str, setups: list[tuple[float, float]], report: dict
) -> tuple[dict, dict, dict]:
    """``(metrics, printed-only metrics, measured seconds before scaling)``.

    Every timing is scaled to the calibration loop's reference speed: a
    run's operations by the median piece the measured process timed
    between their steps, a set-up sample by the median piece it timed
    itself (NOTES.md, "Noise").
    """
    latencies = op_latencies(report)
    scale = REFERENCE_PIECE_S / statistics.median(report["calibration"])
    measured = {
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "wall_s": sum(latencies),
        "day_p50_s": statistics.median(latencies),
    }
    metrics = {
        "setup_s": statistics.median(s * REFERENCE_PIECE_S / piece for s, piece in setups),
        "wall_s": measured["wall_s"] * scale,
        "day_p50_s": measured["day_p50_s"] * scale,
        "peak_rss_mb": report["vmhwm_kb"] / 1024.0,
    }
    extra = {}
    if WORKLOADS[workload].get("dispatch") == "subprocess":
        extra["worker_peak_rss_mb"] = max(report["worker_rss_kb"], default=0) / 1024.0
    return metrics, extra, measured


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6f} {unit}")


def run_workload(args, pins: dict, work: Path) -> int:
    workload = args.workload
    seed = input_seed(args.seed)
    inputs = ensure_inputs(args.profile, WORKLOADS[workload]["input"], seed, pins, False)
    reference = reference_of(pins, args.profile, workload, seed)
    problems: list[str] = []
    if args.trace:
        untraced = run_measure(workload, inputs, work / "untraced", 0, 1, False)
        traced = run_measure(workload, inputs, work / "traced", 0, 1, True)
        attempted = failed = 0
        for report in (untraced, traced):
            done, bad, found = check_passes(workload, report, reference)
            attempted, failed, problems = attempted + done, failed + bad, problems + found
        values = layer_metrics(
            traced["trace"], untraced["passes"][0]["wall"], traced["worker_rss_kb"]
        )
        rows = [(name, values[name], unit) for name, unit, _ in PER_LAYER]
        title = f"{workload} per-layer profile, input set {seed} (one traced pass)"
        printed_only = []
    else:
        # Half the set-up samples are taken before the measured passes and
        # half after, so their median spans the machine's speed over the run.
        half = SETUP_SAMPLES // 2
        setups = [setup_sample(workload, work / f"setup-{i}") for i in range(half)]
        report = run_measure(workload, inputs, work / "timed", args.seconds, 0, False)
        setups += [setup_sample(workload, work / f"setup-{i}") for i in range(half, SETUP_SAMPLES)]
        attempted, failed, problems = check_passes(workload, report, reference)
        values, extra, measured = end_to_end(workload, setups, report)
        rows = [(name, values[name], unit) for name, unit in END_TO_END]
        passes = report["passes"]
        complete = sum(run["complete"] for run in passes)
        title = f"{workload}, input set {seed}: {complete} whole pass(es)"
        if complete < len(passes):
            title += f" and {len(passes[-1]['ops'])} day(s) of another"
        printed_only = [(name, value, "MB") for name, value in extra.items()]
        printed_only += [(f"{name} (measured, unscaled)", v, "s") for name, v in measured.items()]
        piece = statistics.median(report["calibration"]) * 1000
        printed_only.append(("calibration piece (median)", piece, "ms"))
    print_table(f"{title}, {attempted} operations", rows + printed_only)
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in rows}
    for problem in problems:
        print(f"FAILED {problem}")
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def pin(args, work: Path) -> int:
    """Regenerate pins.json: input digests, reference outputs, traffic."""
    pins = {"inputs": {}, "outputs": {}, "traffic": {}}
    for seed in range(INPUT_SETS):
        for workload in WORKLOADS:
            kind = WORKLOADS[workload]["input"]
            inputs = ensure_inputs(args.profile, kind, seed, pins, True)
            report = run_measure(workload, inputs, work / f"{workload}-{seed}", 0, 1, False)
            run = report["passes"][0]
            errors = [op["error"] for op in run["ops"] if op.get("error")]
            if errors or run.get("partials_left"):
                raise BenchError(f"{workload} on input set {seed} failed: {errors}")
            digests = output_digests(workload, run)
            key = pin_key(args.profile, REFERENCE_OF[workload], seed)
            value = digests[0] if WORKLOADS[workload]["kind"] == "batch" else digests
            if key in pins["outputs"] and pins["outputs"][key] != value:
                raise BenchError(f"{workload} on input set {seed} disagrees with {key}")
            pins["outputs"][key] = value
            pins["traffic"].setdefault(pin_key(args.profile, kind, seed), traffic(inputs))
            print(f"pinned {workload} input set {seed}", flush=True)
    previous = load_pins()
    for section in pins:
        kept = {
            key: value
            for key, value in previous.get(section, {}).items()
            if not key.startswith(f"{args.profile}/")
        }
        pins[section] = dict(sorted({**kept, **pins[section]}.items()))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def traffic(root: Path) -> dict:
    """Days, requests per day, distinct servers and clients of an input set."""
    requests, servers, clients = [], set(), set()
    for day in day_dirs(root):
        count = 0
        with (day / "trace.jsonl").open() as handle:
            for line in handle:
                record = json.loads(line)
                servers.add(record["host"])
                clients.add(record["client"])
                count += 1
        requests.append(count)
    return {
        "days": len(requests),
        "requests_per_day": requests,
        "servers": len(servers),
        "clients": len(clients),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--pin", action="store_true", help="regenerate the pins file")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; the program is not here", file=sys.stderr)
        return 2
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    work = CACHE / "runs" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.pin:
            return pin(args, work)
        return run_workload(args, load_pins(), work)
    except (BenchError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
