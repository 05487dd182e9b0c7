"""Shared definitions of the end-to-end benchmark: workloads, inputs, pins.

Every other file in this directory imports from here, so the workload
table, the input profiles and the digest rules live in one place.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HOOKS = BENCH_DIR / "hooks"
PINS = BENCH_DIR / "pins.json"
#: Generated inputs and per-run scratch state; ignored by git.
CACHE = ROOT / ".perfbench"

#: The measured process and every shard worker it starts run under this
#: hash seed.  Outputs are hash-seed independent by contract; pinning
#: the seed only removes dict/set layout variance from the timings.
HASH_SEED = "0"

#: Environment variable naming the directory shard workers write their
#: own VmHWM into (read by ``hooks/sitecustomize.py``).
WORKER_RSS_ENV = "PERFBENCH_WORKER_RSS_DIR"

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 11

#: ``--seed n`` selects input set ``n % INPUT_SETS``.  Each set is
#: generated once per checkout and its digests are pinned in pins.json,
#: together with the reference outputs of every workload on it.
INPUT_SETS = 3

#: Input profiles.  ``full`` is what the benchmark measures; ``small``
#: (the repo's small_scenario) only backs the self-test.
PROFILES = {
    "full": {
        "day": {"scenario": "data2012day", "scale": 1.0, "days": 1},
        "week": {"scenario": "data2012week", "scale": 0.1, "days": 7},
    },
    "small": {
        "day": {"scenario": "small", "days": 1},
        "week": {"scenario": "small", "days": 7},
    },
}

#: The three closed-loop workloads.  One operation is one batch job
#: (day-batch) or one day advance (week-*); a pass replays the whole
#: input from an empty store, checkpoint and sink file.
WORKLOADS = {
    "day-batch": {"input": "day", "kind": "batch", "thresh": 0.8},
    "week-stream": {
        "input": "week",
        "kind": "stream",
        "window": 2,
        "shards": 1,
        "out_of_core": False,
        "dispatch": "pool",
    },
    "week-outofcore": {
        "input": "week",
        "kind": "stream",
        "window": 2,
        "shards": 2,
        "out_of_core": True,
        "dispatch": "subprocess",
    },
}

#: The stream workloads share one input and must emit byte-identical
#: events, so both are checked against this reference key.
REFERENCE_OF = {
    "day-batch": "day-batch",
    "week-stream": "week",
    "week-outofcore": "week",
}


def input_seed(seed: int) -> int:
    return seed % INPUT_SETS


def input_dir(profile: str, kind: str, seed: int) -> Path:
    spec = PROFILES[profile][kind]
    scale = spec.get("scale")
    tag = f"{spec['scenario']}" + (f"-x{scale}" if scale is not None else "")
    return CACHE / "inputs" / f"{kind}-{tag}-s{seed}"


def day_dirs(root: Path) -> list[Path]:
    return sorted(path for path in root.glob("day-*") if path.is_dir())


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def input_digest(root: Path) -> str:
    """One digest over every file of every day directory of an input set."""
    digest = hashlib.sha256()
    for day in day_dirs(root):
        for path in sorted(day.iterdir()):
            digest.update(f"{day.name}/{path.name}\0".encode())
            digest.update(sha256_file(path).encode())
    return digest.hexdigest()


def pin_key(profile: str, name: str, seed: int) -> str:
    return f"{profile}/{name}/s{seed}"


def load_pins() -> dict:
    if not PINS.is_file():
        return {"inputs": {}, "outputs": {}}
    return json.loads(PINS.read_text())


def vmhwm_kb(status: str = "/proc/self/status") -> int:
    """VmHWM (peak resident set) of a process, from its own status file."""
    with open(status) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM line in {status}")
