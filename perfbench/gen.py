"""Generate one benchmark input set from ``repro.synth``.

    python3 perfbench/gen.py --profile full --kind week --seed 3 --out DIR

Writes ``DIR/day-NN/{trace.jsonl,whois.json,redirects.json}``, the
layout ``smash generate`` emits and ``smash stream --day-dirs`` reads.
It runs in its own process before any measured run, so generation cost
and memory never reach a measurement.  The directory is written under a
temporary name and renamed into place when complete.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from common import PROFILES, SRC

sys.path.insert(0, str(SRC))

from repro.httplog.loader import write_jsonl  # noqa: E402
from repro.stream.window import redirects_to_dict, whois_to_list  # noqa: E402
from repro.synth.generator import TraceGenerator  # noqa: E402
from repro.synth.scenarios import data2012day, data2012week, small_scenario  # noqa: E402

_FACTORIES = {"data2012day": data2012day, "data2012week": data2012week}


def scenario_spec(profile: str, kind: str, seed: int):
    spec = PROFILES[profile][kind]
    if spec["scenario"] == "small":
        return small_scenario(seed=seed, days=spec["days"])
    return _FACTORIES[spec["scenario"]](scale=spec["scale"], seed=seed)


def generate(profile: str, kind: str, seed: int, out: Path) -> None:
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    generator = TraceGenerator(scenario_spec(profile, kind, seed))
    for dataset in generator.iter_days():
        day = tmp / f"day-{dataset.day:02d}"
        day.mkdir(parents=True)
        write_jsonl(dataset.trace, day / "trace.jsonl")
        (day / "whois.json").write_text(json.dumps(whois_to_list(dataset.whois), indent=1) + "\n")
        (day / "redirects.json").write_text(
            json.dumps(redirects_to_dict(dataset.redirects), indent=1) + "\n"
        )
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--kind", choices=["day", "week"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.profile, args.kind, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
