"""Benchmark regression gate (``smash bench --check``).

Compares a freshly-run benchmark document against the committed
baselines (``BENCH_mine.json`` / ``BENCH_stream.json``) and fails on
regressions.  The committed baselines were measured on a developer
machine and CI runs on whatever runner it gets, so absolute timings are
never compared — every gated quantity is a *within-run ratio* that
travels across machines:

* mine suite: the interned-vs-legacy ``speedup`` per matching scale, and
  the hard ``identical_output`` flag;
* sharded suite: ``identical_output``, the within-run invariants that
  the most-sharded serial mine's peak RSS and the out-of-core
  coordinator's mine-phase peak both stay at or below the single-pass
  baseline's (the properties the sharded and out-of-core modes exist
  for), the fault-injected chaos twin's mine-time overhead against the
  fault-free row (``sharded.chaos_overhead_bounded``), and — when the
  baseline holds a row at the same scale — peak-RSS growth and
  coordinator-RSS-reduction shrink against it;
* stream suite: the cold-vs-incremental ``speedup`` per matching
  workload, and the checkpoint ``shrink_factor``.

Rows with no matching baseline row (CI benches at smaller scales than
the committed documents) are reported as ``skipped`` rather than
silently dropped.  Thresholds are noise-tolerant by default: a ratio
must fall more than ``tolerance`` (fractionally) below the baseline to
fail, and an RSS bound must grow more than ``rss_tolerance`` above it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: Fractional slack on ratio regressions (speedup, shrink factor).
DEFAULT_TOLERANCE = 0.35

#: Fractional slack on peak-RSS growth bounds.
DEFAULT_RSS_TOLERANCE = 0.25

#: Ceiling on the sharded suite's fault-free-vs-retrying mine-time
#: ratio.  The chaos twin's one map job fails twice (a crashed worker
#: before it loads anything, then a torn spill), so it maps its day twice
#: and starts one more worker: about double the fault-free row's mine
#: time at CI's small scale (1.9-2.1x measured); 3.0 leaves room for runner noise
#: at CI's small bench scales while still catching a retry loop that
#: re-runs the world.  A within-run ratio, valid on any machine.
CHAOS_OVERHEAD_BOUND = 3.0


def _check(
    checks: list[dict[str, Any]],
    problems: list[str],
    name: str,
    ok: bool | None,
    detail: str,
) -> None:
    """Record one comparison; ``ok=None`` means skipped (no baseline row)."""
    status = "skipped" if ok is None else ("ok" if ok else "fail")
    checks.append({"check": name, "status": status, "detail": detail})
    if ok is False:
        problems.append(f"{name}: {detail}")


def compare_mine(
    fresh: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    rss_tolerance: float = DEFAULT_RSS_TOLERANCE,
) -> tuple[list[str], list[dict[str, Any]]]:
    """Problems and per-check records for a mine-suite document pair."""
    problems: list[str] = []
    checks: list[dict[str, Any]] = []

    baseline_rows = {
        row["scale"]: row for row in baseline.get("scales", ()) if "scale" in row
    }
    for row in fresh.get("scales", ()):
        scale = row.get("scale")
        _check(
            checks,
            problems,
            f"mine.identical_output[scale={scale}]",
            row.get("identical_output") is True,
            "interned and legacy cores must produce byte-identical output",
        )
        base_row = baseline_rows.get(scale)
        speedup = row.get("speedup")
        base_speedup = base_row.get("speedup") if base_row else None
        if base_speedup is None or speedup is None:
            _check(
                checks,
                problems,
                f"mine.speedup[scale={scale}]",
                None,
                "no baseline row at this scale",
            )
            continue
        floor = base_speedup * (1.0 - tolerance)
        _check(
            checks,
            problems,
            f"mine.speedup[scale={scale}]",
            speedup >= floor,
            f"fresh {speedup} vs baseline {base_speedup} (floor {round(floor, 3)})",
        )

    sharded = fresh.get("sharded")
    if isinstance(sharded, dict):
        base_sharded = baseline.get("sharded")
        base_sharded = base_sharded if isinstance(base_sharded, dict) else {}
        _check(
            checks,
            problems,
            "sharded.identical_output",
            sharded.get("identical_output") is True,
            "every shard configuration must produce byte-identical output",
        )
        chaos = sharded.get("chaos")
        overhead = chaos.get("overhead_ratio") if isinstance(chaos, dict) else None
        if isinstance(overhead, (int, float)):
            _check(
                checks,
                problems,
                "sharded.chaos_overhead_bounded",
                overhead <= CHAOS_OVERHEAD_BOUND,
                f"fault-injected mine took {overhead}x the fault-free row "
                f"(bound {CHAOS_OVERHEAD_BOUND}x)",
            )
        else:
            _check(
                checks,
                problems,
                "sharded.chaos_overhead_bounded",
                None,
                "no chaos twin row in the fresh document",
            )
        single = sharded.get("baseline_mine_peak_rss_kb")
        most = sharded.get("sharded_mine_peak_rss_kb")
        if isinstance(single, (int, float)) and isinstance(most, (int, float)):
            bound = single * (1.0 + rss_tolerance)
            _check(
                checks,
                problems,
                "sharded.mine_rss_bounded",
                most <= bound,
                f"most-sharded mine peak {most} KB vs single-pass "
                f"{single} KB (bound {round(bound)} KB)",
            )
        ooc = sharded.get("out_of_core_coordinator_peak_rss_kb")
        if isinstance(single, (int, float)) and isinstance(ooc, (int, float)):
            # The out-of-core coordinator never assembles the window
            # trace, so its mine-phase peak must stay at or below the
            # single-pass coordinator's — a within-run invariant, valid
            # on any runner.
            bound = single * (1.0 + rss_tolerance)
            _check(
                checks,
                problems,
                "sharded.out_of_core_rss_bounded",
                ooc <= bound,
                f"out-of-core coordinator peak {ooc} KB vs single-pass "
                f"{single} KB (bound {round(bound)} KB)",
            )
        else:
            _check(
                checks,
                problems,
                "sharded.out_of_core_rss_bounded",
                None,
                "no out-of-core row in the fresh document",
            )
        if base_sharded.get("scale") == sharded.get("scale"):
            base_most = base_sharded.get("sharded_mine_peak_rss_kb")
            if isinstance(most, (int, float)) and isinstance(base_most, (int, float)):
                bound = base_most * (1.0 + rss_tolerance)
                _check(
                    checks,
                    problems,
                    "sharded.mine_rss_growth",
                    most <= bound,
                    f"fresh mine peak {most} KB vs baseline {base_most} KB "
                    f"(bound {round(bound)} KB)",
                )
            reduction = sharded.get("coordinator_rss_reduction")
            base_reduction = base_sharded.get("coordinator_rss_reduction")
            if isinstance(reduction, (int, float)) and isinstance(
                base_reduction, (int, float)
            ):
                floor = base_reduction * (1.0 - tolerance)
                _check(
                    checks,
                    problems,
                    "sharded.coordinator_rss_shrink",
                    reduction >= floor,
                    f"fresh coordinator RSS reduction {reduction}x vs baseline "
                    f"{base_reduction}x (floor {round(floor, 3)}x)",
                )
        else:
            _check(
                checks,
                problems,
                "sharded.mine_rss_growth",
                None,
                "no baseline sharded row at this scale",
            )
            _check(
                checks,
                problems,
                "sharded.coordinator_rss_shrink",
                None,
                "no baseline sharded row at this scale",
            )
    return problems, checks


def compare_stream(
    fresh: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[str], list[dict[str, Any]]]:
    """Problems and per-check records for a stream-suite document pair."""
    problems: list[str] = []
    checks: list[dict[str, Any]] = []

    base_workloads = baseline.get("workloads")
    base_workloads = base_workloads if isinstance(base_workloads, dict) else {}
    workloads = fresh.get("workloads")
    workloads = workloads if isinstance(workloads, dict) else {}
    for name in sorted(workloads):
        speedup = workloads[name].get("speedup")
        base_speedup = base_workloads.get(name, {}).get("speedup")
        if speedup is None or base_speedup is None:
            _check(
                checks,
                problems,
                f"stream.speedup[{name}]",
                None,
                "no comparable baseline workload",
            )
            continue
        floor = base_speedup * (1.0 - tolerance)
        _check(
            checks,
            problems,
            f"stream.speedup[{name}]",
            speedup >= floor,
            f"fresh {speedup} vs baseline {base_speedup} (floor {round(floor, 3)})",
        )

    shrink = fresh.get("checkpoint", {}).get("shrink_factor")
    base_shrink = baseline.get("checkpoint", {}).get("shrink_factor")
    if shrink is None or base_shrink is None:
        _check(
            checks, problems, "stream.checkpoint_shrink", None, "no baseline value"
        )
    else:
        floor = base_shrink * (1.0 - tolerance)
        _check(
            checks,
            problems,
            "stream.checkpoint_shrink",
            shrink >= floor,
            f"fresh {shrink} vs baseline {base_shrink} (floor {round(floor, 3)})",
        )
    return problems, checks


def _suite_of(document: dict[str, Any]) -> str:
    """``mine`` or ``stream``, from the document's own shape."""
    if "workloads" in document or document.get("benchmark") == "repro.stream":
        return "stream"
    return "mine"


def baseline_name(document: dict[str, Any]) -> str:
    """The committed baseline filename a fresh document compares against."""
    return "BENCH_stream.json" if _suite_of(document) == "stream" else "BENCH_mine.json"


def run_check(
    fresh_paths: list[Path],
    baseline_dir: Path,
    tolerance: float = DEFAULT_TOLERANCE,
    rss_tolerance: float = DEFAULT_RSS_TOLERANCE,
    report_path: Path | None = None,
) -> int:
    """Compare fresh documents against committed baselines; 0 = green.

    Writes a machine-readable comparison report to *report_path* (kept
    apart from the benchmark documents so a CI check never dirties the
    working tree) and prints a one-line verdict per check.
    """
    suites: list[dict[str, Any]] = []
    all_problems: list[str] = []
    for path in fresh_paths:
        fresh = json.loads(Path(path).read_text())
        base_path = baseline_dir / baseline_name(fresh)
        if not base_path.exists():
            all_problems.append(f"missing committed baseline {base_path}")
            suites.append(
                {
                    "fresh": str(path),
                    "baseline": str(base_path),
                    "problems": [f"missing committed baseline {base_path}"],
                    "checks": [],
                }
            )
            continue
        baseline = json.loads(base_path.read_text())
        if _suite_of(fresh) == "stream":
            problems, checks = compare_stream(fresh, baseline, tolerance)
        else:
            problems, checks = compare_mine(fresh, baseline, tolerance, rss_tolerance)
        all_problems.extend(problems)
        suites.append(
            {
                "fresh": str(path),
                "baseline": str(base_path),
                "problems": problems,
                "checks": checks,
            }
        )

    report = {
        "ok": not all_problems,
        "tolerance": tolerance,
        "rss_tolerance": rss_tolerance,
        "suites": suites,
    }
    if report_path is not None:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    for suite in suites:
        for check in suite["checks"]:
            print(f"check {check['status']:>7}  {check['check']}: {check['detail']}")
    if all_problems:
        print(f"bench check FAILED ({len(all_problems)} problem(s)):")
        for problem in all_problems:
            print(f"  - {problem}")
    else:
        print("bench check passed")
    if report_path is not None:
        print(f"check report -> {report_path}")
    return 1 if all_problems else 0
