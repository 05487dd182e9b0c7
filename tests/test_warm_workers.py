"""Warm subprocess shard workers (:mod:`repro.core.dispatch`).

``dispatch="subprocess"`` keeps its ``python -m repro.core.shardworker``
interpreters alive between shard jobs and between the mines of one
pipeline.  The contract pinned here: one start serves a whole stream, a
failed worker is replaced by exactly one fresh interpreter, building a
pipeline or engine starts nothing, ``close()`` ends every worker with a
normal exit, and output a job writes to stdout cannot corrupt a reply.
Outputs stay byte-identical to in-memory mining throughout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.config import SmashConfig
from repro.core.dispatch import SubprocessDispatcher
from repro.core.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.core.pipeline import SmashPipeline
from repro.errors import StreamError, WorkerError
from repro.eval.export import result_to_dict
from repro.obs import MetricsRegistry
from repro.stream import StreamingSmash
from repro.stream.alerts import ListSink
from repro.stream.store import PartialStore
from repro.synth.generator import TraceGenerator
from repro.synth.scenarios import small_scenario

STARTED = "smash_shard_workers_started_total"

#: A ``sitecustomize`` that makes every shard job in a worker write to
#: stdout, through ``print`` and straight to file descriptor 1, and
#: leave a line in ``$NOISE_MARKER`` to prove it ran.
NOISY_HOOK = """\
import os
import sys

import repro.core.shardmine as shardmine

_run_shard_job = shardmine.run_shard_job


def _noisy(spec):
    print("print() from a shard job")
    sys.stdout.flush()
    os.write(1, b"raw bytes on fd 1 from a shard job\\n")
    with open(os.environ["NOISE_MARKER"], "a") as handle:
        handle.write("job\\n")
    return _run_shard_job(spec)


shardmine.run_shard_job = _noisy
"""


@pytest.fixture(scope="module")
def four_days():
    return list(TraceGenerator(small_scenario(seed=7, days=4)).iter_days())


@pytest.fixture
def started(monkeypatch) -> list[subprocess.Popen]:
    """Every process the dispatcher starts, in start order."""
    import repro.core.dispatch as dispatch_module

    processes: list[subprocess.Popen] = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        process = popen(*args, **kwargs)
        processes.append(process)
        return process

    monkeypatch.setattr(dispatch_module.subprocess, "Popen", recording_popen)
    return processes


def _total(registry: MetricsRegistry, name: str) -> int:
    family = registry.get(name)
    return 0 if family is None else int(sum(child.value for _, child in family.samples()))


def _doc(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def _stream(days, **kwargs):
    """Campaign docs per day and every event of a window-2 stream."""
    engine = StreamingSmash(window_size=2, sinks=(ListSink(),), **kwargs)
    try:
        docs = [_doc(engine.ingest_dataset(day).result) for day in days]
    finally:
        engine.close()
    return docs, [event.to_dict() for event in engine.sinks[0].events]


def _subprocess_config(**kwargs) -> SmashConfig:
    return SmashConfig().replace(shards=2, dispatch="subprocess", **kwargs)


def _spill_job(trace, root) -> dict:
    """A shard-0 job spec over *trace*, spilled under *root*."""
    spill = PartialStore(root)
    digest, _ = spill.put("input-0000", {"columns": trace.columns})
    return {
        "shard": 0,
        "aggregate": True,
        "want_patterns": False,
        "want_windows": False,
        "want_referrers": False,
        "window_seconds": 600.0,
        "spill_root": str(root),
        "source": {
            "kind": "spill",
            "root": str(root),
            "name": "input-0000",
            "digest": digest,
            "trace_name": "t",
        },
    }


class TestReuse:
    def test_stream_starts_one_worker_for_every_shard_job(self, four_days, tmp_path, started):
        expected = _stream(four_days)
        registry = MetricsRegistry()
        got = _stream(
            four_days,
            config=_subprocess_config(workers=1, out_of_core=True, metrics=registry),
            store_dir=tmp_path / "store",
        )
        assert got == expected
        assert len(registry.spans_named("pipeline.mine.shard_index")) == 8
        assert _total(registry, STARTED) == 1
        assert len(started) == 1

    def test_crashed_worker_is_replaced_once(self, four_days, started):
        day = four_days[0]
        clean = SmashPipeline().run(day.trace, whois=day.whois, redirects=day.redirects)
        registry = MetricsRegistry()
        plan = FaultPlan((FaultSpec(shard=0, kind="crash_before_spill", attempt=1),))
        config = _subprocess_config(workers=1, fault_plan=plan, metrics=registry)
        with SmashPipeline(config) as pipeline:
            result = pipeline.run(day.trace, whois=day.whois, redirects=day.redirects)
        assert _doc(result) == _doc(clean)
        assert _total(registry, "smash_shard_worker_failures_total") == 1
        # The first start plus one replacement, which then ran both jobs.
        assert _total(registry, STARTED) == 2
        assert [process.returncode for process in started] == [81, 0]

    def test_job_output_on_stdout_does_not_corrupt_the_reply(
        self, four_days, tmp_path, monkeypatch, started
    ):
        hook = tmp_path / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(NOISY_HOOK)
        marker = tmp_path / "jobs.txt"
        path = [str(hook), *filter(None, [os.environ.get("PYTHONPATH")])]
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(path))
        monkeypatch.setenv("NOISE_MARKER", str(marker))
        day = four_days[0]
        clean = SmashPipeline().run(day.trace, whois=day.whois, redirects=day.redirects)
        registry = MetricsRegistry()
        with SmashPipeline(_subprocess_config(workers=1, metrics=registry)) as pipeline:
            result = pipeline.run(day.trace, whois=day.whois, redirects=day.redirects)
        assert marker.read_text() == "job\n" * 2
        assert _doc(result) == _doc(clean)
        assert _total(registry, "smash_shard_worker_failures_total") == 0
        assert _total(registry, STARTED) == 1
        assert [process.returncode for process in started] == [0]


class TestConcurrentAttempts:
    def test_every_start_is_counted_and_every_worker_closed(self, four_days, tmp_path, started):
        # More workers than cores and a tiny switch interval: attempts on
        # pool threads share the idle set and the start counter.
        job = _spill_job(four_days[0].trace, tmp_path / "spill")
        specs = [{**job, "shard": shard} for shard in range(8)]
        registry = MetricsRegistry()
        dispatcher = SubprocessDispatcher(
            workers=4, policy=RetryPolicy(timeout=120.0), recorder=registry
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = dispatcher.run(specs)
        finally:
            sys.setswitchinterval(interval)
            dispatcher.close()
        assert [result["shard"] for result in results] == list(range(8))
        assert 1 <= len(started) <= 4
        assert _total(registry, STARTED) == len(started)
        assert [process.returncode for process in started] == [0] * len(started)


class TestFailedWorkers:
    @pytest.mark.parametrize(
        "kind, error, message, status",
        [
            # No reply: the stderr file's tail names the cause.
            (
                "crash_before_spill",
                WorkerError,
                r"shard 0 worker exited with 81: .*injected fault: shard 0 crash_before_spill",
                81,
            ),
            # A structured error reply; the worker itself exits cleanly.
            ("stream_error", StreamError, r"injected transient StreamError", 0),
        ],
    )
    def test_failed_worker_is_ended_and_replaced(
        self, four_days, tmp_path, started, kind, error, message, status
    ):
        job = _spill_job(four_days[0].trace, tmp_path / "spill")
        dispatcher = SubprocessDispatcher(workers=1)
        try:
            with pytest.raises(error, match=message):
                dispatcher._run_one({**job, "fault": {"shard": 0, "kind": kind}})
            assert [process.returncode for process in started] == [status]
            result = dispatcher._run_one(job)
            PartialStore(tmp_path / "spill").verify(result["name"], result["digest"])
            assert len(started) == 2
        finally:
            dispatcher.close()
        assert [process.returncode for process in started] == [status, 0]


class TestLifetime:
    def test_building_starts_no_process(self, tmp_path, started):
        config = _subprocess_config(out_of_core=True)
        SmashPipeline(config)
        StreamingSmash(window_size=2, config=config, store_dir=tmp_path / "store")
        assert started == []

    def test_close_ends_every_worker_normally(self, four_days, started):
        day = four_days[0]

        def herds(pipeline):
            mined = pipeline.mine(day.trace, whois=day.whois)
            return mined.main, mined.secondary

        pipeline = SmashPipeline(_subprocess_config(workers=2))
        first = herds(pipeline)
        assert len(started) == 2
        assert all(process.poll() is None for process in started)
        # A second mine reuses the warm pair.
        assert herds(pipeline) == first
        assert len(started) == 2
        pipeline.close()
        assert [process.returncode for process in started] == [0, 0]
        pipeline.close()
        assert [process.returncode for process in started] == [0, 0]
        # A closed pipeline stays usable; its next mine starts afresh.
        assert herds(pipeline) == first
        assert len(started) == 4
        pipeline.close()
        assert [process.returncode for process in started] == [0] * 4

    def test_with_block_closes_the_workers(self, four_days, started):
        day = four_days[0]
        with SmashPipeline(_subprocess_config(workers=1)) as pipeline:
            pipeline.mine(day.trace, whois=day.whois)
            assert [process.poll() for process in started] == [None]
        assert [process.returncode for process in started] == [0]

    def test_engine_close_ends_the_workers(self, four_days, tmp_path, started):
        _stream(
            four_days[:2],
            config=_subprocess_config(workers=1, out_of_core=True),
            store_dir=tmp_path / "store",
        )
        assert [process.returncode for process in started] == [0]
