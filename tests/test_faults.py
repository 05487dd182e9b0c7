"""Fault injection, retry policy, and chaos recovery (repro.core.faults).

The deterministic fault layer's contract: under an explicit
:class:`FaultPlan`, every dispatcher retries retryable failures on fresh
spill names, quarantines the failed bytes with a reason file, reassigns
exhausted shards inline, and — the acceptance criterion — produces
output byte-identical to the fault-free single-pass mine.  Fatal errors
(corrupt source partitions) must fail fast instead.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys

from pathlib import Path

import pytest

from repro.config import SmashConfig
from repro.core.dispatch import ShardDispatcher, SubprocessDispatcher
from repro.core.faults import (
    FAULT_KINDS,
    RECOVERABLE_KINDS,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ShardRetriesExhaustedError,
    attempt_spec,
    failure_label,
    is_retryable,
    rebuild_error,
    run_with_retry,
    transient,
)
from repro.core.pipeline import SmashPipeline
from repro.errors import (
    ConfigError,
    PipelineError,
    ShardTimeoutError,
    StreamError,
    WorkerError,
)
from repro.eval.export import result_to_dict
from repro.obs import MetricsRegistry
from repro.stream.store import PartialStore
from repro.synth.generator import TraceGenerator
from repro.synth.scenarios import small_scenario

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def dataset():
    return TraceGenerator(small_scenario(seed=7)).generate_day(0)


@pytest.fixture(scope="module")
def clean_doc(dataset):
    result = SmashPipeline(SmashConfig()).run(
        dataset.trace, whois=dataset.whois, redirects=dataset.redirects
    )
    return json.dumps(result_to_dict(result), sort_keys=True)


def result_doc(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    family = registry.get(name)
    if family is None:
        return 0.0
    return sum(child.value for _, child in family.samples())


# -- the plan -----------------------------------------------------------------------


class TestFaultPlan:
    def test_roundtrips_through_json(self):
        plan = FaultPlan(
            (
                FaultSpec(shard=0, kind="crash_before_spill", attempt=1),
                FaultSpec(shard=2, kind="hang", attempt=None, seconds=9.0),
            )
        )
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan

    def test_fault_for_matches_attempt_or_always(self):
        plan = FaultPlan(
            (
                FaultSpec(shard=0, kind="stream_error", attempt=2),
                FaultSpec(shard=1, kind="corrupt_source", attempt=None),
            )
        )
        assert plan.fault_for(0, 1) is None
        assert plan.fault_for(0, 2).kind == "stream_error"
        # attempt=None models a persistent fault: it fires every time.
        assert plan.fault_for(1, 1).kind == "corrupt_source"
        assert plan.fault_for(1, 5).kind == "corrupt_source"
        assert plan.fault_for(2, 1) is None

    def test_first_matching_trigger_wins(self):
        plan = FaultPlan(
            (
                FaultSpec(shard=0, kind="stream_error", attempt=1),
                FaultSpec(shard=0, kind="corrupt_source", attempt=None),
            )
        )
        assert plan.fault_for(0, 1).kind == "stream_error"

    def test_generate_covers_all_kinds_deterministically(self):
        plan = FaultPlan.generate(3)
        assert [fault.kind for fault in plan.faults] == list(RECOVERABLE_KINDS)
        assert [(fault.shard, fault.attempt) for fault in plan.faults] == [
            (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2),
        ]
        assert FaultPlan.generate(3) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultSpec(shard=0, kind="meteor_strike")

    def test_load_from_file_and_bad_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(FaultPlan.generate(2).to_dict()))
        assert FaultPlan.load(path) == FaultPlan.generate(2)
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot load fault plan"):
            FaultPlan.load(path)

    def test_config_validates_retry_fields(self):
        with pytest.raises(ConfigError, match="shard_retries"):
            SmashConfig().replace(shard_retries=-1).validate()
        with pytest.raises(ConfigError, match="shard_timeout"):
            SmashConfig().replace(shard_timeout=0.0).validate()
        # fault_plan is an execution strategy: excluded from equality.
        assert SmashConfig() == SmashConfig().replace(fault_plan=FaultPlan.generate(1))


# -- retry policy and classification ------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert [policy.backoff(n) for n in (1, 2, 3, 4, 9)] == [
            0.1, 0.2, 0.4, 0.5, 0.5,
        ]

    def test_from_config_maps_retries_to_attempts(self):
        policy = RetryPolicy.from_config(
            SmashConfig().replace(shard_retries=4, shard_timeout=33.0)
        )
        assert policy.max_attempts == 5
        assert policy.timeout == 33.0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(timeout=0.0)


class TestClassification:
    def test_worker_errors_always_retryable(self):
        assert is_retryable(WorkerError("boom"))
        assert is_retryable(ShardTimeoutError("slow"))

    def test_stream_errors_retryable_only_when_marked(self):
        assert not is_retryable(StreamError("corrupt partition"))
        assert is_retryable(transient(StreamError("flaky mount")))
        assert not is_retryable(PipelineError("bad spec"))

    def test_failure_labels(self):
        assert failure_label(ShardTimeoutError("t")) == "timeout"
        assert failure_label(WorkerError("w")) == "crash"
        assert failure_label(StreamError("s")) == "stream_error"
        assert failure_label(PipelineError("p")) == "error"

    def test_rebuild_error_restores_type_and_retryable(self):
        error = rebuild_error("ShardTimeoutError", "late")
        assert isinstance(error, ShardTimeoutError)
        rebuilt = rebuild_error("StreamError", "torn", retryable=True)
        assert isinstance(rebuilt, StreamError) and is_retryable(rebuilt)
        assert isinstance(rebuild_error("Weird", "x"), PipelineError)


# -- attempt specs ------------------------------------------------------------------


class TestAttemptSpec:
    def test_fresh_spill_name_per_retry(self):
        spec = {"shard": 3, "spill_root": "/tmp/x"}
        assert attempt_spec(spec, 1, None)["spill_name"] == "index-0003"
        assert attempt_spec(spec, 2, None)["spill_name"] == "index-0003.r2"

    def test_fault_embedded_only_when_plan_matches(self):
        plan = FaultPlan((FaultSpec(shard=3, kind="stream_error", attempt=2),))
        spec = {"shard": 3, "spill_root": "/tmp/x", "fault": {"kind": "stale"}}
        # A stale fault from a previous attempt never leaks through.
        assert "fault" not in attempt_spec(spec, 1, plan)
        assert attempt_spec(spec, 2, plan)["fault"]["kind"] == "stream_error"


# -- the retry loop (unit, with fake jobs) ------------------------------------------


def _fake_job(spill_root):
    """An attempt_call that spills honestly — the success case."""

    def call(spec):
        spill = PartialStore(spill_root)
        digest, _ = spill.put(spec["spill_name"], {"ok": True})
        return {"shard": spec["shard"], "name": spec["spill_name"], "digest": digest}

    return call


class TestRunWithRetry:
    def test_first_attempt_success(self, tmp_path):
        spec = {"shard": 0, "spill_root": str(tmp_path / "spill")}
        result = run_with_retry(spec, _fake_job(spec["spill_root"]), RetryPolicy())
        assert result["attempts"] == 1 and result["failures"] == []

    def test_retries_then_succeeds_with_quarantine(self, tmp_path):
        spill_root = str(tmp_path / "spill")
        attempts = []

        def flaky(spec):
            attempts.append(spec["spill_name"])
            if len(attempts) < 3:
                raise transient(StreamError(f"flaky on {spec['spill_name']}"))
            return _fake_job(spill_root)(spec)

        spec = {"shard": 1, "spill_root": spill_root}
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_cap=0.0)
        result = run_with_retry(spec, flaky, policy)
        # Fresh spill name per attempt: a dead attempt can never shadow
        # a later good one.
        assert attempts == ["index-0001", "index-0001.r2", "index-0001.r3"]
        assert result["attempts"] == 3
        assert [entry["label"] for entry in result["failures"]] == [
            "stream_error", "stream_error",
        ]
        quarantine = PartialStore.quarantine_root(Path(spill_root))
        reasons = sorted(quarantine.glob("*/REASON.json"))
        assert len(reasons) == 2
        reason = json.loads(reasons[0].read_text())
        assert reason["shard"] == 1 and reason["retryable"] is True

    def test_fatal_error_propagates_immediately(self, tmp_path):
        calls = []

        def fatal(spec):
            calls.append(spec["spill_name"])
            raise StreamError("corrupt partition in store")

        spec = {"shard": 0, "spill_root": str(tmp_path / "spill")}
        with pytest.raises(StreamError, match="corrupt partition") as info:
            run_with_retry(spec, fatal, RetryPolicy(max_attempts=5))
        assert calls == ["index-0000"]  # no retry burned on a data error
        assert len(info.value.shard_failures) == 1

    def test_exhaustion_raises_with_history(self, tmp_path):
        def always_crash(spec):
            raise WorkerError("worker died")

        spec = {"shard": 2, "spill_root": str(tmp_path / "spill")}
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)
        with pytest.raises(ShardRetriesExhaustedError, match="shard 2 failed 2"):
            run_with_retry(spec, always_crash, policy)

    def test_exhausted_error_pickles(self):
        error = ShardRetriesExhaustedError(4, [{"attempt": 1, "message": "boom"}])
        clone = pickle.loads(pickle.dumps(error))
        assert clone.shard == 4 and clone.failures == error.failures

    def test_digest_verification_gates_success(self, tmp_path):
        # A worker that reports a digest its spilled bytes don't match
        # (torn write, vanished file) fails the attempt even though the
        # job itself "succeeded".
        spill_root = str(tmp_path / "spill")

        def liar(spec):
            spill = PartialStore(spill_root)
            digest, _ = spill.put(spec["spill_name"], {"ok": True})
            spill.path_of(spec["spill_name"]).write_bytes(b"torn")
            return {"shard": 0, "name": spec["spill_name"], "digest": digest}

        spec = {"shard": 0, "spill_root": spill_root}
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)
        with pytest.raises(ShardRetriesExhaustedError) as info:
            run_with_retry(spec, liar, policy)
        assert all(
            entry["label"] == "stream_error" for entry in info.value.failures
        )
        # The torn bytes were preserved as evidence, not deleted.
        quarantine = PartialStore.quarantine_root(Path(spill_root))
        assert sorted(path.name for path in quarantine.glob("*/*.json")) == [
            "REASON.json",
            "REASON.json",
            "index-0000.json",
            "index-0000.r2.json",
        ]


class TestPartialStoreDiagnostics:
    def test_mismatch_message_names_path_and_both_digests(self, tmp_path):
        store = PartialStore(tmp_path / "spill")
        digest, _ = store.put("index-0000", {"ok": True})
        store.path_of("index-0000").write_bytes(b"torn")
        with pytest.raises(StreamError) as info:
            store.verify("index-0000", digest)
        message = str(info.value)
        # Full digests and the exact path: enough to diff the bytes by
        # hand without re-running anything.
        assert str(store.path_of("index-0000")) in message
        assert digest in message
        import hashlib

        assert hashlib.sha256(b"torn").hexdigest() in message
        assert is_retryable(info.value)

    def test_missing_partial_is_retryable(self, tmp_path):
        store = PartialStore(tmp_path / "spill")
        with pytest.raises(StreamError, match="missing spilled partial") as info:
            store.verify("index-0007", "0" * 64)
        assert is_retryable(info.value)


# -- dispatcher-level behaviour -----------------------------------------------------


class _FakeBatchDispatcher(ShardDispatcher):
    """Feed canned outcomes through the shared run() interpretation."""

    def __init__(self, outcomes):
        super().__init__()
        self._outcomes = outcomes

    def _run_batch(self, specs):
        return self._outcomes


class TestDispatcherRun:
    def test_lowest_shard_error_wins_deterministically(self):
        # Satellite fix: whatever order the batch fails in, the raised
        # error is the lowest-numbered shard's.
        outcomes = [
            {"error": {"kind": "StreamError", "message": "shard 5 bad"}, "shard": 5},
            {"cancelled": True},
            {"error": {"kind": "StreamError", "message": "shard 1 bad"}, "shard": 1},
        ]
        specs = [{"shard": 5}, {"shard": 3}, {"shard": 1}]
        with pytest.raises(StreamError, match="shard 1 bad"):
            _FakeBatchDispatcher(outcomes).run(specs)

    def test_ok_outcomes_in_spec_order(self):
        outcomes = [{"ok": {"shard": 0, "attempts": 1}}, {"ok": {"shard": 1, "attempts": 1}}]
        results = _FakeBatchDispatcher(outcomes).run([{"shard": 0}, {"shard": 1}])
        assert [r["shard"] for r in results] == [0, 1]

    def test_timeout_expired_translates_to_shard_timeout_error(
        self, monkeypatch, dataset, tmp_path
    ):
        # A real worker held past the policy's timeout by a `hang` fault:
        # the error names the shard and the configured budget and is
        # retryable (a PipelineError subclass), the hung interpreter is
        # killed, and the next job runs in a new one.
        import repro.core.dispatch as dispatch_module

        started: list[subprocess.Popen] = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(dispatch_module.subprocess, "Popen", recording_popen)
        spill = PartialStore(tmp_path / "spill")
        digest, _ = spill.put("input-0000", {"columns": dataset.trace.columns})
        job = {
            "shard": 9,
            "aggregate": True,
            "want_patterns": False,
            "want_windows": False,
            "want_referrers": False,
            "window_seconds": 600.0,
            "spill_root": str(spill.root),
            "source": {
                "kind": "spill",
                "root": str(spill.root),
                "name": "input-0000",
                "digest": digest,
                "trace_name": "t",
            },
        }
        hang = {"shard": 9, "kind": "hang", "seconds": 60.0}
        dispatcher = SubprocessDispatcher(workers=1, policy=RetryPolicy(timeout=1.0))
        try:
            with pytest.raises(ShardTimeoutError, match=r"shard 9 .*1s.*shard_timeout"):
                dispatcher._run_one({**job, "fault": hang})
            assert len(started) == 1
            assert started[0].returncode == -signal.SIGKILL
            with pytest.raises(ProcessLookupError):
                os.kill(started[0].pid, 0)
            result = dispatcher._run_one(job)
            assert len(started) == 2
            spill.verify(result["name"], result["digest"])
        finally:
            dispatcher.close()
        assert started[1].returncode == 0
        assert issubclass(ShardTimeoutError, PipelineError)

    def test_subprocess_ctor_backwards_compatible(self):
        # PR 9 call sites construct SubprocessDispatcher(workers=N) with
        # no policy/plan/recorder; defaults must keep that working.
        dispatcher = SubprocessDispatcher(workers=1)
        assert dispatcher.policy.max_attempts == 3
        dispatcher.close()


# -- end-to-end recovery (in-process dispatchers) -----------------------------------


class TestChaosRecovery:
    @staticmethod
    def _mine(dataset, config):
        return SmashPipeline(config).run(
            dataset.trace, whois=dataset.whois, redirects=dataset.redirects
        )

    @pytest.mark.parametrize("dispatch", ["serial", "pool"])
    def test_all_six_kinds_recover_byte_identical(
        self, dataset, clean_doc, dispatch
    ):
        registry = MetricsRegistry()
        config = SmashConfig().replace(
            shards=3,
            dispatch=dispatch,
            fault_plan=FaultPlan.generate(3),
            metrics=registry,
        )
        result = self._mine(dataset, config)
        assert result_doc(result) == clean_doc
        assert _counter_total(registry, "smash_shard_worker_failures_total") == 6
        assert _counter_total(registry, "smash_shard_retries_total") == 6

    def test_exhausted_shard_reassigned_inline(self, dataset, clean_doc):
        # A persistent crash exhausts the budget; the coordinator then
        # absorbs the job inline (fault-free) and the mine still lands
        # on the identical bytes — graceful degradation, not failure.
        registry = MetricsRegistry()
        config = SmashConfig().replace(
            shards=3,
            dispatch="serial",
            shard_retries=1,
            fault_plan=FaultPlan((FaultSpec(shard=1, kind="crash_before_spill"),)),
            metrics=registry,
        )
        result = self._mine(dataset, config)
        assert result_doc(result) == clean_doc
        assert _counter_total(registry, "smash_shard_reassigned_total") == 1
        assert _counter_total(registry, "smash_shard_worker_failures_total") == 2

    def test_fatal_corrupt_source_fails_fast_with_quarantine(
        self, dataset, tmp_path
    ):
        config = SmashConfig().replace(
            shards=3,
            dispatch="serial",
            fault_plan=FaultPlan((FaultSpec(shard=0, kind="corrupt_source"),)),
        )
        with pytest.raises(StreamError, match="injected corrupt source"):
            SmashPipeline(config).mine(
                dataset.trace, whois=dataset.whois, spill_dir=tmp_path
            )
        # The failed attempt left a quarantine entry with its reason —
        # surviving the mine's own spill cleanup.
        reasons = list(tmp_path.glob("mine-*.quarantine/*/REASON.json"))
        assert len(reasons) == 1
        reason = json.loads(reasons[0].read_text())
        assert reason["fault"]["kind"] == "corrupt_source"
        assert reason["retryable"] is False
        # ...but the spill roots themselves were cleaned up as usual.
        assert [p for p in tmp_path.glob("mine-*") if not p.name.endswith(".quarantine")] == []

    def test_per_attempt_spans_recorded(self, dataset):
        registry = MetricsRegistry()
        config = SmashConfig().replace(
            shards=2,
            dispatch="serial",
            fault_plan=FaultPlan((FaultSpec(shard=0, kind="stream_error", attempt=1),)),
            metrics=registry,
        )
        self._mine(dataset, config)
        spans = registry.spans_named("pipeline.mine.shard_attempt")
        kinds = sorted(span.attributes["kind"] for span in spans)
        assert kinds == ["ok", "ok", "stream_error"]

    def test_engine_accepts_fault_overrides(self):
        from repro.stream import StreamingSmash

        plan = FaultPlan.generate(2)
        engine = StreamingSmash(shard_retries=5, shard_timeout=12.0, fault_plan=plan)
        assert engine.config.shard_retries == 5
        assert engine.config.shard_timeout == 12.0
        assert engine.config.fault_plan is plan
        engine.close()


# -- the chaos CLI ------------------------------------------------------------------


class TestChaosCli:
    def test_in_process_chaos_serial(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        report = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--dispatch",
                "serial",
                "--shards",
                "2",
                "--kinds",
                "stream_error,crash_before_spill",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["identical"] is True
        assert doc["chaos_digest"] == doc["clean_digest"]
        assert doc["worker_failures"] == 2 and doc["retries"] == 2

    def test_fatal_plan_exits_nonzero(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        plan_path = tmp_path / "fatal.json"
        plan_path.write_text(
            json.dumps({"faults": [{"shard": 0, "kind": "corrupt_source"}]})
        )
        report = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--dispatch",
                "serial",
                "--shards",
                "2",
                "--fault-plan",
                str(plan_path),
                "--report",
                str(report),
            ]
        )
        assert code == 1
        doc = json.loads(report.read_text())
        assert doc["identical"] is False
        assert "StreamError" in doc["error"]


# -- acceptance matrix: subprocess dispatch, shards 1/2/7, two hash seeds -----------
#
# In-process tests cannot vary PYTHONHASHSEED, so the acceptance
# criterion — recovery from all six fault kinds stays byte-identical to
# the fault-free single-pass mine under any hash seed — runs `repro
# chaos` in pinned fresh interpreters, mirroring test_shardmine.py.

CHAOS_MATRIX = ((1, 1), (2, 2), (7, 1))  # (shards, PYTHONHASHSEED)


def test_chaos_subprocess_matrix_is_seed_invariant(tmp_path: Path) -> None:
    digests = set()
    for shards, hash_seed in CHAOS_MATRIX:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        report = tmp_path / f"chaos_{shards}_{hash_seed}.json"
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "chaos",
                "--dispatch",
                "subprocess",
                "--shards",
                str(shards),
                "--shard-timeout",
                "10",
                "--report",
                str(report),
            ],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, (
            f"chaos run (shards={shards}, seed={hash_seed}) failed:\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
        doc = json.loads(report.read_text())
        assert doc["identical"] is True
        assert doc["worker_failures"] > 0, "the plan must actually have fired"
        assert len(doc["plan"]["faults"]) == len(FAULT_KINDS) - 1  # all recoverable
        digests.add(doc["clean_digest"])
        digests.add(doc["chaos_digest"])
    # One digest across every shard count and hash seed: the recovered
    # sharded mines and the fault-free single-pass mines all agree.
    assert len(digests) == 1
