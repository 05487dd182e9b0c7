"""Dispatch seam for the sharded mine's map phase.

The coordinator in :mod:`repro.core.shardmine` describes each map job as
a small JSON-compatible *spec* (shard number, input source, output spill
root — see :func:`~repro.core.shardmine.run_shard_job`) and hands the
batch to a :class:`ShardDispatcher`.  Where and how the jobs execute is
the dispatcher's business alone:

* :class:`SerialDispatcher` — a plain loop in the coordinator process;
* :class:`PoolDispatcher` — the mine's shared
  :class:`~repro.util.parallel.JobPool` (thread or process executor),
  the PR 7 behaviour;
* :class:`SubprocessDispatcher` — warm ``python -m
  repro.core.shardworker`` interpreters, one JSON spec line in and one
  JSON reply line out per job.  The first job starts a worker and later
  jobs reuse it; a :class:`~repro.core.pipeline.SmashPipeline` keeps its
  workers (:class:`ShardWorkers`) across mines until its ``close()``, so
  a stream pays one interpreter start, not one per shard per day.

Every dispatcher is retry-aware: each shard job runs under a
:class:`~repro.core.faults.RetryPolicy` via
:func:`~repro.core.faults.run_job_outcome`, so a crashed or hung worker,
a torn spill, or a transient store error costs one retry (on a fresh
spill name) instead of the whole mine.  A shard that exhausts its retry
budget is *reassigned* to inline serial execution in the coordinator —
a flaky environment degrades to the PR 7 path rather than failing — and
only non-retryable errors (a corrupt source partition fails on every
host) abort the batch, deterministically raising the lowest-numbered
shard's error.  Failed spill bytes are quarantined with a reason file
(:meth:`~repro.stream.store.PartialStore.quarantine`), and the retry /
failure / reassignment accounting flows through :mod:`repro.obs`
(``smash_shard_retries_total``, ``smash_shard_worker_failures_total``,
``smash_shard_reassigned_total`` plus per-attempt spans).  A subprocess
worker that dies, runs past ``shard_timeout`` or replies with an error
is ended, never reused, so each retry after one of those runs in a fresh
interpreter; ``smash_shard_workers_started_total`` counts every start,
first or replacement.

The subprocess dispatcher is deliberately the narrowest: specs it
receives reference inputs only by store paths and content digests
(``inline_traces`` is ``False``, so the coordinator never embeds live
request objects), and results travel back the same way — the exact
contract a remote worker over a network transport would need.  Because
shard jobs are deterministic and their outputs digest-verified, every
dispatcher produces byte-identical mining results; dispatch, like the
retry policy and any injected :class:`~repro.core.faults.FaultPlan`, is
an execution strategy, like ``workers`` or ``shards``.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from functools import partial

from repro.core.faults import (
    FaultPlan,
    RetryPolicy,
    rebuild_error,
    run_job_outcome,
)
from repro.errors import PipelineError, ShardTimeoutError, WorkerError
from repro.obs import NULL_RECORDER
from repro.util.parallel import DISPATCH_KINDS, JobPool, resolve_workers

#: Span recorded once per shard-job attempt that ran to a conclusion.
ATTEMPT_SPAN = "pipeline.mine.shard_attempt"


class ShardDispatcher:
    """How a batch of shard-job specs gets executed.

    Subclasses implement :meth:`_run_batch`, returning one *outcome*
    dict per spec (the :func:`~repro.core.faults.run_job_outcome`
    protocol); the shared :meth:`run` turns outcomes into results —
    reassigning exhausted shards inline, recording obs accounting, and
    raising the lowest-numbered shard's fatal error.  ``inline_traces``
    advertises whether specs may carry live in-memory traces (only
    dispatchers that share the coordinator's address space can accept
    those — the subprocess dispatcher forces the coordinator to spill
    inputs to a store first).
    """

    #: Name under which :func:`make_dispatcher` builds this dispatcher.
    kind: str = "abstract"

    #: Whether job specs may reference in-memory traces directly.
    inline_traces: bool = False

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        plan: FaultPlan | None = None,
        recorder=None,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self.plan = plan
        self.recorder = NULL_RECORDER if recorder is None else recorder

    def run(self, specs: list[dict]) -> list[dict]:
        """Execute every spec under the retry policy; results in spec order.

        A shard whose retry budget is exhausted by retryable failures is
        re-run inline (fault-free) in the coordinator; a non-retryable
        failure aborts the batch.  When several shards fail fatally the
        lowest shard number's error is raised, deterministically.
        """
        outcomes = self._run_batch(specs)
        results: list[dict] = []
        fatal: list[tuple[int, Exception]] = []
        for spec, outcome in zip(specs, outcomes):
            shard = int(spec["shard"])
            if "ok" in outcome:
                result = outcome["ok"]
                self._record(shard, result.get("failures", []), result.get("seconds"))
                self._count_retries(result.get("attempts", 1) - 1)
                results.append(result)
            elif "exhausted" in outcome:
                detail = outcome["exhausted"]
                self._record(shard, detail.get("failures", []), None)
                self._count_retries(len(detail.get("failures", [])))
                try:
                    results.append(self._reassign(spec))
                except Exception as error:  # noqa: BLE001 - collected, re-raised
                    fatal.append((shard, error))
            elif "error" in outcome:
                detail = outcome["error"]
                self._record(shard, outcome.get("failures", []), None)
                fatal.append(
                    (
                        shard,
                        rebuild_error(
                            detail.get("kind", "PipelineError"),
                            detail.get("message", ""),
                            bool(detail.get("retryable", False)),
                        ),
                    )
                )
            # Outcomes marked {"cancelled": True} were never started
            # (a sibling failed fatally first); nothing to record.
        if fatal:
            fatal.sort(key=lambda item: item[0])
            raise fatal[0][1]
        return results

    def _run_batch(self, specs: list[dict]) -> list[dict]:
        """One outcome dict per spec, in spec order."""
        raise NotImplementedError

    def _reassign(self, spec: dict) -> dict:
        """Graceful degradation: run an exhausted shard inline, fault-free.

        Subprocess retries failing repeatedly usually means the
        *environment* (spawning interpreters, the spill transport) is
        flaky, not the job — so the coordinator absorbs the job itself
        on a fresh spill name, exactly the PR 7 serial path.
        """
        from repro.core.shardmine import run_shard_job

        shard = int(spec["shard"])
        prepared = dict(spec)
        prepared.pop("fault", None)
        base = str(spec.get("spill_name") or f"index-{shard:04d}")
        prepared["spill_name"] = f"{base}.ra"
        result = run_shard_job(prepared)
        self.recorder.counter(
            "smash_shard_reassigned_total",
            "Shard jobs reassigned to inline execution after exhausting retries.",
        ).inc()
        self.recorder.record_span(
            ATTEMPT_SPAN,
            float(result.get("seconds", 0.0)),
            {"shard": shard, "attempt": "reassigned", "kind": "ok"},
        )
        return result

    def _count_retries(self, retries: int) -> None:
        if retries > 0:
            self.recorder.counter(
                "smash_shard_retries_total",
                "Shard-job attempts beyond the first (retries after failure).",
            ).inc(retries)

    def _record(self, shard: int, failures: list[dict], ok_seconds) -> None:
        """Account for one shard job's attempt history in obs."""
        worker_failures = self.recorder.counter(
            "smash_shard_worker_failures_total",
            "Shard-job attempts that failed, by failure classification.",
            labels=("kind",),
        )
        for entry in failures:
            worker_failures.labels(kind=entry.get("label", "error")).inc()
            self.recorder.record_span(
                ATTEMPT_SPAN,
                float(entry.get("seconds", 0.0)),
                {
                    "shard": shard,
                    "attempt": entry.get("attempt"),
                    "kind": entry.get("label", "error"),
                    "retryable": entry.get("retryable"),
                },
            )
        if ok_seconds is not None:
            self.recorder.record_span(
                ATTEMPT_SPAN,
                float(ok_seconds),
                {"shard": shard, "attempt": len(failures) + 1, "kind": "ok"},
            )

    def close(self) -> None:
        """Release dispatcher resources (idempotent)."""

    def __enter__(self) -> "ShardDispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _fail_fast_serial(specs: list[dict], run_outcome) -> list[dict]:
    """Run outcomes one by one, cancelling the rest after a fatal error."""
    outcomes: list[dict] = []
    for index, spec in enumerate(specs):
        outcome = run_outcome(spec)
        outcomes.append(outcome)
        if "error" in outcome:
            outcomes.extend({"cancelled": True} for _ in specs[index + 1 :])
            break
    return outcomes


class SerialDispatcher(ShardDispatcher):
    """Run shard jobs inline in the coordinator, one after another."""

    kind = "serial"
    inline_traces = True

    def _run_batch(self, specs: list[dict]) -> list[dict]:
        return _fail_fast_serial(
            specs,
            lambda spec: run_job_outcome(spec, self.policy, self.plan),
        )


class PoolDispatcher(ShardDispatcher):
    """Fan shard jobs out on the mine's shared :class:`JobPool`.

    The pool is owned by the caller (it also serves the pair-partial and
    Louvain fan-outs), so :meth:`close` leaves it alone.  Outcomes are
    plain dicts, so the retry loop runs inside pool workers even under a
    process executor; the pool offers no cancellation, so a fatal error
    surfaces only after the batch drains.
    """

    kind = "pool"
    inline_traces = True

    def __init__(
        self,
        pool: JobPool,
        policy: RetryPolicy | None = None,
        plan: FaultPlan | None = None,
        recorder=None,
    ) -> None:
        super().__init__(policy=policy, plan=plan, recorder=recorder)
        self.pool = pool

    def _run_batch(self, specs: list[dict]) -> list[dict]:
        return self.pool.run(
            [partial(run_job_outcome, spec, self.policy, self.plan) for spec in specs]
        )


#: Seconds :meth:`ShardWorker.close` waits for a worker to exit on its
#: own once its stdin is closed (its atexit hooks run then) before it
#: kills it.
CLOSE_GRACE_S = 5.0

#: Lines of a dead worker's stderr quoted in its :class:`WorkerError`.
STDERR_TAIL_LINES = 8


def _worker_env() -> dict[str, str]:
    import repro

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root if not existing else package_root + os.pathsep + existing
    return env


class ShardWorker:
    """One warm ``python -m repro.core.shardworker`` interpreter.

    Specs go in on stdin and replies come back on stdout, one JSON
    object per line.  The worker's stderr goes to a private temporary
    file rather than a pipe nobody drains, so a chatty worker can never
    block on it; its tail explains a crash.
    """

    def __init__(self) -> None:
        self._stderr = tempfile.TemporaryFile()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.core.shardworker"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                env=_worker_env(),
            )
        except BaseException:
            self._stderr.close()
            raise
        #: The last lines of the worker's stderr, read by :meth:`close`.
        self.stderr_tail: list[str] = []

    def call(self, spec: dict, timeout: float) -> dict | None:
        """Send one spec and wait for its reply.

        Returns the reply, or ``None`` when the interpreter died first;
        raises :class:`TimeoutError` when no reply arrived within
        *timeout* seconds.
        """
        try:
            self.process.stdin.write(json.dumps(spec).encode() + b"\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            return None
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        reply = b""
        while not reply.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            reply += chunk
        return json.loads(reply)

    def close(self, grace: float = CLOSE_GRACE_S) -> int:
        """End the worker and return its exit status (idempotent).

        Closing stdin asks the worker to exit normally, which runs its
        atexit hooks; one still alive after *grace* seconds (``0``: at
        once, for a hung worker) is killed.
        """
        with contextlib.suppress(OSError):
            self.process.stdin.close()
        try:
            self.process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        if not self._stderr.closed:
            size = self._stderr.seek(0, os.SEEK_END)
            self._stderr.seek(max(0, size - 8192))
            lines = self._stderr.read().decode("utf-8", "replace").strip().splitlines()
            self.stderr_tail = lines[-STDERR_TAIL_LINES:]
            self._stderr.close()
        return self.process.returncode


class ShardWorkers:
    """The idle warm shard workers of one owner, kept between jobs.

    A :class:`~repro.core.pipeline.SmashPipeline` owns one for its whole
    life, so every subprocess-dispatched mine it runs reuses the
    interpreters the first one started.  Each worker is either idle here
    or held by exactly one running attempt, which puts it back or ends
    it.
    """

    def __init__(self) -> None:
        self._idle: list[ShardWorker] = []
        self._lock = threading.Lock()

    def take(self) -> ShardWorker | None:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def put(self, worker: ShardWorker) -> None:
        with self._lock:
            self._idle.append(worker)

    def close(self) -> None:
        """End every idle worker (idempotent; later jobs start new ones).

        All stdins are closed first, so the workers exit side by side.
        """
        with self._lock:
            idle, self._idle = self._idle, []
        for worker in idle:
            with contextlib.suppress(OSError):
                worker.process.stdin.close()
        for worker in idle:
            worker.close()


class SubprocessDispatcher(ShardDispatcher):
    """Shard jobs in warm worker interpreters, one JSON line each way.

    The worker (:mod:`repro.core.shardworker`) receives nothing but the
    JSON spec: inputs are named by store paths + digests, outputs are
    spilled to the shared :class:`~repro.stream.store.PartialStore` and
    reported back as ``(name, digest)``.  Workers come from *warm*
    (private to this dispatcher when ``None``): an attempt takes an idle
    worker or starts one, and puts it back after a normal reply, so at most
    ``min(workers, shards)`` run at once and a pipeline's later mines
    start none.  Worker-side failures come back as a structured
    ``{"error": {...}}`` reply and are re-raised here under the
    coordinator's own exception types, so a corrupt partition fails a
    subprocess-dispatched mine exactly like an in-process one.  A worker
    that dies or exceeds ``policy.timeout`` raises a retryable
    :class:`~repro.errors.WorkerError` instead, consumed by the retry
    loop.  A worker that failed an attempt in any of these ways is ended,
    so the retry runs in a fresh interpreter.
    """

    kind = "subprocess"
    inline_traces = False

    def __init__(
        self,
        workers: int = 0,
        policy: RetryPolicy | None = None,
        plan: FaultPlan | None = None,
        recorder=None,
        warm: ShardWorkers | None = None,
    ) -> None:
        super().__init__(policy=policy, plan=plan, recorder=recorder)
        self.workers = resolve_workers(workers)
        self._owns_warm = warm is None
        self.warm = ShardWorkers() if warm is None else warm
        self._pool: ThreadPoolExecutor | None = None
        # Attempts run on pool threads and the recorder is not
        # thread-safe: they count worker starts under this lock.
        self._count_lock = threading.Lock()

    def _run_outcome(self, spec: dict) -> dict:
        return run_job_outcome(spec, self.policy, self.plan, attempt_call=self._run_one)

    def _run_batch(self, specs: list[dict]) -> list[dict]:
        if len(specs) <= 1 or self.workers <= 1:
            return _fail_fast_serial(specs, self._run_outcome)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        # Collect every future's outcome rather than bailing on the
        # first exception: a fatal outcome cancels whatever has not
        # started yet, in-flight siblings are drained (never left
        # running detached), and ``run`` raises the lowest-numbered
        # shard's error from the assembled batch.
        futures = {
            self._pool.submit(self._run_outcome, spec): index
            for index, spec in enumerate(specs)
        }
        outcomes: list[dict] = [{"cancelled": True} for _ in specs]
        pending = set(futures)
        cancelling = False
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                if future.cancelled():
                    continue
                outcome = future.result()
                outcomes[futures[future]] = outcome
                if "error" in outcome and not cancelling:
                    cancelling = True
                    for sibling in pending:
                        sibling.cancel()
        return outcomes

    def _start_worker(self) -> ShardWorker:
        worker = ShardWorker()
        with self._count_lock:
            self.recorder.counter(
                "smash_shard_workers_started_total",
                "Shard-worker interpreters started by the subprocess dispatcher.",
            ).inc()
        return worker

    def _run_one(self, spec: dict) -> dict:
        shard = spec.get("shard")
        timeout = self.policy.timeout
        worker = self.warm.take() or self._start_worker()
        try:
            reply = worker.call(spec, timeout)
        except BaseException as error:
            # The worker may still be busy on this spec: kill it rather
            # than ever reuse it.
            worker.close(grace=0)
            if isinstance(error, TimeoutError):
                raise ShardTimeoutError(
                    f"shard {shard} worker timed out after {timeout:.0f}s "
                    "(config.shard_timeout)"
                ) from None
            raise
        if reply is None:
            # No reply: the interpreter died (crash, OOM kill, injected
            # os._exit).  Retryable — a fresh worker on a fresh spill
            # name sees none of this attempt's state.
            status = worker.close()
            raise WorkerError(
                f"shard {shard} worker exited with {status}: "
                + " | ".join(worker.stderr_tail)
            )
        if "error" in reply:
            worker.close()
            error = reply["error"]
            kind = str(error.get("kind", ""))
            message = str(error.get("message", ""))
            retryable = bool(error.get("retryable", False))
            if kind in ("StreamError", "WorkerError", "ShardTimeoutError"):
                raise rebuild_error(kind, message, retryable)
            raise rebuild_error(
                "WorkerError" if retryable else "PipelineError",
                f"shard {shard} worker failed: {kind}: {message}",
                retryable,
            )
        self.warm.put(worker)
        return reply

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._owns_warm:
            self.warm.close()


def make_dispatcher(
    kind: str,
    pool: JobPool | None = None,
    workers: int = 0,
    policy: RetryPolicy | None = None,
    plan: FaultPlan | None = None,
    recorder=None,
    warm: ShardWorkers | None = None,
) -> ShardDispatcher:
    """Build the dispatcher for a configured ``dispatch`` kind.

    ``"pool"`` requires the caller's :class:`JobPool`; ``"subprocess"``
    takes a concurrent-worker budget (``0`` = one per CPU) and the
    caller's :class:`ShardWorkers` to reuse, if any.  *policy*, *plan*
    and *recorder* configure retries, fault injection and obs accounting
    for any kind.
    """
    if kind == "serial":
        return SerialDispatcher(policy=policy, plan=plan, recorder=recorder)
    if kind == "pool":
        if pool is None:
            raise PipelineError("pool dispatch requires a JobPool")
        return PoolDispatcher(pool, policy=policy, plan=plan, recorder=recorder)
    if kind == "subprocess":
        return SubprocessDispatcher(
            workers=workers, policy=policy, plan=plan, recorder=recorder, warm=warm
        )
    raise PipelineError(
        f"unknown dispatch kind {kind!r}; expected one of {DISPATCH_KINDS}"
    )


__all__ = [
    "ATTEMPT_SPAN",
    "ShardDispatcher",
    "SerialDispatcher",
    "PoolDispatcher",
    "SubprocessDispatcher",
    "ShardWorker",
    "ShardWorkers",
    "make_dispatcher",
]
