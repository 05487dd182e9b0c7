"""Deterministic fault injection and retry policy for the sharded mine.

PR 9's dispatch seam speaks the remote-worker contract (store paths +
content digests), but a single crashed, hung or corrupt-spilling worker
still failed the whole mine.  This module makes every dispatcher
retry-aware and gives the test/bench harness a way to *prove* recovery:

* :class:`FaultPlan` — an explicit, JSON-serialisable fault schedule.
  Each :class:`FaultSpec` is a ``{shard, attempt, kind}`` trigger (plus
  ``seconds`` for hangs); there is no wall-clock or RNG at any decision
  point, so replaying a plan reproduces the exact same failure sequence
  on every host and under every ``PYTHONHASHSEED``.
* :class:`RetryPolicy` — max attempts, capped deterministic exponential
  backoff, and the per-job timeout the subprocess dispatcher enforces
  (``SmashConfig.shard_timeout``).
* :func:`run_with_retry` — the attempt loop every dispatcher wraps
  around :func:`~repro.core.shardmine.run_shard_job`: each attempt gets
  a *fresh spill name* (so a digest mismatch can never poison the next
  try), failed spill bytes are quarantined with a reason file instead of
  deleted (``PartialStore.quarantine``), and errors are classified into
  retryable (worker death, timeout, spilled-partial digest mismatch)
  vs fatal (corrupt source partition — the same bytes will fail every
  host, so retrying is pointless and the mine fails fast).

Fault kinds
-----------

``crash_before_spill`` / ``crash_after_spill``
    The worker dies abruptly (``os._exit`` in a real shardworker
    process, a raised :class:`~repro.errors.WorkerError` in-process)
    before or after publishing its partial.
``hang``
    The worker sleeps past the configured timeout; the subprocess
    dispatcher kills it and retries.  In-process dispatchers cannot
    interrupt a thread, so the hang degrades to an immediate retryable
    failure there.
``corrupt_partial``
    The spilled partial's bytes are torn *after* the digest was
    computed — caught by the coordinator's post-attempt verification.
``vanish_spill``
    The spilled partial disappears before the coordinator can load it.
``stream_error``
    A transient :class:`~repro.errors.StreamError` on partition load
    (a flaky store mount); retryable.
``corrupt_source``
    A persistent :class:`~repro.errors.StreamError` on partition load
    (corrupt source bytes); **fatal** — fails the mine fast with a
    quarantine entry recording the reason.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    ConfigError,
    PipelineError,
    ReproError,
    ShardTimeoutError,
    StreamError,
    WorkerError,
)

#: Fault kinds a retry (or the inline reassignment) recovers from.
RECOVERABLE_KINDS: tuple[str, ...] = (
    "crash_before_spill",
    "crash_after_spill",
    "hang",
    "corrupt_partial",
    "vanish_spill",
    "stream_error",
)

#: Fault kinds that must fail the mine fast (same bytes fail everywhere).
FATAL_KINDS: tuple[str, ...] = ("corrupt_source",)

FAULT_KINDS: tuple[str, ...] = RECOVERABLE_KINDS + FATAL_KINDS

#: Exit codes an injected worker crash uses, by fault kind — distinct
#: from real Python exit codes so chaos-test failures are attributable.
_CRASH_EXIT_CODES = {"crash_before_spill": 81, "crash_after_spill": 82, "hang": 86}

#: Set by :func:`mark_worker_process` in ``repro.core.shardworker``:
#: crash faults may only ``os._exit`` a process whose whole job is the
#: one shard job (never a coordinator or pool worker thread).
_IN_WORKER = False


def mark_worker_process() -> None:
    """Declare this process a dedicated shard worker (crash faults may kill it)."""
    global _IN_WORKER
    _IN_WORKER = True


def transient(error: ReproError) -> ReproError:
    """Mark *error* retryable (a transient failure, not a data error)."""
    error.retryable = True
    return error


def is_retryable(error: BaseException) -> bool:
    """Whether the retry policy may re-run a job that raised *error*.

    Worker death and timeouts are always retryable
    (:class:`~repro.errors.WorkerError` and subclasses); stream errors
    are retryable only when the raise site marked them ``transient``
    (spilled partials are re-creatable; corrupt source partitions are
    not).  Everything else is fatal.
    """
    if isinstance(error, WorkerError):
        return True
    return bool(getattr(error, "retryable", False))


def failure_label(error: BaseException) -> str:
    """Stable classification label for the worker-failure counter."""
    if isinstance(error, ShardTimeoutError):
        return "timeout"
    if isinstance(error, WorkerError):
        return "crash"
    if isinstance(error, StreamError):
        return "stream_error"
    return "error"


@dataclass(frozen=True)
class FaultSpec:
    """One trigger: inject *kind* when *shard* runs its *attempt*-th try.

    ``attempt`` is 1-based; ``None`` fires on **every** attempt (how a
    persistent failure — e.g. ``corrupt_source`` — is modelled).
    ``seconds`` is how long a ``hang`` sleeps before dying; pick it well
    past the configured ``shard_timeout``.
    """

    shard: int
    kind: str
    attempt: int | None = None
    seconds: float = 60.0

    def __post_init__(self) -> None:
        # Types are checked exactly (a JSON ``true`` is no shard, ``0.7``
        # no attempt), so a malformed plan fails here, not mid-mine.
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if type(self.shard) is not int or self.shard < 0:
            raise ConfigError(f"fault shard must be an integer >= 0, got {self.shard!r}")
        if self.attempt is not None and (type(self.attempt) is not int or self.attempt < 1):
            raise ConfigError(
                f"fault attempt is 1-based: an integer >= 1 or null, got {self.attempt!r}"
            )
        if type(self.seconds) not in (int, float) or not self.seconds > 0:
            raise ConfigError(f"fault seconds must be a number > 0, got {self.seconds!r}")

    def to_dict(self) -> dict[str, object]:
        doc: dict[str, object] = {"shard": self.shard, "kind": self.kind}
        if self.attempt is not None:
            doc["attempt"] = self.attempt
        if self.kind == "hang":
            doc["seconds"] = self.seconds
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        """The spec a plan entry describes; :class:`ConfigError` if malformed.

        ``shard`` and ``kind`` are required, ``attempt`` and ``seconds``
        optional; every value keeps its JSON type (no coercion).
        """
        if not isinstance(doc, dict):
            raise ConfigError(f"fault spec must be a JSON object, got {type(doc).__name__}")
        for name in ("shard", "kind"):
            if name not in doc:
                raise ConfigError(f"fault {name} is missing")
        return cls(
            shard=doc["shard"],
            kind=doc["kind"],
            attempt=doc.get("attempt"),
            seconds=doc.get("seconds", 60.0),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule: the first matching trigger fires.

    Execution strategy, not semantics: a mine that recovers from every
    injected fault produces output byte-identical to the fault-free run
    (test- and CI-enforced), so the plan rides on
    :class:`~repro.config.SmashConfig` excluded from equality like
    ``metrics``.
    """

    faults: tuple[FaultSpec, ...] = ()

    def fault_for(self, shard: int, attempt: int) -> FaultSpec | None:
        """The trigger for (*shard*, *attempt*), or ``None`` — pure lookup."""
        for fault in self.faults:
            if fault.shard == shard and fault.attempt in (None, attempt):
                return fault
        return None

    def to_dict(self) -> dict[str, object]:
        return {"version": 1, "faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict) or not isinstance(doc.get("faults"), list):
            raise ConfigError('fault plan must be {"faults": [...]} JSON')
        faults = []
        for index, entry in enumerate(doc["faults"]):
            try:
                faults.append(FaultSpec.from_dict(entry))
            except ConfigError as error:
                raise ConfigError(f"fault plan entry {index}: {error}") from None
        return cls(faults=tuple(faults))

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigError(f"cannot load fault plan {path}: {error}") from error
        return cls.from_dict(doc)

    @classmethod
    def generate(
        cls,
        shards: int,
        kinds: tuple[str, ...] = RECOVERABLE_KINDS,
        hang_seconds: float = 60.0,
    ) -> "FaultPlan":
        """A deterministic plan spreading *kinds* over *shards*.

        Kind *i* triggers on shard ``i % shards`` at attempt
        ``1 + i // shards`` — with fewer shards than kinds the same
        shard fails on consecutive attempts, which (past the retry
        budget) also exercises inline reassignment.
        """
        if shards < 1:
            raise ConfigError("fault plan needs shards >= 1")
        faults = tuple(
            FaultSpec(
                shard=index % shards,
                kind=kind,
                attempt=1 + index // shards,
                seconds=hang_seconds,
            )
            for index, kind in enumerate(kinds)
        )
        return cls(faults=faults)


# -- injection hooks (called from run_shard_job) ------------------------------------


def _crash(shard: int, kind: str) -> None:
    if _IN_WORKER:
        # A real worker process: die the way a crashed interpreter does
        # (no JSON reply, no cleanup) so the dispatcher sees exactly what
        # a production crash produces.
        sys.stderr.write(f"injected fault: shard {shard} {kind}\n")
        sys.stderr.flush()
        os._exit(_CRASH_EXIT_CODES[kind])
    raise WorkerError(f"injected fault: shard {shard} worker {kind}")


def fire_before_load(fault: dict | None, shard: int) -> None:
    """Injection point at job entry, before the input source resolves."""
    if not fault:
        return
    kind = fault.get("kind")
    if kind == "stream_error":
        raise transient(
            StreamError(f"injected transient StreamError loading shard {shard} input")
        )
    if kind == "corrupt_source":
        raise StreamError(
            f"injected corrupt source partition for shard {shard}: "
            "content digest mismatch is permanent"
        )
    if kind == "hang":
        if _IN_WORKER:
            time.sleep(float(fault.get("seconds", 60.0)))
            os._exit(_CRASH_EXIT_CODES["hang"])
        raise transient(
            WorkerError(
                f"injected fault: shard {shard} worker hang "
                "(inline dispatch cannot enforce shard_timeout)"
            )
        )
    if kind == "crash_before_spill":
        _crash(shard, "crash_before_spill")


def fire_after_spill(fault: dict | None, path: Path, shard: int) -> None:
    """Injection point after the partial is published under *path*."""
    if not fault:
        return
    kind = fault.get("kind")
    if kind == "crash_after_spill":
        _crash(shard, "crash_after_spill")
    if kind == "corrupt_partial":
        # Tear the published bytes *after* the digest was computed —
        # exactly the failure the coordinator's verification must catch.
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)] + b"#torn")
    if kind == "vanish_spill":
        path.unlink(missing_ok=True)


# -- retry policy -------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How many times a shard job may run and how long attempts may take.

    Backoff is deterministic (``base * 2**(attempt-1)``, capped) — no
    jitter, so a replayed fault plan reproduces the identical schedule.
    ``timeout`` bounds one subprocess attempt's wall time
    (``SmashConfig.shard_timeout``); in-process dispatchers cannot
    interrupt a running job and do not enforce it.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    timeout: float = 600.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("retry policy needs max_attempts >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigError("retry backoff must be >= 0")
        if self.timeout <= 0:
            raise ConfigError("retry timeout must be > 0")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait after failed *attempt* (1-based), capped."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """The policy a :class:`~repro.config.SmashConfig` asks for."""
        return cls(
            max_attempts=int(config.shard_retries) + 1,
            timeout=float(config.shard_timeout),
        )


class ShardRetriesExhaustedError(PipelineError):
    """Every attempt at one shard job failed retryably.

    Carries the per-attempt failure records so the dispatcher can
    account for them and fall back to inline execution.  Reduced to
    ``(shard, failures)`` for pickling across process pools.
    """

    def __init__(self, shard: int, failures: list[dict]) -> None:
        last = failures[-1]["message"] if failures else "no attempts recorded"
        super().__init__(
            f"shard {shard} failed {len(failures)} attempt(s); last error: {last}"
        )
        self.shard = shard
        self.failures = failures

    def __reduce__(self):
        return (type(self), (self.shard, self.failures))


def attempt_spec(spec: dict, attempt: int, plan: FaultPlan | None) -> dict:
    """The concrete spec for one attempt: fresh spill name + its fault.

    The first attempt keeps the canonical ``index-NNNN`` name; retries
    spill under ``index-NNNN.rK`` so a corrupt or torn partial from a
    dead attempt can never shadow a later good one.  The plan's trigger
    for (shard, attempt) — if any — is embedded in the spec, so workers
    never read the plan file and injection decisions stay with the
    coordinator.
    """
    shard = int(spec["shard"])
    prepared = dict(spec)
    base = str(spec.get("spill_name") or f"index-{shard:04d}")
    prepared["spill_name"] = base if attempt == 1 else f"{base}.r{attempt}"
    prepared.pop("fault", None)
    if plan is not None:
        fault = plan.fault_for(shard, attempt)
        if fault is not None:
            prepared["fault"] = fault.to_dict()
    return prepared


def _describe_failure(error: ReproError, attempt: int, seconds: float) -> dict:
    return {
        "attempt": attempt,
        "error": type(error).__name__,
        "label": failure_label(error),
        "message": str(error),
        "retryable": is_retryable(error),
        "seconds": round(seconds, 6),
    }


def run_with_retry(
    spec: dict,
    attempt_call,
    policy: RetryPolicy,
    plan: FaultPlan | None = None,
) -> dict:
    """Run one shard job under *policy*, verifying and retrying attempts.

    Each attempt's result is digest-verified against its spilled bytes
    before it counts as success (catching torn/vanished partials the
    moment they happen, not at merge time).  Failed attempts quarantine
    whatever they spilled — with a ``REASON.json`` — and retry on a
    fresh spill name after a deterministic backoff.  Fatal errors
    (non-retryable) propagate immediately with the attempt history
    attached as ``error.shard_failures``; exhausting the budget raises
    :class:`ShardRetriesExhaustedError`.

    Returns the successful attempt's result dict, extended with
    ``attempts`` (1-based count used) and ``failures`` (records of the
    attempts that failed before it).
    """
    from repro.stream.store import PartialStore

    shard = int(spec["shard"])
    spill = PartialStore(spec["spill_root"])
    failures: list[dict] = []
    for attempt in range(1, policy.max_attempts + 1):
        prepared = attempt_spec(spec, attempt, plan)
        tick = time.perf_counter()
        try:
            result = attempt_call(prepared)
            spill.verify(result["name"], result["digest"])
        except ReproError as error:
            entry = _describe_failure(error, attempt, time.perf_counter() - tick)
            quarantined = spill.quarantine(
                prepared["spill_name"],
                reason={
                    "shard": shard,
                    "attempt": attempt,
                    "spill_name": prepared["spill_name"],
                    "fault": prepared.get("fault"),
                    **{
                        key: entry[key]
                        for key in ("error", "label", "message", "retryable")
                    },
                },
            )
            entry["quarantined"] = None if quarantined is None else str(quarantined)
            failures.append(entry)
            if not is_retryable(error):
                error.shard_failures = failures
                raise
            if attempt < policy.max_attempts:
                time.sleep(policy.backoff(attempt))
            continue
        result["attempts"] = attempt
        result["failures"] = failures
        return result
    raise ShardRetriesExhaustedError(shard, failures)


def run_job_outcome(
    spec: dict,
    policy: RetryPolicy,
    plan: FaultPlan | None = None,
    attempt_call=None,
) -> dict:
    """:func:`run_with_retry` as a data-only outcome (pool/pickle safe).

    Returns ``{"ok": result}``, ``{"exhausted": {...}}`` (retry budget
    spent on retryable failures) or ``{"error": {...}}`` (fatal) —
    never raises a library error, so dispatchers can collect every
    job's outcome before deciding what to reassign and what to raise.
    Programming errors still propagate.
    """
    if attempt_call is None:
        from repro.core.shardmine import run_shard_job

        attempt_call = run_shard_job
    try:
        return {"ok": run_with_retry(spec, attempt_call, policy, plan)}
    except ShardRetriesExhaustedError as error:
        return {
            "exhausted": {
                "shard": error.shard,
                "message": str(error),
                "failures": error.failures,
            }
        }
    except ReproError as error:
        return {
            "error": {
                "kind": type(error).__name__,
                "message": str(error),
                "retryable": is_retryable(error),
            },
            "shard": int(spec["shard"]),
            "failures": getattr(error, "shard_failures", []),
        }


def rebuild_error(kind: str, message: str, retryable: bool = False) -> ReproError:
    """The coordinator-side exception for a data-form worker error."""
    classes = {
        "StreamError": StreamError,
        "WorkerError": WorkerError,
        "ShardTimeoutError": ShardTimeoutError,
        "PipelineError": PipelineError,
    }
    error = classes.get(kind, PipelineError)(message)
    if retryable:
        error.retryable = True
    return error


__all__ = [
    "FAULT_KINDS",
    "RECOVERABLE_KINDS",
    "FATAL_KINDS",
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "ShardRetriesExhaustedError",
    "attempt_spec",
    "failure_label",
    "fire_after_spill",
    "fire_before_load",
    "is_retryable",
    "mark_worker_process",
    "rebuild_error",
    "run_job_outcome",
    "run_with_retry",
    "transient",
]
