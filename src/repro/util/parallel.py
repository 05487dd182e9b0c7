"""Configurable task execution for the per-dimension mining fan-out.

:func:`run_jobs` runs a list of zero-argument callables and returns their
results **in job order**, on one of three executors:

* ``"serial"`` — plain loop in the calling thread (the reference
  behaviour; also used whenever ``workers <= 1`` or there is only one
  job, so the pools are never spun up for nothing);
* ``"thread"`` — :class:`~concurrent.futures.ThreadPoolExecutor`; cheap
  to start and shares the trace indices, but the pure-Python mining is
  GIL-bound, so the win is bounded (it helps when numpy/scipy-backed
  builders release the GIL);
* ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor`; real
  CPU parallelism at the cost of pickling each job's arguments, so jobs
  must be module-level callables (``functools.partial`` over picklable
  arguments).

:class:`JobPool` is the multi-batch form: one pool instance survives
several ``run`` calls, so a mine that fans out more than once (per-shard
indexing, then the per-dimension build + Louvain jobs) pays the pool
start-up cost once instead of once per batch.

Because the mining core is deterministic by construction (canonical node
order, sorted adjacency, seeded Louvain shuffle), every executor produces
*identical* results — scheduling only changes wall-clock time, never the
output.  That equivalence is asserted by the parallel-equivalence tests.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import TypeVar

T = TypeVar("T")

#: The accepted executor kinds, in increasing order of start-up cost.
EXECUTOR_KINDS = ("serial", "thread", "process")

#: The accepted shard-dispatcher kinds for the sharded mine's map phase
#: (see :mod:`repro.core.dispatch`): ``"serial"`` runs shard jobs inline
#: in the coordinator, ``"pool"`` fans them out on the mine's
#: :class:`JobPool`, and ``"subprocess"`` runs them in warm worker
#: interpreters, kept across a pipeline's mines, that talk only in store
#: paths + partial digests.  Lives here
#: (not in :mod:`repro.core.dispatch`) so :mod:`repro.config` can
#: validate the field without importing the core.
DISPATCH_KINDS = ("serial", "pool", "subprocess")


def resolve_workers(workers: int) -> int:
    """Translate a ``workers`` setting into a concrete worker count.

    ``0`` means "one per available CPU"; any positive value is taken
    as-is.  "Available" honours CPU affinity / cgroup cpusets where the
    platform exposes them, so ``workers=0`` in a container pinned to 2
    of a 64-core host gives 2, not 64.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return workers


class JobPool:
    """A reusable executor for several job batches.

    ``run_jobs`` used to spin a fresh pool up for every batch, which made
    the process executor pay its interpreter-spawn cost once *per batch*
    (PR 2 measured it at 0.25x on small jobs).  A ``JobPool`` is created
    once per mine and reused across the per-shard index fan-out and the
    per-dimension mining fan-out — the
    underlying pool is started lazily on the first batch that actually
    needs it and lives until :meth:`close`.

    Batch semantics match :func:`run_jobs`: results come back in job
    order, the first job exception is re-raised in the caller, and no
    pool is ever started for serial execution or single-job batches.
    """

    def __init__(self, workers: int = 1, executor: str = "serial") -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_KINDS}")
        self.workers = resolve_workers(workers)
        self.executor = executor
        self._pool: Executor | None = None

    @property
    def parallel(self) -> bool:
        """Whether this pool can actually run jobs concurrently."""
        return self.executor != "serial" and self.workers > 1

    def run(self, jobs: Sequence[Callable[[], T]]) -> list[T]:
        """Run one batch of *jobs*; results in job order."""
        jobs = list(jobs)
        if not self.parallel or len(jobs) <= 1:
            return [job() for job in jobs]
        if self._pool is None:
            pool_cls: type[Executor] = (
                ThreadPoolExecutor if self.executor == "thread" else ProcessPoolExecutor
            )
            self._pool = pool_cls(max_workers=self.workers)
        futures = [self._pool.submit(job) for job in jobs]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the underlying pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "JobPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_jobs(
    jobs: Sequence[Callable[[], T]],
    workers: int = 1,
    executor: str = "serial",
) -> list[T]:
    """Run *jobs* and return their results in job order.

    One-shot wrapper over :class:`JobPool` for callers with a single
    batch; the first job exception is re-raised in the caller (remaining
    jobs are allowed to finish; the pool is always shut down).
    """
    with JobPool(workers=workers, executor=executor) as pool:
        return pool.run(jobs)
