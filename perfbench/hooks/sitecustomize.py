"""Benchmark hook: a shard worker reports its own peak resident set.

``perfbench/run.py`` puts this directory first on the measured
process's ``PYTHONPATH``; ``SubprocessDispatcher`` forwards that path to
every ``python -m repro.core.shardworker`` it starts, so Python imports
this module at each worker's start-up.  When ``PERFBENCH_WORKER_RSS_DIR``
is set, a worker writes ``<pid> <VmHWM kB>`` from its own
``/proc/self/status`` into that directory as it exits.

VmHWM is read here because the alternatives are wrong for a child: a
process created by vfork+exec starts with ``ru_maxrss`` at its parent's
high-water mark, and ``RUSAGE_CHILDREN`` reports the largest child,
inheriting the same error.
"""

import atexit
import os
import sys


def _report() -> None:
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    if getattr(spec, "name", None) != "repro.core.shardworker":
        return
    with open("/proc/self/status") as handle:
        peak = next(line.split()[1] for line in handle if line.startswith("VmHWM:"))
    path = os.path.join(os.environ["PERFBENCH_WORKER_RSS_DIR"], f"{os.getpid()}.kb")
    with open(path, "w") as handle:
        handle.write(f"{os.getpid()} {peak}\n")


if os.environ.get("PERFBENCH_WORKER_RSS_DIR"):
    atexit.register(_report)
