"""Shard-job worker entry point: ``python -m repro.core.shardworker``.

A warm worker: reads one JSON shard-job spec per stdin line, executes
each with :func:`~repro.core.shardmine.run_shard_job`, and writes one
JSON reply per stdout line, until stdin closes; then it exits with
status 0 (running its atexit hooks).  The spec names its inputs by store
paths and content digests and the reply names the spilled partial the
same way, so this process shares nothing with the coordinator but the
filesystem — the contract a remote worker over any transport would
satisfy.

Stdout carries replies only: anything else written to it, by a job's
``print`` or by native code writing to file descriptor 1, goes to
stderr.  Failures are replied as a structured
``{"error": {"kind", "message", "retryable"}}`` object (plus the
traceback on stderr), so the dispatcher can re-raise the
coordinator-side equivalent — and its retry policy can tell a transient
failure from a fatal one.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

from repro.core.faults import is_retryable, mark_worker_process
from repro.core.shardmine import run_shard_job
from repro.util.memory import peak_rss_kb


def main() -> int:
    # Injected crash faults may os._exit this process the way a real
    # interpreter death would.
    mark_worker_process()
    sys.stdout.flush()
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    for line in sys.stdin:
        try:
            spec = json.loads(line)
            if not isinstance(spec, dict):
                raise ValueError("shard-job spec must be a JSON object")
            result = run_shard_job(spec)
            # This worker's own peak over every job it has run so far:
            # ru_maxrss would start at the coordinator's high-water mark
            # (vfork+exec inherits it).
            result["peak_rss_kb"] = peak_rss_kb()
        except Exception as error:
            traceback.print_exc()
            result = {
                "error": {
                    "kind": type(error).__name__,
                    "message": str(error),
                    "retryable": is_retryable(error),
                }
            }
        replies.write(json.dumps(result) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
