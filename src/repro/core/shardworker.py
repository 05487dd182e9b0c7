"""Shard-job worker entry point: ``python -m repro.core.shardworker``.

Reads one JSON shard-job spec from stdin, executes it with
:func:`~repro.core.shardmine.run_shard_job`, and prints the one-line
JSON result to stdout.  The spec names its inputs by store paths and
content digests and the result names the spilled partial the same way,
so this process shares nothing with the coordinator but the filesystem —
the contract a remote worker over any transport would satisfy.

Failures are reported as a structured
``{"error": {"kind", "message", "retryable"}}`` object on stdout (plus
the traceback on stderr) with a non-zero exit, so the dispatcher can
re-raise the coordinator-side equivalent — and its retry policy can tell
a transient failure from a fatal one.
"""

from __future__ import annotations

import json
import sys
import traceback

from repro.core.faults import is_retryable, mark_worker_process
from repro.util.memory import peak_rss_kb


def main() -> int:
    # This process exists for exactly one shard job; injected crash
    # faults may os._exit it the way a real interpreter death would.
    mark_worker_process()
    try:
        spec = json.loads(sys.stdin.read())
        if not isinstance(spec, dict):
            raise ValueError("shard-job spec must be a JSON object")
        from repro.core.shardmine import run_shard_job

        result = run_shard_job(spec)
        # This worker's own peak: ru_maxrss would start at the
        # coordinator's high-water mark (vfork+exec inherits it).
        result["peak_rss_kb"] = peak_rss_kb()
    except Exception as error:
        traceback.print_exc()
        print(
            json.dumps(
                {
                    "error": {
                        "kind": type(error).__name__,
                        "message": str(error),
                        "retryable": is_retryable(error),
                    }
                }
            )
        )
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
