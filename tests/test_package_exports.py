"""Package re-exports resolve lazily: the same names, loaded on first use.

Every package ``__init__`` keeps its ``__all__`` and imports a name's
module only when the name is first read (PEP 562 ``__getattr__``).  So a
shard worker, which starts from ``repro.core.shardworker`` and runs map
jobs only, never loads the pipeline, the stream engine or numpy.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

PACKAGES = (
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.core.dimensions",
    "repro.domains",
    "repro.eval",
    "repro.graph",
    "repro.groundtruth",
    "repro.httplog",
    "repro.obs",
    "repro.stream",
    "repro.synth",
    "repro.util",
    "repro.whois",
)


def run_python(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        # A name shared with a submodule must still be the exported object.
        assert not isinstance(value, types.ModuleType), name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018


def test_star_import_binds_every_export():
    namespace: dict[str, object] = {}
    exec("from repro import *", namespace)
    assert set(importlib.import_module("repro").__all__) <= set(namespace)


def test_shard_worker_loads_neither_the_pipeline_nor_numpy():
    completed = run_python(
        """
        import sys

        import repro.core.shardworker
        from repro.httplog.loader import parse_jsonl

        line = (
            '{"ts":1.5,"client":"c","host":"h","ip":"","uri":"/","ua":"","ref":"",'
            '"status":200,"method":"GET"}\\n'
        )
        assert len(parse_jsonl(line.encode(), "trace", "trace")) == 1
        loaded = {"numpy", "repro.core.pipeline", "repro.stream.engine"} & set(sys.modules)
        assert not loaded, loaded
        from repro import SmashPipeline, StreamingSmash

        assert SmashPipeline.__module__ == "repro.core.pipeline"
        assert StreamingSmash.__module__ == "repro.stream.engine"
        """
    )
    assert completed.returncode == 0, completed.stderr
