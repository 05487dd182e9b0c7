"""Every program name the end-to-end benchmark traces still exists.

``perfbench/layers.py`` wraps program functions and methods by name in
its traced run and silently skips names that no longer resolve, so a
rename would only show up as lower ``trace.coverage`` in a benchmark
run.  This test loads the tracer's tables by path and fails on the
rename instead.  A name removed on purpose is listed in ``REMOVED`` and
must no longer resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_layers = _load_layers()

#: Functions the tracer's table still names but the program removed on
#: purpose: the sharded mine's pair-bucket job went with the bucketed
#: pair counting.  The tracer skips them until its table drops them.
REMOVED = (("repro.core.shardmine", "_pair_chunk_job"),)

TRACED = [(module, name) for module, name, _ in _layers.FUNCTIONS if (module, name) not in REMOVED]


@pytest.mark.parametrize(
    "module_name, name",
    TRACED,
    ids=[f"{module}.{name}" for module, name in TRACED],
)
def test_traced_function_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


@pytest.mark.parametrize(
    "module_name, name",
    REMOVED,
    ids=[f"{module}.{name}" for module, name in REMOVED],
)
def test_removed_function_no_longer_resolves(module_name, name):
    assert getattr(importlib.import_module(module_name), name, None) is None


@pytest.mark.parametrize(
    "module_name, class_name, method",
    [(module, owner, method) for module, owner, method, _ in _layers.METHODS],
    ids=[f"{module}.{owner}.{method}" for module, owner, method, _ in _layers.METHODS],
)
def test_traced_method_resolves(module_name, class_name, method):
    owner = getattr(importlib.import_module(module_name), class_name, None)
    assert isinstance(owner, type)
    assert callable(getattr(owner, method, None))
