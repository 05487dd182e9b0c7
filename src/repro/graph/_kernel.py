"""Build and load the compiled kernels: one library for three C sources.

The library holds the Louvain kernel and the CSR graph's queries
(``_louvain_kernel.c``, driven by :mod:`repro.graph.louvain`,
:mod:`repro.graph.csr` and :mod:`repro.core.ashmining`), the JSONL decoder
(``repro/httplog/_jsonl_kernel.c``, driven by
:mod:`repro.httplog.loader`) and the pair counter
(``repro/core/_pairs_kernel.c``, driven by
:func:`repro.core.interning.sorted_pair_counts`).  Each imports this
module on its first use, never at ``import repro``.  The library lives
in this package's ``__pycache__/`` under a name keyed by a hash of the
sources, the flags and the machine.  The first :func:`load` that finds
no file there compiles the sources with the system C compiler (``cc``,
else ``gcc``); later calls and later processes, for any kernel, open
that file, with or without a compiler on ``PATH``.  The compiler writes
to a unique temporary name that ``os.replace`` then moves into place, so
processes racing on a fresh checkout (test subprocesses, shard workers)
each load a complete library.

When there is no library and no compiler, or the build or load fails,
:func:`load` logs one warning and returns ``None`` for the rest of the
process; Louvain then runs the pure-Python reference, the CSR graph its
scalar queries, the loader its regex loop and pair counting its
``Counter`` reference, whose outputs are identical.
"""

from __future__ import annotations

import hashlib
import logging
import os
import platform
import shutil
import subprocess
import threading
from pathlib import Path

_LOGGER = logging.getLogger("repro.graph.kernel")

SOURCE = Path(__file__).with_name("_louvain_kernel.c")
DECODER_SOURCE = Path(__file__).parent.parent / "httplog" / "_jsonl_kernel.c"
PAIRS_SOURCE = Path(__file__).parent.parent / "core" / "_pairs_kernel.c"

#: ``-ffp-contract=off`` keeps every multiply and add separately rounded,
#: as in Python; ``-ffast-math`` must never be added (it reassociates).
FLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-shared", "-fPIC")

_BUILD_TIMEOUT_S = 120.0

_lock = threading.Lock()
#: Empty until the first :func:`load`; then holds its one outcome.
_loaded: list = []


class KernelUnavailable(Exception):
    """The kernels could not be compiled or loaded."""


def _sources() -> tuple[Path, ...]:
    return (SOURCE, DECODER_SOURCE, PAIRS_SOURCE)


def _library_path() -> Path:
    """Where the library built from the current sources lives."""
    digest = hashlib.sha256()
    for source in _sources():
        digest.update(hashlib.sha256(source.read_bytes()).digest())
    digest.update("\0".join((*FLAGS, platform.machine())).encode())
    return SOURCE.parent / "__pycache__" / f"_kernels.{digest.hexdigest()[:16]}.so"


def _build(compiler: str, target: Path) -> None:
    target.parent.mkdir(exist_ok=True)
    temporary = target.with_name(f"{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        completed = subprocess.run(
            [compiler, *FLAGS, "-o", str(temporary), *map(str, _sources())],
            capture_output=True,
            text=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise KernelUnavailable(
                f"{compiler} exited with {completed.returncode}: "
                f"{completed.stderr.strip()[-400:]}"
            )
        os.replace(temporary, target)
    finally:
        temporary.unlink(missing_ok=True)


def _open(path: Path):
    import ctypes

    library = ctypes.CDLL(str(path))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    library.louvain_init_level.restype = f64
    library.louvain_init_level.argtypes = (i64, ptr, ptr, ptr, ptr, ptr, ptr)
    library.louvain_sweep.restype = i64
    library.louvain_sweep.argtypes = (i64,) + (ptr,) * 7 + (f64, f64, f64) + (ptr,) * 3
    library.louvain_aggregate.restype = i64
    library.louvain_aggregate.argtypes = (i64,) + (ptr,) * 5 + (i64,) + (ptr,) * 11
    # CSR graph queries: n, m, pairs and weights, capacity, outputs; the
    # graph's arrays, then ids and outputs; labels, scratch, outputs.
    library.csr_from_pairs.restype = i64
    library.csr_from_pairs.argtypes = (i64, i64) + (ptr,) * 3 + (i64,) + (ptr,) * 3
    library.csr_induced.restype = i64
    library.csr_induced.argtypes = (i64,) + (ptr,) * 3 + (i64, i64, ptr, i64) + (ptr,) * 4
    library.csr_community_sums.restype = i64
    library.csr_community_sums.argtypes = (i64,) + (ptr,) * 3 + (i64, ptr, i64, ptr, i64, ptr, ptr)
    library.louvain_parts.restype = i64
    library.louvain_parts.argtypes = (i64, ptr, i64, ptr, i64, ptr, i64, ptr, i64, ptr)
    library.jsonl_scan.restype = i64
    library.jsonl_scan.argtypes = (
        ctypes.c_char_p,  # data
        i64,  # start
        i64,  # end
        i64,  # row_cap
        ptr,  # ids
        ptr,  # status
        i64,  # table_size
        ptr,  # table
        ptr,  # entries
        ptr,  # text
        i64,  # text_cap
        ptr,  # stamps
        i64,  # stamp_cap
        i64,  # flag_cap
        ptr,  # flags
        ptr,  # counts
    )
    library.pair_counts.restype = i64
    library.pair_counts.argtypes = (
        i64,  # width
        i64,  # groups
        ptr,  # offsets
        ptr,  # ids
        i64,  # n_ids
        i64,  # row
        ptr,  # scratch
        i64,  # scratch_cap
        i64,  # out_cap
        ptr,  # firsts
        ptr,  # seconds
        ptr,  # counts
        ptr,  # next_row
    )
    return library


def _build_and_open():
    target = _library_path()
    if not target.is_file():
        compiler = shutil.which("cc") or shutil.which("gcc")
        if compiler is None:
            raise KernelUnavailable("no library built and no C compiler (cc or gcc) on PATH")
        _build(compiler, target)
    return _open(target)


def load():
    """The kernels' ctypes library, or ``None`` if it cannot be had."""
    if not _loaded:
        with _lock:
            if not _loaded:
                try:
                    library = _build_and_open()
                except (KernelUnavailable, OSError, subprocess.SubprocessError) as exc:
                    _LOGGER.warning(
                        "compiled kernels unavailable, running the pure-Python "
                        "reference (Louvain and the CSR graph's queries), the regex "
                        "loop (JSONL loader) and the Counter reference (pair "
                        "counting): %s",
                        exc,
                    )
                    library = None
                _loaded.append(library)
    return _loaded[0]
