"""Packaging for the SMASH reproduction.

Metadata lives here rather than in ``pyproject.toml``: the offline
environment lacks the ``wheel`` package, so PEP-517 installs (which
build a wheel) fail — use ``python setup.py develop`` there instead
(modern pip rejects ``--no-use-pep517`` without wheel).  Environments
with wheel available install normally with ``pip install -e .``.
``pyproject.toml`` carries only the build backend declaration and tool
configuration (pytest).
"""

from setuptools import find_packages, setup

setup(
    name="repro-smash",
    version="1.0.0",
    description=(
        "Reproduction of SMASH: Systematic Mining of Associated Server "
        "Herds for Malware Campaign Discovery (ICDCS 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The compiled kernels (Louvain, JSONL decoder, pair counter) ship as
    # C source; repro.graph._kernel builds the three into one library
    # with the system C compiler on first use.
    package_data={
        "repro.core": ["_pairs_kernel.c"],
        "repro.graph": ["_louvain_kernel.c"],
        "repro.httplog": ["_jsonl_kernel.c"],
    },
    python_requires=">=3.10",
    extras_require={
        # The CSR graph fast path (repro.graph.csr) and with it the
        # compiled Louvain kernel auto-engage when numpy is importable and
        # produce byte-identical output either way; the core stays
        # dependency-free.
        "fast": ["numpy>=1.24"],
    },
    entry_points={
        "console_scripts": [
            "smash = repro.cli:main",
        ],
    },
)
