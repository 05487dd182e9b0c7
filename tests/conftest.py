"""Shared fixtures.

The expensive artefacts (small synthetic dataset, its pipeline result)
are session-scoped: many integration tests read them, none mutates them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import SmashPipeline
from repro.httplog.loader import write_jsonl
from repro.stream.store import partition_digest
from repro.stream.window import redirects_to_dict, whois_to_list
from repro.synth import TraceGenerator, small_scenario


@pytest.fixture(scope="class", params=["kernel", "reference"])
def pair_path(request):
    """Run a graph-building test class on each pair-counting path.

    ``kernel`` leaves the compiled kernels to load as usual; ``reference``
    makes them unavailable, so ``sorted_pair_counts`` runs the
    ``Counter`` reference (and Louvain its pure-Python one).
    """
    from repro.graph import _kernel

    with pytest.MonkeyPatch.context() as patch:
        if request.param == "reference":
            patch.setattr(_kernel, "_loaded", [None])
        yield request.param


@pytest.fixture(scope="session")
def small_dataset():
    """One day of the small scenario (deterministic, seed 7)."""
    return TraceGenerator(small_scenario()).generate_day(0)


@pytest.fixture(scope="session")
def small_mined(small_dataset):
    """Mined dimensions for the small dataset (threshold-independent)."""
    return SmashPipeline().mine(small_dataset.trace, whois=small_dataset.whois)


@pytest.fixture(scope="session")
def small_result(small_dataset, small_mined):
    """Full SMASH result at the paper's default threshold (0.8)."""
    return SmashPipeline().finish(small_mined, redirects=small_dataset.redirects)


@pytest.fixture(scope="session")
def small_result_single(small_dataset, small_mined):
    """SMASH result at the single-client threshold (1.0)."""
    return SmashPipeline().finish(
        small_mined, redirects=small_dataset.redirects, thresh=1.0
    )


@pytest.fixture
def write_v1_partition():
    """A function that lays out a version-1 trace-store partition by hand.

    ``write(root, partition, digest=None, whois_indent=None)`` writes the
    files and manifest builds before store format 2 wrote, addressed by
    *digest* (default: :func:`partition_digest` of *partition*), and
    returns the digest.  *whois_indent* gives the earlier indented
    whois.json layout.
    """

    def write(root, partition, digest=None, whois_indent=None) -> str:
        digest = digest or partition_digest(partition)
        directory = Path(root) / f"day-{partition.day:05d}-{digest[:12]}"
        directory.mkdir(parents=True)
        write_jsonl(partition.trace, directory / "trace.jsonl")
        if partition.whois is not None:
            records = whois_to_list(partition.whois)
            text = (
                json.dumps(records, indent=whois_indent)
                if whois_indent
                else json.dumps(records, separators=(",", ":"))
            )
            (directory / "whois.json").write_text(text + "\n")
        if partition.redirects is not None:
            mapping = redirects_to_dict(partition.redirects)
            (directory / "redirects.json").write_text(json.dumps(mapping, sort_keys=True) + "\n")
        manifest = {
            "format": "repro.stream.store",
            "version": 1,
            "day": partition.day,
            "digest": digest,
            "trace_name": partition.trace.name,
            "num_requests": len(partition.trace),
            "has_whois": partition.whois is not None,
            "has_redirects": partition.redirects is not None,
        }
        (directory / "MANIFEST.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        return digest

    return write
