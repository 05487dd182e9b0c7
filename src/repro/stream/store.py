"""On-disk store of day partitions for the streaming engine.

PR 1's checkpoints embedded every windowed day's trace in one JSON blob,
so both checkpoint size and save time grew linearly with the window.
:class:`TraceStore` moves the bulk data out of the checkpoint: each
:class:`~repro.stream.window.DayPartition` is persisted once as its own
directory of plain files (trace JSONL plus the whois/redirect sidecars,
the same layout ``repro generate`` emits), content-addressed by a digest
of the bytes written.  Window state then serialises as ``(day, digest)``
references — a checkpoint is metadata plus tracker state, a few KB
regardless of window length — and :class:`PartitionRef` handles load the
heavy data back lazily, only when the window actually needs it (i.e. on
the first advance after a resume).

Layout under the store root::

    store/
      day-00004-3f9ae1c20b77/
        MANIFEST.json     # format, version, day, trace name, request count, digest
        trace.jsonl       # the day's requests
        whois.json        # only when the partition has a registry
        redirects.json    # only when the partition has an oracle
      maps/
        day-00004-<key>.<sha256>.json   # one day's map output, per extraction key
      maps.quarantine/    # map outputs that failed verification, with REASON.json
      .partials/          # transient spills of running mines (empty at rest)

A version-2 partition's digest (:data:`STORE_VERSION`) is the sha256 of
the canonical JSON of its manifest fields other than the digest, plus
each file's name, byte length and sha256, in the order trace.jsonl,
whois.json, redirects.json.  :meth:`TraceStore.put` hashes each file's
chunks as it writes them, so no row is encoded twice, and the writer is
canonical: equal partitions get equal bytes and so the same address,
and a change to the writer's bytes is a format change.  A load reads
each file once, checks the digest before it parses anything, then
parses the verified buffers.  Version-1 partitions, addressed by
:func:`partition_digest` of the decoded content, keep loading and
verifying, so one window (and one checkpoint) may mix both versions.

Writes are atomic (temp directory + rename) and idempotent: re-putting
an identical partition is a no-op, re-putting a *different* partition
for the same day gets a different digest directory.  A truncated or
hand-edited partition, or a manifest with a missing or ill-typed field,
raises :class:`~repro.errors.StreamError` instead of silently
corrupting the stream.

:class:`MapOutputStore` keeps what the out-of-core mine extracted from
each partition (``maps/``), keyed by the partition digest and the
extraction settings, with the sha256 of the file's bytes in its name:
a window advance maps only the entering day and merges the stored
outputs of the others.  :class:`PartialStore` applies the same
digest-verified contract to the sharded mine's transient spill files
(per-job index partials, and the input slices handed to out-of-process
map jobs) under ``<store>/.partials`` — or any scratch directory when no store is
attached.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import shutil
import threading
import time
from collections.abc import Iterable
from pathlib import Path

from repro.errors import StreamError
from repro.httplog.loader import jsonl_chunks, parse_jsonl
from repro.httplog.records import FIELDS, record_dict
from repro.httplog.trace import HttpTrace
from repro.obs.metrics import NULL_RECORDER
from repro.stream.window import (
    DayPartition,
    redirects_to_dict,
    whois_from_list,
    whois_to_list,
)
from repro.synth.oracles import RedirectOracle
from repro.whois.registry import WhoisRegistry

#: Version of the partitions :meth:`TraceStore.put` writes.  Bump on any
#: change to the layout or to the bytes written: a version-2 address is
#: the hash of those bytes.
STORE_VERSION = 2

#: Partition versions :meth:`TraceStore.get` reads.
_READABLE_VERSIONS = (1, 2)

_FORMAT = "repro.stream.store"
_MANIFEST_NAME = "MANIFEST.json"
_TRACE_NAME = "trace.jsonl"
_WHOIS_NAME = "whois.json"
_REDIRECTS_NAME = "redirects.json"

#: Hex digits of the content digest used in directory names; enough to
#: make day-level collisions implausible while keeping paths readable.
_DIGEST_PREFIX = 12

_SHA256_HEX = re.compile(r"[0-9a-f]{64}")

#: trace.jsonl's key of each trace column.
_RECORD_KEYS = tuple(record_dict(*FIELDS))

#: What each manifest field must hold: ``(field, test, description)``.
#: ``day`` is checked against the day being addressed.
_MANIFEST_FIELDS = (
    ("format", lambda value: value == _FORMAT, repr(_FORMAT)),
    ("version", lambda value: type(value) is int and value in _READABLE_VERSIONS, "1 or 2"),
    ("trace_name", lambda value: isinstance(value, str), "a string"),
    ("num_requests", lambda value: type(value) is int and value >= 0, "a non-negative integer"),
    ("has_whois", lambda value: isinstance(value, bool), "a boolean"),
    ("has_redirects", lambda value: isinstance(value, bool), "a boolean"),
    (
        "digest",
        lambda value: isinstance(value, str) and _SHA256_HEX.fullmatch(value) is not None,
        "64 lowercase hex digits",
    ),
)


def partition_digest(partition: DayPartition) -> str:
    """Version-1 address: the sha256 of the partition's canonical document.

    The document is ``json.dumps(partition.to_dict(), sort_keys=True,
    separators=(",", ":"))``.  Only version-1 loads use it; a version-2
    address hashes the bytes written instead (:func:`_content_digest`).
    """
    payload = json.dumps(partition.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _content_digest(manifest: dict, files: list[tuple[str, int, str]]) -> str:
    """Version-2 address of a partition whose files are *files*.

    *files* holds each written file's ``(name, byte length, sha256)``;
    the hashed document also carries every field of *manifest* but the
    digest.
    """
    document = {key: value for key, value in manifest.items() if key != "digest"}
    document["files"] = [list(entry) for entry in files]
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _write_hashed(path: Path, chunks: Iterable[bytes]) -> tuple[str, int, str]:
    """Write *chunks* to *path*; returns the file's ``(name, byte length, sha256)``."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "wb") as handle:
        for chunk in chunks:
            digest.update(chunk)
            size += handle.write(chunk)
            del chunk  # not held while the next chunk is encoded
    return path.name, size, digest.hexdigest()


def _read_manifest(path: Path, day: int) -> dict:
    """The manifest of partition directory *path*, checked field by field.

    Raises :class:`~repro.errors.StreamError` naming the file and the
    first field that is missing or ill-typed, or whose ``day`` is not
    the *day* being addressed.
    """
    file = path / _MANIFEST_NAME
    try:
        manifest = json.loads(file.read_bytes())
    except (OSError, ValueError) as error:
        raise StreamError(f"corrupt partition manifest {file}: {error}") from error
    if not isinstance(manifest, dict):
        raise StreamError(f"corrupt partition manifest {file}: not a JSON object")
    fields = _MANIFEST_FIELDS + (
        ("day", lambda value: type(value) is int and value == day, f"the integer {day}"),
    )
    for field, valid, expected in fields:
        if field not in manifest:
            raise StreamError(f"invalid partition manifest {file}: field {field!r} is missing")
        if not valid(manifest[field]):
            raise StreamError(
                f"invalid partition manifest {file}: field {field!r} must be {expected}, "
                f"not {manifest[field]!r}"
            )
    return manifest


class PartitionRef:
    """Lazy handle to a day partition resident in a :class:`TraceStore`.

    The streaming window holds these instead of full partitions: ``day``
    and ``digest`` are enough to checkpoint, and :meth:`load` memoises
    the materialised partition so the live path reads the disk at most
    once per resume.  The partition's sidecars outlive :meth:`release`,
    which drops only the trace.
    """

    __slots__ = ("day", "digest", "_store", "_partition", "_sidecars")

    def __init__(
        self,
        day: int,
        digest: str,
        store: "TraceStore",
        partition: DayPartition | None = None,
    ) -> None:
        self.day = day
        self.digest = digest
        self._store = store
        self._partition: DayPartition | None = None
        self._sidecars: tuple[WhoisRegistry | None, RedirectOracle | None] | None = None
        if partition is not None:
            self._hold(partition)

    def _hold(self, partition: DayPartition) -> None:
        self._partition = partition
        self._sidecars = (partition.whois, partition.redirects)

    def load(self) -> DayPartition:
        """Materialise the partition (verified against its digest)."""
        if self._partition is None:
            self._hold(self._store.get(self.day, digest=self.digest))
        return self._partition  # type: ignore[return-value]

    def sidecars(self) -> tuple[WhoisRegistry | None, RedirectOracle | None]:
        """The partition's (whois, redirects), loading it only if never held."""
        if self._sidecars is None:
            self.load()
        return self._sidecars  # type: ignore[return-value]

    def release(self) -> None:
        """Drop the memoised trace; the sidecars and the on-disk copy remain."""
        self._partition = None

    def to_dict(self) -> dict[str, object]:
        return {"day": self.day, "digest": self.digest}

    def __repr__(self) -> str:
        loaded = "loaded" if self._partition is not None else "on disk"
        return f"PartitionRef(day={self.day}, digest={self.digest[:12]}, {loaded})"


class TraceStore:
    """Persist day partitions as content-addressed on-disk directories."""

    def __init__(self, root: str | Path, metrics=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Recorder for load/store timings and byte counters; the shared
        #: no-op unless the streaming engine (or a caller) attaches one.
        self.metrics = metrics or NULL_RECORDER

    # -- addressing ---------------------------------------------------------------

    @staticmethod
    def _dirname(day: int, digest: str) -> str:
        return f"day-{day:05d}-{digest[:_DIGEST_PREFIX]}"

    def path_of(self, day: int, digest: str) -> Path:
        """Directory a (day, digest) partition lives in (may not exist)."""
        return self.root / self._dirname(day, digest)

    def _find(self, day: int, digest: str | None = None) -> Path | None:
        if digest is not None:
            path = self.path_of(day, digest)
            return path if path.is_dir() else None
        # Orphaned ``.tmp-<pid>`` directories from a crashed put() are
        # never valid partitions, whatever they contain.
        matches = sorted(
            path
            for path in self.root.glob(f"day-{day:05d}-*")
            if ".tmp-" not in path.name
        )
        return matches[-1] if matches else None

    def days(self) -> tuple[int, ...]:
        """Sorted day indices with at least one stored partition."""
        found: set[int] = set()
        for path in self.root.glob("day-*-*"):
            if ".tmp-" in path.name or not (path / _MANIFEST_NAME).is_file():
                continue
            try:
                found.add(int(path.name.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return tuple(sorted(found))

    def has(self, day: int, digest: str | None = None) -> bool:
        path = self._find(day, digest)
        return path is not None and (path / _MANIFEST_NAME).is_file()

    # -- write path ---------------------------------------------------------------

    def put(self, partition: DayPartition) -> PartitionRef:
        """Persist *partition*; idempotent for identical content."""
        with self.metrics.span(
            "store.put", metric="smash_store_put_seconds", day=partition.day
        ) as span:
            ref, written = self._put(partition)
        if self.metrics.enabled:
            span.set(digest=ref.digest[:_DIGEST_PREFIX], wrote=written > 0)
            if written:
                self.metrics.counter(
                    "smash_store_bytes_written_total",
                    "Bytes of partition files written to the trace store.",
                ).inc(written)
        return ref

    def _put(self, partition: DayPartition) -> tuple[PartitionRef, int]:
        """Write *partition*; returns its handle and the bytes it added to the store.

        The address is known only once the files are written, so they
        go to a temporary directory that is renamed into place, or
        dropped when the same content is already stored.
        """
        day = partition.day
        tmp = self.root / f"day-{day:05d}.tmp-{os.getpid()}-{threading.get_ident()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        try:
            files = [_write_hashed(tmp / _TRACE_NAME, jsonl_chunks(partition.trace))]
            if partition.whois is not None:
                # Compact: an indent would force json's pure-Python encoder.
                text = json.dumps(whois_to_list(partition.whois), separators=(",", ":"))
                files.append(_write_hashed(tmp / _WHOIS_NAME, [f"{text}\n".encode("utf-8")]))
            if partition.redirects is not None:
                text = json.dumps(redirects_to_dict(partition.redirects), sort_keys=True)
                files.append(_write_hashed(tmp / _REDIRECTS_NAME, [f"{text}\n".encode("utf-8")]))
            manifest = {
                "format": _FORMAT,
                "version": STORE_VERSION,
                "day": day,
                "trace_name": partition.trace.name,
                "num_requests": len(partition.trace),
                "has_whois": partition.whois is not None,
                "has_redirects": partition.redirects is not None,
            }
            digest = manifest["digest"] = _content_digest(manifest, files)
            ref = PartitionRef(day, digest, self, partition)
            final = self.path_of(day, digest)
            if (final / _MANIFEST_NAME).is_file():  # identical content already stored
                shutil.rmtree(tmp)
                return ref, 0
            # The manifest is written last: a crash mid-put leaves a
            # directory `has()`/`get()` treat as absent.
            encoded = (json.dumps(manifest, indent=1, sort_keys=True) + "\n").encode("utf-8")
            (tmp / _MANIFEST_NAME).write_bytes(encoded)
            try:
                os.replace(tmp, final)
            except OSError as error:
                # A concurrent writer renamed the same content into
                # place after our check; content addressing makes that
                # a success, anything else is a real store failure.
                shutil.rmtree(tmp, ignore_errors=True)
                if not (final / _MANIFEST_NAME).is_file():
                    raise StreamError(
                        f"could not persist partition into {final}: {error}"
                    ) from error
                return ref, 0
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return ref, sum(size for _, size, _ in files) + len(encoded)

    # -- read path ----------------------------------------------------------------

    def get(self, day: int, digest: str | None = None) -> DayPartition:
        """Load a stored partition, verifying content against its digest.

        Without *digest* the day must be unambiguous; when several
        content variants of one day exist, callers must address the one
        they mean.
        """
        with self.metrics.span(
            "store.get", metric="smash_store_get_seconds", day=day
        ):
            return self._load(day, digest, sidecars=True)

    def get_trace(self, day: int, digest: str | None = None) -> HttpTrace:
        """A stored partition's trace alone, verified as :meth:`get` verifies it.

        Every file is still read and hashed, but a version-2 partition's
        whois/redirect sidecars are not parsed.
        """
        with self.metrics.span(
            "store.get", metric="smash_store_get_seconds", day=day
        ):
            return self._load(day, digest, sidecars=False).trace

    def _locate(self, day: int, digest: str | None) -> Path:
        if digest is None:
            variants = [
                path
                for path in self.root.glob(f"day-{day:05d}-*")
                if ".tmp-" not in path.name and (path / _MANIFEST_NAME).is_file()
            ]
            if len(variants) > 1:
                raise StreamError(
                    f"trace store {self.root} holds {len(variants)} variants of "
                    f"day {day}; pass the digest of the one you mean"
                )
        path = self._find(day, digest)
        if path is None or not (path / _MANIFEST_NAME).is_file():
            wanted = f"day {day}" if digest is None else f"day {day} ({digest[:12]})"
            raise StreamError(f"trace store {self.root} has no partition for {wanted}")
        return path

    def _load(self, day: int, digest: str | None, sidecars: bool) -> DayPartition:
        path = self._locate(day, digest)
        manifest = _read_manifest(path, day)
        names = [_TRACE_NAME]
        if manifest["has_whois"]:
            names.append(_WHOIS_NAME)
        if manifest["has_redirects"]:
            names.append(_REDIRECTS_NAME)
        blobs: dict[str, bytes] = {}
        files: list[tuple[str, int, str]] = []
        for name in names:
            try:
                data = (path / name).read_bytes()
            except OSError as error:
                raise StreamError(f"corrupt partition in {path}: {error}") from error
            files.append((name, len(data), hashlib.sha256(data).hexdigest()))
            if name == _TRACE_NAME or sidecars or manifest["version"] == 1:
                blobs[name] = data
        if manifest["version"] == 1:
            # A version-1 address covers the decoded content, not the bytes.
            partition = _parse(path, manifest, blobs)
            actual = partition_digest(partition)
        else:
            actual = _content_digest(manifest, files)
        verified = actual == manifest["digest"] and (digest is None or actual == digest)
        if self.metrics.enabled:
            self.metrics.counter(
                "smash_store_digest_verifications_total",
                "Partition loads checked against their content digest.",
                labels=("result",),
            ).labels(result="ok" if verified else "mismatch").inc()
            self.metrics.counter(
                "smash_store_bytes_read_total",
                "Bytes of partition files read back from the trace store.",
            ).inc(sum(size for _, size, _ in files) + (path / _MANIFEST_NAME).stat().st_size)
        if not verified:
            raise StreamError(
                f"corrupt partition in {path}: content digest {actual[:12]} does not "
                f"match stored digest {(digest or manifest['digest'])[:12]}"
            )
        if manifest["version"] == 1:
            return partition
        return _parse(path, manifest, blobs)

    def ref(self, day: int, digest: str) -> PartitionRef:
        """Unloaded handle for a stored partition; fails fast if absent."""
        if not self.has(day, digest):
            raise StreamError(
                f"trace store {self.root} has no partition for day {day} "
                f"({digest[:12]}); was the store moved or pruned?"
            )
        return PartitionRef(day, digest, self)

    def request_count(self, day: int, digest: str) -> int:
        """Request count of a stored partition, from its manifest alone.

        The out-of-core coordinator sizes shard cuts from these counts
        without materialising a single request; only the small manifest
        file is read.
        """
        path = self._find(day, digest)
        if path is None or not (path / _MANIFEST_NAME).is_file():
            raise StreamError(
                f"trace store {self.root} has no partition for day {day} "
                f"({digest[:12]})"
            )
        return _read_manifest(path, day)["num_requests"]

    def total_bytes(self) -> int:
        """Bytes used by all stored partitions (for the bench harness)."""
        return sum(
            path.stat().st_size for path in self.root.rglob("*") if path.is_file()
        )

    def partials_dir(self) -> Path:
        """Scratch directory for sharded-mine partial spills.

        Lives under the store root so a store-backed stream's spill I/O
        shares the store's volume, but is *not* content-addressed stream
        history: partials are transient per-mine state, deleted by the
        :class:`PartialStore` that wrote them.
        """
        return self.root / ".partials"

    def map_outputs(self) -> "MapOutputStore":
        """The stored map outputs of this store's partitions (``maps/``)."""
        return MapOutputStore(self.root / "maps")

    def __repr__(self) -> str:
        return f"TraceStore(root={str(self.root)!r}, days={len(self.days())})"


def _parse(path: Path, manifest: dict, blobs: dict[str, bytes]) -> DayPartition:
    """The partition in *blobs*, the bytes of *path*'s files by name.

    A sidecar absent from *blobs* is left unparsed (``None``).
    """
    try:
        data = blobs[_TRACE_NAME]
        if manifest["version"] == 1:
            # A version-1 address hashes the values written, as JSON
            # decodes them; the loader would turn an integral timestamp
            # into a float and so miss the address.
            rows = [json.loads(line) for line in data.splitlines() if line.strip()]
            trace = HttpTrace.from_columns(
                [[row[key] for row in rows] for key in _RECORD_KEYS], name=manifest["trace_name"]
            )
        else:
            trace = parse_jsonl(data, path / _TRACE_NAME, manifest["trace_name"])
        whois = redirects = None
        if _WHOIS_NAME in blobs:
            whois = whois_from_list(json.loads(blobs[_WHOIS_NAME]))
        if _REDIRECTS_NAME in blobs:
            redirects = RedirectOracle.from_dict(json.loads(blobs[_REDIRECTS_NAME]))
    except Exception as error:  # bad JSON, bad records
        raise StreamError(f"corrupt partition in {path}: {error}") from error
    return DayPartition(day=manifest["day"], trace=trace, whois=whois, redirects=redirects)


class PartialStore:
    """Digest-verified spill directory for sharded-mine partials.

    The sharded mine bounds its peak memory by writing each map-phase
    partial (a shard's inverted indexes) to disk
    as soon as it is produced and merging them back one at a time.  Each
    partial is one JSON file addressed by name; :meth:`put` returns the
    payload's sha256 digest and :meth:`load` recomputes and compares it,
    so a truncated or hand-edited partial raises
    :class:`~repro.errors.StreamError` instead of silently corrupting
    the merge — the same contract :class:`TraceStore` applies to day
    partitions.

    Workers (possibly in other processes) construct their own
    ``PartialStore`` over the shared root and ``put``; the coordinator
    ``load``s by (name, digest) and ``delete``s after merging.
    """

    #: Ownership marker a coordinator writes into its spill root; the
    #: orphan collector treats a directory whose owner pid is still
    #: alive as in use regardless of age.
    OWNER_NAME = "OWNER"

    #: Spill directories older than this (by mtime) whose owner process
    #: is gone are garbage-collected on the next mine over the same
    #: parent.  Generous: a healthy mine deletes its own spill root in
    #: a ``finally`` long before this.
    GC_GRACE_SECONDS = 900.0

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_of(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def claim(self) -> None:
        """Mark this spill root as owned by the current process.

        Crash-safety bookkeeping only: :meth:`gc_orphans` on a later run
        keeps claimed directories whose owner is still alive and removes
        the rest once they age past the grace period.
        """
        (self.root / self.OWNER_NAME).write_text(f"{os.getpid()}\n")

    @staticmethod
    def _owner_alive(path: Path) -> bool:
        try:
            pid = int((path / PartialStore.OWNER_NAME).read_text().strip())
        except (OSError, ValueError):
            # No (or unreadable) ownership marker: a pre-claim crash or a
            # foreign directory; age alone decides.
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - pid owned by another user
            return True
        except OSError:  # pragma: no cover - conservative default
            return True
        return True

    @classmethod
    def gc_orphans(
        cls, parent: Path, grace_seconds: float = GC_GRACE_SECONDS
    ) -> list[Path]:
        """Remove stale ``mine-*`` spill directories under *parent*.

        A crashed coordinator never reaches its ``cleanup()``; its spill
        directory would otherwise leak forever under the store's
        ``.partials`` dir.  A directory is removed only when **both**
        hold: its mtime is at least *grace_seconds* old (never races a
        freshly created sibling) and its recorded owner process is gone
        (a live pid keeps the directory regardless of age).  Returns the
        removed paths.
        """
        removed: list[Path] = []
        if not parent.is_dir():
            return removed
        now = time.time()
        for path in sorted(parent.glob("mine-*")):
            if not path.is_dir():
                continue
            if path.name.endswith(".quarantine"):
                # Quarantined evidence from failed shard attempts is kept
                # for inspection; only an operator removes it.
                continue
            try:
                age = now - path.stat().st_mtime
            except OSError:  # pragma: no cover - raced deletion
                continue
            if age < grace_seconds or cls._owner_alive(path):
                continue
            shutil.rmtree(path, ignore_errors=True)
            removed.append(path)
        return removed

    def put(self, name: str, payload: dict) -> tuple[str, int]:
        """Write one partial; returns ``(digest, bytes written)``.

        The finalization is atomic (``*.tmp`` + fsync + ``os.replace``)
        so a killed worker can never publish a torn partial under a
        valid name — the digest check is a backstop, not the only gate.
        """
        encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        digest = hashlib.sha256(encoded).hexdigest()
        final = self.path_of(name)
        # Unique per writer *thread*, not just per process: pool-executor
        # workers spilling the same name from one coordinator must never
        # share a tmp path.
        tmp = final.with_name(
            final.name + f".tmp-{os.getpid()}-{threading.get_ident()}"
        )
        with open(tmp, "wb") as handle:
            handle.write(encoded)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        return digest, len(encoded)

    def _read_verified(self, name: str, digest: str) -> bytes:
        """The partial's bytes, or a *retryable* :class:`StreamError`.

        Spilled partials are re-creatable (unlike source partitions), so
        a missing or torn spill is marked ``retryable`` — the dispatch
        retry policy re-runs the shard job on a fresh spill name.
        """
        path = self.path_of(name)
        try:
            encoded = path.read_bytes()
        except OSError as error:
            missing = StreamError(f"missing spilled partial {path}: {error}")
            missing.retryable = True
            raise missing from error
        actual = hashlib.sha256(encoded).hexdigest()
        if actual != digest:
            mismatch = StreamError(
                f"corrupt spilled partial {path}: content digest {actual} "
                f"does not match expected {digest}"
            )
            mismatch.retryable = True
            raise mismatch
        return encoded

    def verify(self, name: str, digest: str) -> None:
        """Check one partial's bytes against *digest* without decoding it.

        The post-attempt gate in :func:`repro.core.faults.run_with_retry`:
        a worker's reply only counts as success once the spilled bytes it
        names actually match the digest it reported.
        """
        self._read_verified(name, digest)

    def load(self, name: str, digest: str) -> dict:
        """Read one partial back, verifying its content digest."""
        path = self.path_of(name)
        encoded = self._read_verified(name, digest)
        try:
            payload = json.loads(encoded)
        except json.JSONDecodeError as error:  # pragma: no cover - digest gate
            raise StreamError(f"corrupt spilled partial {path}: {error}") from error
        if not isinstance(payload, dict):
            raise StreamError(f"corrupt spilled partial {path}: not a JSON object")
        return payload

    @staticmethod
    def quarantine_root(spill_root: Path) -> Path:
        """Where failed partials from *spill_root* are preserved.

        Under a :class:`TraceStore`'s ``.partials`` parent the layout is
        ``<store>/.partials/quarantine/``; elsewhere (ad-hoc temp spill
        dirs) a ``<spill_root>.quarantine`` sibling, which survives the
        spill root's own ``cleanup()``.
        """
        spill_root = Path(spill_root)
        if spill_root.parent.name == ".partials":
            return spill_root.parent / "quarantine"
        return spill_root.with_name(spill_root.name + ".quarantine")

    def quarantine(self, name: str, reason: dict) -> Path | None:
        """Preserve a failed attempt's spill (if any) with a reason file.

        Moves ``<name>.json`` — when the attempt got far enough to spill
        one — into a per-attempt directory under :meth:`quarantine_root`
        and writes ``REASON.json`` describing the failure, instead of
        deleting the evidence.  Best-effort: returns the entry directory,
        or ``None`` when bookkeeping itself fails (quarantine must never
        mask the error being recorded).
        """
        try:
            entry = self.quarantine_root(self.root) / f"{self.root.name}-{name}"
            entry.mkdir(parents=True, exist_ok=True)
            source = self.path_of(name)
            if source.exists():
                os.replace(source, entry / source.name)
            (entry / "REASON.json").write_text(
                json.dumps(reason, indent=2, sort_keys=True) + "\n"
            )
            return entry
        except OSError:  # pragma: no cover - disk trouble during failure handling
            return None

    def delete(self, name: str) -> None:
        """Drop one merged partial (missing files are fine)."""
        try:
            self.path_of(name).unlink()
        except FileNotFoundError:
            pass

    def cleanup(self) -> None:
        """Remove the spill directory and anything left in it."""
        shutil.rmtree(self.root, ignore_errors=True)


class MapOutputStore(PartialStore):
    """Digest-verified map outputs of stored day partitions (``maps/``).

    One output is one JSON file ``<key>.<sha256>.json``: the caller's
    *key* names what was mapped (a partition and the extraction
    settings), and the sha256 of the file's bytes travels in the name,
    so a reader checks a file before it trusts it.  Reads, verification
    and quarantine are :class:`PartialStore`'s, with ``<key>.<sha256>``
    as the partial's name.
    """

    def find(self, key: str) -> str | None:
        """Name of the stored output for *key* whose bytes match it, or None.

        A file under *key* that fails the check is quarantined with a
        ``REASON.json`` on the way, so the caller maps the partition again.
        """
        for path in sorted(self.root.glob(f"{key}.*.json")):
            name = path.name[: -len(".json")]
            try:
                self.verify(name, name.rpartition(".")[2])
            except StreamError as error:
                self.quarantine(name, {"key": key, "message": str(error)})
                continue
            return name
        return None

    def promote(self, source: Path, key: str, digest: str) -> str:
        """Move a verified spill into place as the output for *key*.

        A rename on the same volume is atomic; a spill on another volume
        is first copied beside its final name, which then appears in one
        rename all the same.  Returns the output's name.
        """
        name = f"{key}.{digest}"
        final = self.path_of(name)
        try:
            os.replace(source, final)
        except OSError as error:
            if error.errno != errno.EXDEV:
                raise
            tmp = final.with_name(final.name + f".tmp-{os.getpid()}-{threading.get_ident()}")
            shutil.copyfile(source, tmp)
            os.replace(tmp, final)
            os.unlink(source)
        return name
