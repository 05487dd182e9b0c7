"""On-disk store of day partitions for the streaming engine.

PR 1's checkpoints embedded every windowed day's trace in one JSON blob,
so both checkpoint size and save time grew linearly with the window.
:class:`TraceStore` moves the bulk data out of the checkpoint: each
:class:`~repro.stream.window.DayPartition` is persisted once as its own
directory of plain files (trace JSONL plus the whois/redirect sidecars,
the same layout ``repro generate`` emits), content-addressed by a digest
of the partition's canonical serialisation.  Window state then
serialises as ``(day, digest)`` references — a checkpoint is metadata
plus tracker state, a few KB regardless of window length — and
:class:`PartitionRef` handles load the heavy data back lazily, only when
the window actually needs it (i.e. on the first advance after a resume).

Layout under the store root::

    store/
      day-00004-3f9ae1c20b77/
        MANIFEST.json     # day, digest, trace name, request count
        trace.jsonl       # the day's requests
        whois.json        # only when the partition has a registry
        redirects.json    # only when the partition has an oracle
      maps/
        day-00004-<key>.<sha256>.json   # one day's map output, per extraction key
      maps.quarantine/    # map outputs that failed verification, with REASON.json
      .partials/          # transient spills of running mines (empty at rest)

Writes are atomic (temp directory + rename) and idempotent: re-putting
an identical partition is a no-op, re-putting a *different* partition
for the same day gets a different digest directory.  Every load
recomputes the content digest and compares it to the address, so a
truncated or hand-edited partition raises
:class:`~repro.errors.StreamError` instead of silently corrupting the
stream.

:class:`MapOutputStore` keeps what the out-of-core mine extracted from
each partition (``maps/``), keyed by the partition digest and the
extraction settings, with the sha256 of the file's bytes in its name:
a window advance maps only the entering day and merges the stored
outputs of the others.  :class:`PartialStore` applies the same
digest-verified contract to the sharded mine's transient spill files
(per-job index partials, per-bucket pair-count partials) under
``<store>/.partials`` — or any scratch directory when no store is
attached.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import threading
import time
from pathlib import Path

from repro.errors import StreamError
from repro.httplog.loader import encode_rows, read_jsonl, write_jsonl
from repro.obs.metrics import NULL_RECORDER
from repro.stream.window import (
    DayPartition,
    redirects_to_dict,
    whois_from_list,
    whois_to_list,
)
from repro.synth.oracles import RedirectOracle
from repro.whois.registry import WhoisRegistry

#: Bump on any incompatible change to the partition layout.
STORE_VERSION = 1

_MANIFEST_NAME = "MANIFEST.json"
_TRACE_NAME = "trace.jsonl"
_WHOIS_NAME = "whois.json"
_REDIRECTS_NAME = "redirects.json"

#: Hex digits of the content digest used in directory names; enough to
#: make day-level collisions implausible while keeping paths readable.
_DIGEST_PREFIX = 12


def partition_digest(partition: DayPartition) -> str:
    """Content digest of a partition's canonical JSON serialisation.

    That is the sha256 of ``json.dumps(partition.to_dict(),
    sort_keys=True, separators=(",", ":"))``, fed piecewise instead of
    built: the document's text around an empty request list, with the
    rows :func:`~repro.httplog.loader.encode_rows` gives in sort-keys
    order joined by ``","`` in between.
    """
    envelope = json.dumps(
        partition.envelope([]), sort_keys=True, separators=(",", ":")
    )
    # Quotes inside JSON strings are escaped, so only the key spells this.
    head, tail = envelope.split('"requests":[]')
    digest = hashlib.sha256(f'{head}"requests":['.encode("utf-8"))
    for index, rows in enumerate(encode_rows(partition.trace, sort_keys=True)):
        if index:
            digest.update(b",")
        digest.update(",".join(rows).encode("utf-8"))
    digest.update(f"]{tail}".encode("utf-8"))
    return digest.hexdigest()


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
            ref, wrote = self._put(partition)
        if self.metrics.enabled:
            span.set(digest=ref.digest[:_DIGEST_PREFIX], wrote=wrote)
            if wrote:
                final = self.path_of(partition.day, ref.digest)
                self.metrics.counter(
                    "smash_store_bytes_written_total",
                    "Bytes of partition files written to the trace store.",
                ).inc(
                    sum(p.stat().st_size for p in final.iterdir() if p.is_file())
                )
        return ref

    def _put(self, partition: DayPartition) -> tuple[PartitionRef, bool]:
        digest = partition_digest(partition)
        final = self.path_of(partition.day, digest)
        if (final / _MANIFEST_NAME).is_file():
            return PartitionRef(partition.day, digest, self, partition), False

        tmp = final.with_name(
            final.name + f".tmp-{os.getpid()}-{threading.get_ident()}"
        )
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        try:
            write_jsonl(partition.trace, tmp / _TRACE_NAME)
            if partition.whois is not None:
                # Compact: an indent would force json's pure-Python encoder.
                (tmp / _WHOIS_NAME).write_text(
                    json.dumps(whois_to_list(partition.whois), separators=(",", ":")) + "\n"
                )
            if partition.redirects is not None:
                (tmp / _REDIRECTS_NAME).write_text(
                    json.dumps(
                        redirects_to_dict(partition.redirects), sort_keys=True
                    )
                    + "\n"
                )
            manifest = {
                "format": "repro.stream.store",
                "version": STORE_VERSION,
                "day": partition.day,
                "digest": digest,
                "trace_name": partition.trace.name,
                "num_requests": len(partition.trace),
                "has_whois": partition.whois is not None,
                "has_redirects": partition.redirects is not None,
            }
            # The manifest is written last: a crash mid-put leaves a
            # directory `has()`/`get()` treat as absent.
            (tmp / _MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=1, sort_keys=True) + "\n"
            )
            if final.exists():  # identical content raced in; keep it
                shutil.rmtree(tmp)
            else:
                try:
                    os.replace(tmp, final)
                except OSError as error:
                    # A concurrent writer renamed the same content into
                    # place between our exists() check and the rename;
                    # content addressing makes that a success, anything
                    # else is a real store failure.
                    shutil.rmtree(tmp, ignore_errors=True)
                    if not (final / _MANIFEST_NAME).is_file():
                        raise StreamError(
                            f"could not persist partition into {final}: {error}"
                        ) from error
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return PartitionRef(partition.day, digest, self, partition), True

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
            return self._get(day, digest)

    def _get(self, day: int, digest: str | None = None) -> DayPartition:
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
        try:
            manifest = json.loads((path / _MANIFEST_NAME).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise StreamError(f"corrupt partition manifest in {path}: {error}") from error
        if not isinstance(manifest, dict) or manifest.get("format") != "repro.stream.store":
            raise StreamError(f"{path} is not a trace-store partition")
        if manifest.get("version") != STORE_VERSION:
            raise StreamError(
                f"partition version {manifest.get('version')!r} in {path} unsupported "
                f"(this build reads version {STORE_VERSION})"
            )

        expected = str(manifest.get("digest", ""))
        try:
            trace = read_jsonl(
                path / _TRACE_NAME, name=str(manifest.get("trace_name", "trace"))
            )
            whois_path = path / _WHOIS_NAME
            whois = (
                whois_from_list(json.loads(whois_path.read_text()))
                if manifest.get("has_whois")
                else None
            )
            redirects_path = path / _REDIRECTS_NAME
            redirects = None
            if manifest.get("has_redirects"):
                redirects = RedirectOracle.from_dict(
                    json.loads(redirects_path.read_text())
                )
        except StreamError:
            raise
        except Exception as error:  # missing file, bad JSON, bad records
            raise StreamError(f"corrupt partition in {path}: {error}") from error

        partition = DayPartition(
            day=int(manifest.get("day", day)),
            trace=trace,
            whois=whois,
            redirects=redirects,
        )
        actual = partition_digest(partition)
        verified = actual == expected and (digest is None or actual == digest)
        if self.metrics.enabled:
            self.metrics.counter(
                "smash_store_digest_verifications_total",
                "Partition loads checked against their content digest.",
                labels=("result",),
            ).labels(result="ok" if verified else "mismatch").inc()
            self.metrics.counter(
                "smash_store_bytes_read_total",
                "Bytes of partition files read back from the trace store.",
            ).inc(sum(p.stat().st_size for p in path.iterdir() if p.is_file()))
        if not verified:
            raise StreamError(
                f"corrupt partition in {path}: content digest {actual[:12]} does not "
                f"match stored digest {(digest or expected)[:12]}"
            )
        return partition

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
        try:
            manifest = json.loads((path / _MANIFEST_NAME).read_text())
            return int(manifest["num_requests"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            raise StreamError(
                f"corrupt partition manifest in {path}: {error}"
            ) from error

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


class PartialStore:
    """Digest-verified spill directory for sharded-mine partials.

    The sharded mine bounds its peak memory by writing each map-phase
    partial (a shard's inverted indexes, a bucket's pair counts) to disk
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
