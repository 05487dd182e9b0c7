"""Rolling multi-day window over HTTP log partitions.

The streaming engine ingests one :class:`DayPartition` per trace day and
keeps the most recent *N* of them.  Each partition bundles the day's
trace with its oracle sidecars (Whois registry, redirect oracle) — the
same triple :meth:`~repro.core.pipeline.SmashPipeline.run` consumes —
so the window can hand the pipeline a combined view of the whole window
without regenerating or re-reading any per-day input.

Combined views are cached per window state: advancing the window
invalidates them, re-running the same window (e.g. a second threshold)
reuses them.

With a :class:`~repro.stream.store.TraceStore` attached the window holds
:class:`~repro.stream.store.PartitionRef` handles instead of full
partitions: every appended day is persisted to the store, serialisation
emits ``(day, digest)`` references instead of embedding requests, and a
resumed window loads partitions back lazily on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass

from repro.errors import StreamError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports window)
    from repro.stream.store import PartitionRef, TraceStore
from repro.httplog.records import HttpRequest
from repro.httplog.trace import HttpTrace
from repro.synth.oracles import RedirectOracle
from repro.whois.record import WhoisRecord
from repro.whois.registry import WhoisRegistry


def whois_to_list(registry: WhoisRegistry | None) -> list[dict[str, object]]:
    """Serialise a Whois registry to JSON-compatible records."""
    if registry is None:
        return []
    return [
        record.to_dict() for record in sorted(registry, key=lambda r: r.domain)
    ]


def whois_from_list(entries: list[dict[str, object]]) -> WhoisRegistry | None:
    """Inverse of :func:`whois_to_list` (empty list -> ``None``)."""
    if not entries:
        return None
    return WhoisRegistry(WhoisRecord.from_dict(entry) for entry in entries)


def redirects_to_dict(oracle: RedirectOracle | None) -> dict[str, str]:
    """Serialise a redirect oracle to its landing-server mapping."""
    if oracle is None:
        return {}
    return oracle.to_dict()


def redirects_from_dict(mapping: dict[str, str]) -> RedirectOracle | None:
    """Inverse of :func:`redirects_to_dict` (empty dict -> ``None``)."""
    if not mapping:
        return None
    return RedirectOracle.from_dict(mapping)


@dataclass(frozen=True)
class DayPartition:
    """One ingested day: trace plus oracle sidecars."""

    day: int
    trace: HttpTrace
    whois: WhoisRegistry | None = None
    redirects: RedirectOracle | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "day": self.day,
            "trace_name": self.trace.name,
            "requests": list(self.trace.iter_dicts()),
            "whois": whois_to_list(self.whois),
            "redirects": redirects_to_dict(self.redirects),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "DayPartition":
        requests = [
            HttpRequest.from_dict(entry)  # type: ignore[arg-type]
            for entry in data.get("requests", ())  # type: ignore[union-attr]
        ]
        return cls(
            day=int(data["day"]),  # type: ignore[arg-type]
            trace=HttpTrace(requests, name=str(data.get("trace_name", "trace"))),
            whois=whois_from_list(data.get("whois", [])),  # type: ignore[arg-type]
            redirects=redirects_from_dict(data.get("redirects", {})),  # type: ignore[arg-type]
        )


class RollingWindow:
    """The most recent *size* day partitions, oldest evicted first.

    Days must be appended in strictly increasing order — the window
    models a forward-moving stream, not random access.

    With *store* attached, appended partitions are persisted immediately
    and the window keeps :class:`~repro.stream.store.PartitionRef`
    handles; without one it keeps the partitions in memory exactly as
    before.
    """

    def __init__(self, size: int = 1, store: "TraceStore | None" = None) -> None:
        if size < 1:
            raise StreamError(f"window size must be >= 1, got {size}")
        self.size = size
        self.store = store
        self._slots: list["DayPartition | PartitionRef"] = []
        self._combined: tuple[HttpTrace, WhoisRegistry | None, RedirectOracle | None] | None = None
        self._sidecars: tuple[WhoisRegistry | None, RedirectOracle | None] | None = None

    @staticmethod
    def _materialise(slot: "DayPartition | PartitionRef") -> DayPartition:
        return slot if isinstance(slot, DayPartition) else slot.load()

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def partitions(self) -> tuple[DayPartition, ...]:
        return tuple(self._materialise(slot) for slot in self._slots)

    @property
    def days(self) -> tuple[int, ...]:
        """Day indices currently inside the window, oldest first."""
        return tuple(slot.day for slot in self._slots)

    def append(self, partition: DayPartition) -> "tuple[DayPartition | PartitionRef, ...]":
        """Add the next day; return the slots evicted to make room.

        Evicted days stay resident in the attached store (the stream's
        history); only the in-memory window forgets them.  With a store
        the evicted entries are :class:`~repro.stream.store.PartitionRef`
        handles, returned *without* forcing a disk load — call
        ``.load()`` if the full partition is wanted.
        """
        if self._slots and partition.day <= self._slots[-1].day:
            raise StreamError(
                f"stream days must be strictly increasing: got day "
                f"{partition.day} after day {self._slots[-1].day}"
            )
        slot = partition if self.store is None else self.store.put(partition)
        self._slots.append(slot)
        evicted = tuple(self._slots[: -self.size])
        self._slots = self._slots[-self.size:]
        self._combined = None
        self._sidecars = None
        return evicted

    def partition_request_counts(self) -> tuple[int, ...]:
        """Per-day request counts, oldest first — the shard boundaries.

        The combined window trace concatenates partitions in this order,
        so these counts let :meth:`~repro.core.pipeline.SmashPipeline.mine`
        align shard cuts with stored day partitions (partition-scoped
        shard loads instead of arbitrary mid-day slices).
        """
        return tuple(
            len(self._materialise(slot).trace) for slot in self._slots
        )

    def partition_refs(self) -> "tuple[PartitionRef, ...]":
        """The window's store references, oldest first.

        The out-of-core mine hands these straight to store-direct shard
        jobs; no partition is materialised here.  Requires an attached
        store — an in-memory window has nothing to reference.
        """
        if self.store is None:
            raise StreamError(
                "partition_refs() needs a trace store; this window holds "
                "in-memory partitions"
            )
        return tuple(self._slots)  # type: ignore[return-value]

    def combined_sidecars(self) -> tuple[WhoisRegistry | None, RedirectOracle | None]:
        """The window's merged (whois, redirects) without the trace.

        Same merge semantics (and results) as :meth:`combined`, but store
        references give their sidecars and drop their traces, so no
        day's requests stay resident — the out-of-core coordinator's way
        to get the window sidecars without holding the window trace.  A
        reference keeps its sidecars, so a partition is read back from
        the store only when its sidecars were never seen in this process
        (a window restored from a checkpoint), and then only once.
        """
        if not self._slots:
            raise StreamError("cannot combine an empty window")
        if self._combined is not None:
            return self._combined[1], self._combined[2]
        if self._sidecars is None:
            whois: WhoisRegistry | None = None
            landing: dict[str, str] = {}
            for slot in self._slots:
                if isinstance(slot, DayPartition):
                    day_whois, day_redirects = slot.whois, slot.redirects
                else:
                    day_whois, day_redirects = slot.sidecars()
                    slot.release()
                if day_whois is not None:
                    whois = day_whois if whois is None else whois.merged_with(day_whois)
                if day_redirects is not None:
                    landing.update(redirects_to_dict(day_redirects))
            redirects = RedirectOracle(landing_of=landing) if landing else None
            self._sidecars = (whois, redirects)
        return self._sidecars

    def combined(self) -> tuple[HttpTrace, WhoisRegistry | None, RedirectOracle | None]:
        """The window's merged (trace, whois, redirects) pipeline inputs."""
        if not self._slots:
            raise StreamError("cannot combine an empty window")
        if self._combined is None:
            partitions = self.partitions
            traces = [partition.trace for partition in partitions]
            name = f"window-days-{self.days[0]}-{self.days[-1]}"
            trace = traces[0] if len(traces) == 1 else HttpTrace.concat(traces, name=name)

            whois: WhoisRegistry | None = None
            for partition in partitions:
                if partition.whois is None:
                    continue
                whois = partition.whois if whois is None else whois.merged_with(partition.whois)

            landing: dict[str, str] = {}
            for partition in partitions:
                if partition.redirects is None:
                    continue
                landing.update(redirects_to_dict(partition.redirects))
            redirects = RedirectOracle(landing_of=landing) if landing else None
            self._combined = (trace, whois, redirects)
        return self._combined

    # -- checkpoint support -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        if self.store is not None:
            return {
                "size": self.size,
                "store": True,
                "partitions": [
                    {"day": slot.day, "digest": slot.digest}  # type: ignore[union-attr]
                    for slot in self._slots
                ],
            }
        return {
            "size": self.size,
            "partitions": [
                self._materialise(slot).to_dict() for slot in self._slots
            ],
        }

    @classmethod
    def from_dict(
        cls, data: dict[str, object], store: "TraceStore | None" = None
    ) -> "RollingWindow":
        if data.get("store") and store is None:
            raise StreamError(
                "window state references a trace store; pass the store "
                "(load_checkpoint(..., store_dir=...) or --store) to restore it"
            )
        window = cls(size=int(data.get("size", 1)), store=store)  # type: ignore[arg-type]
        if data.get("store"):
            assert store is not None
            for entry in data.get("partitions", ()):  # type: ignore[union-attr]
                window._slots.append(
                    store.ref(int(entry["day"]), str(entry["digest"]))
                )
        else:
            for entry in data.get("partitions", ()):  # type: ignore[union-attr]
                window.append(DayPartition.from_dict(entry))  # type: ignore[arg-type]
        return window
