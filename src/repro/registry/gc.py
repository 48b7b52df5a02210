"""Crash-safe garbage collection: grace-window mark-and-sweep with tombstones.

`Registry.collect_garbage` is a naive single-shot sweep: fine for a quiet
single registry, unsafe under concurrent traffic (a blob uploaded a moment
ago but not yet referenced by a manifest would be reclaimed) and invisible
to the HA layer (anti-entropy sync and peer repair resurrect whatever one
replica deleted). This module makes deletion a durable two-phase operation:

* **mark** — snapshot live manifests (every tag target) and live blobs
  (every layer of a live manifest); everything else becomes a *candidate*,
  stamped with the first time it was observed dead.
* **grace window** — a candidate is swept only once it has been dead for
  ``grace_s`` *and* its last push is older than ``grace_s``. A just-pushed
  blob an upload session finalized seconds ago — not yet referenced by any
  manifest — survives, as do blobs of a manifest a concurrent pull may
  still hold.
* **sweep** — candidates are deleted in sorted digest order with a
  liveness re-check immediately before each delete; every deletion is
  recorded through :class:`~repro.util.journal.JournalFile` *before* the
  next one starts, so a kill mid-sweep resumes idempotently and the
  resumed report is byte-identical to an uninterrupted run (bytes are
  accounted from mark-time sizes, not post-crash store state).
* **tombstones** — each swept digest leaves a TTL'd deletion marker that
  replication merges and honors, so deletion wins over copy-back
  (:meth:`repro.ha.replica.RegistryReplicaSet.sync`).

The collector runs against a single :class:`~repro.registry.registry.Registry`
or a whole replica set via :class:`ClusterGCTarget` (sweeping only the
copies each live replica actually holds — owner-set-aware in the sharded
cluster, which also forgets swept digests from its placement map).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.model.manifest import Manifest
from repro.util.journal import JournalFile

if TYPE_CHECKING:  # pragma: no cover - typing only; registry.py imports us
    from repro.obs.metrics import MetricsRegistry
    from repro.registry.registry import Registry

#: default lifetime of a deletion marker; long enough for every replica to
#: hear about the deletion through anti-entropy, short enough that the
#: marker set does not grow without bound.
DEFAULT_TOMBSTONE_TTL_S = 3600.0


class GCInterrupted(RuntimeError):
    """Raised when a sweep is killed mid-flight (``kill_after``).

    The journal already records every deletion performed, so a fresh
    collector pointed at the same journal resumes exactly where this one
    stopped.
    """

    def __init__(self, deletions: int):
        super().__init__(f"garbage collector killed after {deletions} deletions")
        self.deletions = deletions


class Tombstones:
    """TTL'd deletion markers: key → deletion time, newest marker wins.

    A tombstone outlives the deletion itself so replication can tell
    "deleted on purpose" apart from "missing, please repair". Merging is a
    newest-time-wins union; markers expire after ``ttl_s`` (the classic
    Dynamo trade-off: a replica partitioned longer than the TTL may
    resurrect, which :meth:`expire` makes explicit rather than silent).
    """

    def __init__(self, *, ttl_s: float = DEFAULT_TOMBSTONE_TTL_S):
        self.ttl_s = ttl_s
        self._entries: dict[str, float] = {}

    def add(self, key: str, now: float) -> None:
        prior = self._entries.get(key)
        self._entries[key] = now if prior is None else max(prior, now)

    def discard(self, key: str) -> None:
        """Drop a marker (a fresh push makes the deletion moot)."""
        self._entries.pop(key, None)

    def time_of(self, key: str) -> float | None:
        return self._entries.get(key)

    def contains(self, key: str, now: float | None = None) -> bool:
        t = self._entries.get(key)
        if t is None:
            return False
        return now is None or now - t < self.ttl_s

    def expire(self, now: float) -> int:
        """Drop markers older than the TTL; returns how many went."""
        dead = [k for k, t in self._entries.items() if now - t >= self.ttl_s]
        for key in dead:
            del self._entries[key]
        return len(dead)

    def merge(self, other: "Tombstones") -> int:
        """Newest-time-wins union of *other* into self; returns adds/updates."""
        changed = 0
        for key, t in other._entries.items():
            if t > self._entries.get(key, float("-inf")):
                self._entries[key] = t
                changed += 1
        return changed

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def to_dict(self) -> dict[str, float]:
        return dict(self._entries)

    @classmethod
    def from_dict(
        cls, entries: dict[str, float], *, ttl_s: float = DEFAULT_TOMBSTONE_TTL_S
    ) -> "Tombstones":
        out = cls(ttl_s=ttl_s)
        out._entries.update(entries)
        return out


@dataclass
class GCReport:
    """Accounting for one mark-and-sweep pass.

    :meth:`core` is the crash-stable view: identical for an uninterrupted
    run and a killed-then-resumed run over the same state (`resumed`,
    `interrupted`, and `copies_deleted` — which depends on how many
    replicas happened to be alive — are excluded).
    """

    candidates: int = 0
    swept: int = 0
    bytes_reclaimed: int = 0
    manifests_deleted: int = 0
    protected_young: int = 0
    protected_inflight: int = 0
    live_manifests: int = 0
    live_blobs: int = 0
    tombstones_added: int = 0
    swept_digests: tuple[str, ...] = ()
    deleted_manifest_digests: tuple[str, ...] = ()
    copies_deleted: int = 0
    resumed: bool = False
    interrupted: bool = False

    def core(self) -> dict:
        """Crash-stable fields only, suitable for byte-identity checks."""
        return {
            "bytes_reclaimed": self.bytes_reclaimed,
            "candidates": self.candidates,
            "deleted_manifest_digests": list(self.deleted_manifest_digests),
            "live_blobs": self.live_blobs,
            "live_manifests": self.live_manifests,
            "manifests_deleted": self.manifests_deleted,
            "protected_inflight": self.protected_inflight,
            "protected_young": self.protected_young,
            "swept": self.swept,
            "swept_digests": list(self.swept_digests),
            "tombstones_added": self.tombstones_added,
        }

    def to_dict(self) -> dict:
        out = self.core()
        out["copies_deleted"] = self.copies_deleted
        out["resumed"] = self.resumed
        out["interrupted"] = self.interrupted
        return out


class RegistryGCTarget:
    """Adapts a single :class:`Registry` to the collector's target surface."""

    def __init__(self, registry: "Registry"):
        self._registry = registry

    def registries(self) -> list["Registry"]:
        return [self._registry]

    def forget(self, digest: str) -> None:  # no placement map to maintain
        pass


class ClusterGCTarget:
    """Adapts a replica set: sweeps every copy the live replicas hold.

    ``registries()`` is re-evaluated at each phase, so replicas that die
    between mark and sweep simply drop out (their copies are reconciled by
    the tombstones at the next sync). For :class:`ShardedReplicaSet` the
    sweep also forgets the digest from the placement map, keeping the ring
    accounting honest — the owner-set-aware half of deletion.
    """

    def __init__(self, replica_set):
        self._set = replica_set

    def registries(self) -> list["Registry"]:
        return [r.registry for r in self._set.live_replicas()]

    def forget(self, digest: str) -> None:
        forget = getattr(self._set, "forget_blob", None)
        if forget is not None:
            forget(digest)


class GarbageCollector:
    """Two-phase grace-period mark-and-sweep, journaled for crash-resume.

    Parameters:

    * *target* — a :class:`Registry`, or any object with ``registries()``
      and ``forget(digest)`` (see :class:`ClusterGCTarget`).
    * *grace_s* — candidates must be dead (and un-pushed) at least this
      long before they are swept; ``0`` reproduces the naive semantics.
    * *journal* — a :class:`JournalFile`; progress is persisted before and
      after every deletion so a kill resumes idempotently. Without one,
      state lives on the collector instance (grace windows still work
      across repeated :meth:`collect` calls on the same object).
    * *protected* — callable returning digests pinned by in-flight upload
      sessions; they are never candidates regardless of age.
    """

    def __init__(
        self,
        target,
        *,
        grace_s: float = 0.0,
        clock: Callable[[], float] | None = None,
        journal: JournalFile | None = None,
        metrics: "MetricsRegistry | None" = None,
        protected: Callable[[], Iterable[str]] | None = None,
        tombstone_ttl_s: float | None = None,
    ):
        if hasattr(target, "registries"):
            self._target = target
        else:
            self._target = RegistryGCTarget(target)
        self.grace_s = grace_s
        self._clock = clock or time.time
        self._journal = journal
        self._metrics = metrics
        self._protected = protected
        self._tombstone_ttl_s = tombstone_ttl_s
        self._state: dict | None = None
        self._layers_cache: dict[str, tuple[str, ...]] = {}

    # -- state -----------------------------------------------------------------

    def _fresh_state(self) -> dict:
        return {
            "phase": "idle",
            "first_seen": {},
            "manifest_first_seen": {},
        }

    def _load_state(self) -> dict:
        if self._journal is not None:
            loaded = self._journal.load() if self._journal.exists else None
            if loaded is not None:
                return loaded
        if self._state is not None:
            return self._state
        return self._fresh_state()

    def _save_state(self, state: dict) -> None:
        self._state = state
        if self._journal is not None:
            self._journal.save(state)

    # -- liveness --------------------------------------------------------------

    def _layers_of(self, mdigest: str, regs: list["Registry"]) -> tuple[str, ...]:
        cached = self._layers_cache.get(mdigest)
        if cached is not None:
            return cached
        for reg in regs:
            data = reg.manifest_bytes_or_none(mdigest)
            if data is not None:
                layers = tuple(Manifest.from_json(data).layer_digests)
                self._layers_cache[mdigest] = layers
                return layers
        return ()

    @staticmethod
    def _live_manifest_digests(regs: list["Registry"]) -> set[str]:
        live: set[str] = set()
        for reg in regs:
            for repo in reg.repositories():
                live.update(repo.tags.values())
        return live

    def _live_blob_digests(self, regs: list["Registry"]) -> set[str]:
        live: set[str] = set()
        for mdigest in self._live_manifest_digests(regs):
            live.update(self._layers_of(mdigest, regs))
        return live

    # -- mark ------------------------------------------------------------------

    def _mark(self, state: dict, now: float) -> None:
        regs = self._target.registries()
        live_manifests = self._live_manifest_digests(regs)
        all_manifests: set[str] = set()
        for reg in regs:
            all_manifests.update(reg.manifest_digests())
        dead_manifests = all_manifests - live_manifests
        live_blobs = self._live_blob_digests(regs)

        held: dict[str, tuple[int, float]] = {}
        for reg in regs:
            for digest in reg.blobs.digests():
                size = reg.blobs.size(digest)
                pushed = reg.blob_times.get(digest, 0.0)
                prior = held.get(digest)
                if prior is None:
                    held[digest] = (size, pushed)
                else:
                    held[digest] = (prior[0], max(prior[1], pushed))
        dead_blobs = {d: sp for d, sp in held.items() if d not in live_blobs}

        # first-seen times persist across passes: the grace clock starts
        # when a digest is first observed dead, not at every mark.
        first_seen: dict[str, float] = dict(state.get("first_seen", {}))
        for digest in dead_blobs:
            first_seen.setdefault(digest, now)
        for digest in list(first_seen):
            if digest not in dead_blobs:
                del first_seen[digest]  # revived or already gone
        manifest_first_seen: dict[str, float] = dict(
            state.get("manifest_first_seen", {})
        )
        for digest in dead_manifests:
            manifest_first_seen.setdefault(digest, now)
        for digest in list(manifest_first_seen):
            if digest not in dead_manifests:
                del manifest_first_seen[digest]

        protected = set(self._protected()) if self._protected is not None else set()
        pending: dict[str, tuple[float, int]] = {}
        protected_young = protected_inflight = 0
        for digest, (size, pushed) in dead_blobs.items():
            if digest in protected:
                protected_inflight += 1
                continue
            since = first_seen[digest]
            if now - since < self.grace_s or now - pushed < self.grace_s:
                protected_young += 1
                continue
            pending[digest] = (since, size)
        pending_manifests = sorted(
            d
            for d in dead_manifests
            if now - manifest_first_seen[d] >= self.grace_s
        )

        state.update(
            {
                "phase": "sweep",
                "marked_at": now,
                "first_seen": first_seen,
                "manifest_first_seen": manifest_first_seen,
                "pending": {d: [since, size] for d, (since, size) in pending.items()},
                "pending_manifests": pending_manifests,
                "swept": [],
                "manifests_deleted": [],
                "bytes_reclaimed": 0,
                "tombstones_added": 0,
                "copies_deleted": 0,
                "candidates": len(dead_blobs),
                "protected_young": protected_young,
                "protected_inflight": protected_inflight,
                "live_manifests": len(live_manifests),
                "live_blobs": len(live_blobs),
                "resumed": False,
            }
        )
        self._save_state(state)
        if self._metrics is not None:
            self._metrics.counter(
                "gc_candidates_total", "blobs observed unreferenced at mark"
            ).inc(len(dead_blobs))

    # -- sweep -----------------------------------------------------------------

    def _tombstone_blob(self, regs: list["Registry"], digest: str, now: float) -> None:
        for reg in regs:
            if self._tombstone_ttl_s is not None:
                reg.blob_tombstones.ttl_s = self._tombstone_ttl_s
            reg.blob_tombstones.add(digest, now)

    def _sweep(self, state: dict, now: float, kill_after: int | None) -> None:
        regs = self._target.registries()
        deletions = 0

        deleted_manifests = set(state["manifests_deleted"])
        for mdigest in state["pending_manifests"]:
            if mdigest in deleted_manifests:
                continue
            if mdigest in self._live_manifest_digests(regs):
                continue  # re-tagged since mark: leave it alone
            for reg in regs:
                reg.remove_manifest(mdigest)
                reg.manifest_tombstones.add(mdigest, now)
            state["manifests_deleted"].append(mdigest)
            self._save_state(state)
            if self._metrics is not None:
                self._metrics.counter(
                    "gc_manifests_deleted_total", "untagged manifests reclaimed"
                ).inc()

        swept = set(state["swept"])
        for digest in sorted(state["pending"]):
            if digest in swept:
                continue
            since, size = state["pending"][digest]
            # re-check right before the delete: a manifest pushed after the
            # mark may reference this digest, or the blob itself may have
            # been re-pushed. Never delete a live blob.
            marked_at = state["marked_at"]
            repushed = any(
                reg.blob_times.get(digest, 0.0) > marked_at for reg in regs
            )
            if repushed or digest in self._live_blob_digests(regs):
                continue
            copies = 0
            for reg in regs:
                if reg.blobs.has(digest):
                    reg.blobs.delete(digest)
                    copies += 1
            # copies == 0 is the crash-resume path: the previous run died
            # between the delete and the journal write. Account the blob
            # from its mark-time size either way — that is what makes the
            # resumed report byte-identical to an uninterrupted one.
            self._tombstone_blob(regs, digest, now)
            self._target.forget(digest)
            state["swept"].append(digest)
            state["bytes_reclaimed"] += size
            state["tombstones_added"] += 1
            state["copies_deleted"] += copies
            self._save_state(state)
            deletions += 1
            if self._metrics is not None:
                self._metrics.counter("gc_swept_total", "blobs reclaimed").inc()
                self._metrics.counter(
                    "gc_bytes_reclaimed_total", "blob bytes reclaimed"
                ).inc(size)
                self._metrics.counter(
                    "gc_tombstones_added_total", "deletion markers written"
                ).inc()
            if kill_after is not None and deletions >= kill_after:
                raise GCInterrupted(deletions)

    # -- public API ------------------------------------------------------------

    def collect(
        self, *, now: float | None = None, kill_after: int | None = None
    ) -> GCReport:
        """Mark (unless resuming an interrupted sweep), then sweep.

        With ``kill_after=N`` the sweep raises :class:`GCInterrupted` after
        N deletions — the journal then holds everything needed for a fresh
        collector to finish the pass with identical totals.
        """
        t0 = time.monotonic()
        now = self._clock() if now is None else now
        state = self._load_state()
        resumed = state.get("phase") == "sweep"
        if resumed:
            state["resumed"] = True
        else:
            self._mark(state, now)
        try:
            self._sweep(state, now, kill_after)
        except GCInterrupted:
            self._save_state(state)
            raise
        report = self._report_from(state, resumed=resumed, interrupted=False)
        # the pass is complete: swept digests leave the first-seen history,
        # the pending snapshot is cleared, and the journal returns to idle.
        first_seen = state["first_seen"]
        for digest in state["swept"]:
            first_seen.pop(digest, None)
        for mdigest in state["manifests_deleted"]:
            state["manifest_first_seen"].pop(mdigest, None)
        done = {
            "phase": "idle",
            "first_seen": first_seen,
            "manifest_first_seen": state["manifest_first_seen"],
        }
        self._save_state(done)
        if self._metrics is not None:
            self._metrics.histogram(
                "gc_sweep_seconds", "wall-clock duration of one GC pass"
            ).observe(time.monotonic() - t0)
        return report

    @staticmethod
    def _report_from(state: dict, *, resumed: bool, interrupted: bool) -> GCReport:
        return GCReport(
            candidates=state["candidates"],
            swept=len(state["swept"]),
            bytes_reclaimed=state["bytes_reclaimed"],
            manifests_deleted=len(state["manifests_deleted"]),
            protected_young=state["protected_young"],
            protected_inflight=state["protected_inflight"],
            live_manifests=state["live_manifests"],
            live_blobs=state["live_blobs"],
            tombstones_added=state["tombstones_added"],
            swept_digests=tuple(sorted(state["swept"])),
            deleted_manifest_digests=tuple(sorted(state["manifests_deleted"])),
            copies_deleted=state["copies_deleted"],
            resumed=resumed,
            interrupted=interrupted,
        )

