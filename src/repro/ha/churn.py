"""The churn exercise: crash-safe garbage collection under temporal evolution.

:func:`run_churn` is the ``repro churn`` CLI's engine. It materializes a
synthetic hub, stamps it out over a replicated (or ``--sharded``) cluster,
and evolves it with the seeded :class:`~repro.synth.churn.ChurnEngine` —
version pushes, tag retargets and deletes, repository death — while a
journaled :class:`~repro.registry.gc.GarbageCollector` reclaims the
orphans each epoch and anti-entropy keeps the replicas converged.

The whole run ticks on one **virtual clock** shared by every replica
registry, the churn engine's write stamps, and the collector's grace
windows — so grace arithmetic, tombstone TTLs, and last-writer-wins
reconciliation are pure functions of the seed, never of wall time.

At the crash epoch (``--kill-after``), the exercise first computes a
*reference* GC report on shadow clones of the cluster, then kills the
real sweep after N deletions (:class:`~repro.registry.gc.GCInterrupted`),
crashes a replica, resumes the sweep from the journal with a fresh
collector, and demands the resumed report be **byte-identical** to the
uninterrupted reference. The killed replica restarts and syncs; its
stale copies of swept blobs must die to the tombstones instead of
resurrecting cluster-wide.

The invariants (exit code 1 on any violation):

* every tagged manifest and layer stays readable through the frontend at
  every epoch — including while a replica is down;
* the garbage collector never deletes a live blob;
* no swept digest ever reappears on any replica after a sync;
* the crash-resumed GC report is byte-identical to the uninterrupted one;
* reclaimed bytes converge exactly on the engine's orphan accounting;
* a just-pushed blob held by an in-flight upload session survives the
  grace window, then is reclaimed once released;
* after the final drain, another GC pass is a no-op (idempotence);
* every replica's metadata equals the engine's surviving tag state —
  deletions won everywhere;
* tombstones expire after their TTL (the marker set stays bounded);
* (sharded) the placement map matches a from-scratch ring computation.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exercise import (
    ExerciseReport,
    Invariant,
    VirtualClock,
    availability_sweep,
    seeded_hub,
    serving_cluster,
)
from repro.ha.replica import RegistryReplicaSet
from repro.registry.errors import RepositoryNotFoundError, TagNotFoundError
from repro.registry.gc import ClusterGCTarget, GarbageCollector, GCInterrupted
from repro.registry.registry import Registry
from repro.synth.churn import ChurnEngine, ChurnParams
from repro.util.journal import JournalFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.manifest import Manifest
    from repro.registry.gc import GCReport

#: virtual epoch zero — far enough in the future that every wall-clock
#: stamp the source registry picked up during materialization sits deep
#: in the past (older than any grace window), far enough from overflow
#: that TTL arithmetic stays exact.
VIRTUAL_EPOCH_START = 2_000_000_000.0


class ReplicaSetWriter:
    """Fans churn-engine operations out to a replica set.

    Pushes go through the set's quorum write path; tag deletions are
    driven **over HTTP** against every live replica's own endpoint —
    the ``DELETE /v2/<name>/tags/<tag>`` surface — so the exercise
    proves the wire protocol, not just the in-process API. Repository
    deletion has no v2 endpoint and goes in-process.
    """

    def __init__(self, replica_set: RegistryReplicaSet, *, http_deletes: bool = True,
                 timeout: float = 5.0):
        self._set = replica_set
        self._http = http_deletes
        self._timeout = timeout
        self._sessions: dict[str, object] = {}

    def _session(self, replica):
        session = self._sessions.get(replica.name)
        if session is None:
            from repro.registry.http import HTTPSession

            session = HTTPSession(replica.base_url, timeout=self._timeout)
            self._sessions[replica.name] = session
        return session

    def close(self) -> None:
        """Close the per-replica HTTP sessions' pooled connections."""
        for session in self._sessions.values():
            session.close()

    def push_blob(self, data: bytes) -> str:
        return self._set.put_blob(data)

    def push_manifest(self, repo: str, tag: str, manifest: "Manifest") -> str:
        return self._set.push_manifest(repo, tag, manifest)

    def delete_tag(self, repo: str, tag: str) -> None:
        for replica in self._set.live_replicas():
            try:
                if self._http:
                    self._session(replica).delete_tag(repo, tag)
                else:
                    replica.registry.delete_tag(repo, tag)
            except (TagNotFoundError, RepositoryNotFoundError):
                pass  # already gone on this replica

    def delete_repository(self, repo: str) -> None:
        for replica in self._set.live_replicas():
            try:
                replica.registry.delete_repository(repo)
            except RepositoryNotFoundError:
                pass


@dataclass
class ChurnReport(ExerciseReport):
    """Everything one :func:`run_churn` exercise measured and asserted."""

    #: wall-clock duration, and frontend routing stats (which depend on
    #: health-probe timing)
    VOLATILE = ("duration_s", "frontend")

    seed: int
    epochs: int
    replicas: int
    sharded: bool
    k: int | None
    scale: str
    kill_after: int | None
    kill_epoch: int | None
    params: dict = field(default_factory=dict)
    #: one row per epoch: churn delta summary + that epoch's GC accounting
    epoch_rows: list[dict] = field(default_factory=list)
    crash: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)
    availability: dict = field(default_factory=dict)
    sync_totals: dict = field(default_factory=dict)
    frontend: dict = field(default_factory=dict)
    duration_s: float = 0.0

    def lines(self) -> list[str]:
        mode = f"sharded k={self.k}" if self.sharded else "replicated"
        lines = [
            f"churn exercise: seed={self.seed}, {self.epochs} epochs over "
            f"{self.replicas} {mode} replicas ({self.scale} hub)",
        ]
        for row in self.epoch_rows:
            lines.append(
                f"  epoch {row['epoch']:>2}: +{row['tags_added']} tags, "
                f"-{row['tags_removed']} tags, {row['repos_dropped']} repos died"
                f" | gc swept {row['gc_swept']:>3} blobs "
                f"({row['gc_bytes']:,} B), {row['gc_manifests']} manifests, "
                f"{row['protected_young']} in grace"
                + (" [CRASH+RESUME]" if row.get("crashed") else "")
            )
        if self.crash.get("exercised"):
            mark = "ok" if self.crash.get("byte_identical") else "MISMATCH"
            lines.append(
                f"  crash: killed after {self.crash.get('deletions_before_kill')} "
                f"deletions at epoch {self.kill_epoch}; resumed report "
                f"byte-identical to uninterrupted reference: {mark}"
            )
        lines.append(
            f"  totals: {self.totals.get('blobs_swept', 0)} blobs / "
            f"{self.totals.get('manifests_deleted', 0)} manifests reclaimed, "
            f"{self.totals.get('bytes_reclaimed', 0):,} B "
            f"(expected {self.totals.get('bytes_orphaned_expected', 0):,} B); "
            f"{self.sync_totals.get('resurrections_prevented', 0)} resurrections "
            f"prevented; {self.totals.get('tombstones_expired', 0)} tombstones expired"
        )
        lines.append(
            f"  availability: {self.availability.get('checked', 0)} reads over "
            f"{self.availability.get('sweeps', 0)} sweeps, "
            f"{self.availability.get('unreadable', 0)} unreadable"
        )
        lines.append("invariants:")
        return lines


class _ShadowTarget:
    """A GC target over detached registry clones (the reference run)."""

    def __init__(self, registries: list[Registry]):
        self._registries = registries

    def registries(self) -> list[Registry]:
        return self._registries

    def forget(self, digest: str) -> None:
        pass


def _sampled_tags(
    live_tags: dict[str, dict[str, str]], *, cap: int = 25
) -> list[tuple[str, str]]:
    """A deterministic, evenly-strided sample of at most *cap* live
    ``(repo, tag)`` pairs for the per-epoch availability sweep."""
    pairs = sorted(
        (repo, tag) for repo, tags in live_tags.items() for tag in tags
    )
    stride = max(1, len(pairs) // cap)
    return pairs[::stride][:cap]


def _cluster_holds(replica_set: RegistryReplicaSet, digest: str) -> bool:
    return any(
        replica.registry.blobs.has(digest) for replica in replica_set.replicas
    )


def run_churn(
    *,
    seed: int = 7,
    epochs: int = 6,
    replicas: int | None = None,
    sharded: bool = False,
    k: int = 2,
    vnodes: int = 32,
    scale: str = "tiny",
    kill_after: int | None = None,
    kill_index: int = 1,
    epoch_seconds: float = 60.0,
    grace_s: float | None = None,
    params: ChurnParams | None = None,
) -> ChurnReport:
    """Evolve a replicated hub under churn with journaled GC; see module doc.

    ``kill_after=N`` turns the middle epoch into the crash epoch: the GC
    sweep is killed after N deletions and a replica crashes with it; the
    resumed pass must reproduce the uninterrupted reference byte for byte.
    ``grace_s`` defaults to 1.5 epochs — one full epoch of death plus
    margin, so an orphan is swept two epochs after it appears.
    """
    if replicas is None:
        replicas = 4 if sharded else 3
    if replicas < 2:
        raise ValueError(f"the exercise needs >= 2 replicas, got {replicas}")
    if not 0 <= kill_index < replicas:
        raise ValueError(f"kill_index {kill_index} out of range for {replicas} replicas")
    if epochs < 1:
        raise ValueError(f"need >= 1 epoch, got {epochs}")
    grace = 1.5 * epoch_seconds if grace_s is None else grace_s
    params = params or ChurnParams()
    kill_epoch = None
    if kill_after is not None:
        # late enough that the first orphans have aged past grace and the
        # sweep has something to be killed in the middle of
        kill_epoch = min(max(3, epochs // 2 + 1), epochs)

    t0 = time.perf_counter()
    clock = VirtualClock(start=VIRTUAL_EPOCH_START)
    hub = seeded_hub(scale, seed)

    report = ChurnReport(
        seed=seed, epochs=epochs, replicas=replicas, sharded=sharded,
        k=k if sharded else None, scale=scale, kill_after=kill_after,
        kill_epoch=kill_epoch, params=params.to_dict(),
    )

    #: digests pinned by simulated in-flight upload sessions
    protected: set[str] = set()
    staged_payload = f"in-flight upload seed={seed}".encode()
    staged_digest = ""
    expected_orphan_blobs: set[str] = set()
    expected_orphan_bytes = 0
    expected_orphan_manifests: set[str] = set()
    swept_blobs: set[str] = set()
    swept_manifests: set[str] = set()
    bytes_reclaimed = 0
    resurrections_prevented = 0
    availability = {"checked": 0, "unreadable": 0, "sweeps": 0}
    live_blob_overlap = 0  # swept ∩ live, accumulated — must stay 0
    resurrected = 0  # swept digests seen on any replica after a sync
    staged_survived_grace = False

    def consume(gc_report: "GCReport") -> None:
        nonlocal bytes_reclaimed
        swept_blobs.update(gc_report.swept_digests)
        swept_manifests.update(gc_report.deleted_manifest_digests)
        bytes_reclaimed += gc_report.bytes_reclaimed

    with tempfile.TemporaryDirectory(prefix="repro-churn-gc-") as gc_dir, \
            serving_cluster(
                hub.registry, replicas=replicas, k=k if sharded else None,
                vnodes=vnodes, seed=seed, clock=clock.now,
            ) as (replica_set, monitor, frontend, session, metrics), \
            closing(ReplicaSetWriter(replica_set)) as writer:
        engine = ChurnEngine.from_registry(
            replica_set.replicas[0].registry, seed=seed, params=params
        )
        journal = JournalFile(Path(gc_dir) / "gc.json")

        def collector() -> GarbageCollector:
            # a *fresh* collector per pass: continuity must live in the
            # journal, not in any object the crash would have destroyed
            return GarbageCollector(
                ClusterGCTarget(replica_set), grace_s=grace, clock=clock.now,
                journal=journal, metrics=metrics,
                protected=lambda: set(protected),
            )

        def sweep() -> None:
            counts = availability_sweep(
                session, tags=_sampled_tags(engine.live_tags())
            )
            availability["checked"] += counts["checked"]
            availability["unreadable"] += counts["unreadable"]
            availability["sweeps"] += 1

        for epoch in range(1, epochs + 1):
            clock.advance(epoch_seconds)
            delta = engine.evolve_epoch(writer, epoch)
            expected_orphan_blobs.update(delta.blobs_orphaned)
            expected_orphan_bytes += delta.bytes_orphaned
            expected_orphan_manifests.update(delta.manifests_orphaned)
            if epoch == 1:
                # a blob an upload session just finalized but no manifest
                # references yet: GC must not touch it while it is pinned
                staged_digest = replica_set.put_blob(staged_payload)
                protected.add(staged_digest)

            crashed = False
            if epoch == kill_epoch:
                gc_report, crash = _crash_epoch(
                    replica_set, collector, journal, clock, grace, protected,
                    kill_after, kill_index, gc_dir, monitor, metrics,
                )
                report.crash = crash
                crashed = True
                # availability while the replica is still down is asserted
                # inside _crash_epoch's window; here the sweep runs healed
            else:
                gc_report = collector().collect()
            consume(gc_report)

            sync = replica_set.sync()
            resurrections_prevented += sync.get("resurrections_prevented", 0)

            _live_manifests, live_blobs = engine._live_refs()
            live_blob_overlap += len(swept_blobs & live_blobs)
            for digest in swept_blobs:
                if _cluster_holds(replica_set, digest):
                    resurrected += 1
            if staged_digest and staged_digest in protected:
                staged_survived_grace = _cluster_holds(replica_set, staged_digest)

            sweep()

            report.epoch_rows.append(
                {
                    "epoch": epoch,
                    "tags_added": len(delta.tags_added),
                    "tags_removed": len(delta.tags_removed),
                    "tags_retargeted": len(delta.tags_retargeted),
                    "repos_dropped": len(delta.repos_dropped),
                    "blobs_orphaned": len(delta.blobs_orphaned),
                    "bytes_orphaned": delta.bytes_orphaned,
                    "gc_candidates": gc_report.candidates,
                    "gc_swept": gc_report.swept,
                    "gc_bytes": gc_report.bytes_reclaimed,
                    "gc_manifests": gc_report.manifests_deleted,
                    "protected_young": gc_report.protected_young,
                    "protected_inflight": gc_report.protected_inflight,
                    "crashed": crashed,
                }
            )

        # -- final drain: release the upload pin, age everything past the
        # grace window, and reclaim the stragglers in two passes (the
        # first marks the newly-released blob, the second sweeps it).
        protected.clear()
        expected_orphan_blobs.add(staged_digest)
        expected_orphan_bytes += len(staged_payload)
        clock.advance(epoch_seconds)
        consume(collector().collect())
        clock.advance(grace + 1.0)
        consume(collector().collect())
        replica_set.sync()
        for digest in swept_blobs:
            if _cluster_holds(replica_set, digest):
                resurrected += 1

        # idempotence: with nothing orphaned since the drain, GC is a no-op
        idle_report = collector().collect()

        sweep()

        # metadata convergence: every replica ends at the engine's state
        expected_tags = engine.live_tags()
        diverged = []
        for replica in replica_set.replicas:
            got = {
                repo.name: dict(repo.tags)
                for repo in replica.registry.repositories()
            }
            if got != expected_tags:
                diverged.append(replica.name)

        # tombstones expire: advance past the TTL and count the markers go
        clock.advance(max(r.registry.blob_tombstones.ttl_s
                          for r in replica_set.replicas) + 1.0)
        tombstones_expired = sum(
            replica.registry.expire_tombstones() for replica in replica_set.replicas
        )
        tombstones_left = sum(
            len(replica.registry.blob_tombstones) for replica in replica_set.replicas
        )

        if sharded:
            placement_audit = replica_set.divergence()
            placement_audit["swept_still_placed"] = sum(
                1 for digest in swept_blobs if digest in replica_set.placement()
            )
        else:
            placement_audit = {}
        report.frontend = dict(frontend.stats)

    report.availability = availability
    report.sync_totals = {"resurrections_prevented": resurrections_prevented}
    report.totals = {
        "bytes_orphaned_expected": expected_orphan_bytes,
        "bytes_reclaimed": bytes_reclaimed,
        "blobs_orphaned_expected": len(expected_orphan_blobs),
        "blobs_swept": len(swept_blobs),
        "manifests_orphaned_expected": len(expected_orphan_manifests),
        "manifests_deleted": len(swept_manifests),
        "tombstones_expired": tombstones_expired,
    }
    report.duration_s = time.perf_counter() - t0

    invariants = [
        Invariant(
            name="tagged_blobs_always_readable",
            ok=availability["unreadable"] == 0,
            detail=f"{availability['unreadable']}/{availability['checked']} reads "
            f"failed across {availability['sweeps']} sweeps (one per epoch, "
            f"incl. the replica-down window)",
        ),
        Invariant(
            name="no_live_blob_deleted",
            ok=live_blob_overlap == 0,
            detail=f"{live_blob_overlap} swept digests were live at any epoch "
            f"({len(swept_blobs)} swept total)",
        ),
        Invariant(
            name="zero_resurrections_after_sync",
            ok=resurrected == 0,
            detail=f"{resurrected} swept digests reappeared on a replica after "
            f"anti-entropy ({resurrections_prevented} copy-backs prevented by "
            f"tombstones)",
        ),
        Invariant(
            name="reclaimed_bytes_converge",
            ok=(
                bytes_reclaimed == expected_orphan_bytes
                and swept_blobs == expected_orphan_blobs
            ),
            detail=f"reclaimed {bytes_reclaimed:,} B over {len(swept_blobs)} blobs "
            f"vs engine's {expected_orphan_bytes:,} B over "
            f"{len(expected_orphan_blobs)} orphans",
        ),
        Invariant(
            name="orphaned_manifests_reclaimed",
            ok=swept_manifests == expected_orphan_manifests,
            detail=f"{len(swept_manifests)} manifests deleted vs "
            f"{len(expected_orphan_manifests)} orphaned by the engine",
        ),
        Invariant(
            name="grace_protects_inflight",
            ok=staged_survived_grace and staged_digest in swept_blobs,
            detail=f"upload-pinned blob {staged_digest[:19]}… survived every "
            f"pinned GC pass, then was reclaimed after release: "
            f"{staged_digest in swept_blobs}",
        ),
        Invariant(
            name="gc_idempotent_after_convergence",
            ok=(
                idle_report.swept == 0
                and idle_report.manifests_deleted == 0
                and idle_report.bytes_reclaimed == 0
            ),
            detail=f"post-drain pass swept {idle_report.swept} blobs, "
            f"{idle_report.manifests_deleted} manifests "
            f"({idle_report.bytes_reclaimed} B)",
        ),
        Invariant(
            name="metadata_converged_deletes_win",
            ok=not diverged,
            detail="every replica's catalog+tags equal the engine's surviving "
            "state" if not diverged else f"diverged replicas: {diverged}",
        ),
        Invariant(
            name="tombstones_expire",
            ok=tombstones_left == 0 and tombstones_expired > 0,
            detail=f"{tombstones_expired} markers expired past TTL, "
            f"{tombstones_left} lingering",
        ),
    ]
    if kill_after is not None:
        invariants.insert(
            3,
            Invariant(
                name="crash_resume_byte_identical",
                ok=bool(report.crash.get("byte_identical"))
                and bool(report.crash.get("interrupted")),
                detail=f"sweep killed after "
                f"{report.crash.get('deletions_before_kill')} deletions; "
                f"resumed report == uninterrupted reference: "
                f"{report.crash.get('byte_identical')}",
            ),
        )
    if sharded:
        invariants.append(
            Invariant(
                name="placement_conforms_after_sweeps",
                ok=(
                    placement_audit.get("owners_missing", -1) == 0
                    and placement_audit.get("strays", -1) == 0
                    and placement_audit.get("swept_still_placed", -1) == 0
                ),
                detail=f"{placement_audit.get('owners_missing')} owner copies "
                f"missing, {placement_audit.get('strays')} strays, "
                f"{placement_audit.get('swept_still_placed')} swept digests "
                f"still in the placement map",
            )
        )
    report.invariants = invariants
    return report


def _crash_epoch(
    replica_set, collector_factory, journal, clock, grace, protected,
    kill_after, kill_index, gc_dir, monitor, metrics,
):
    """The kill-and-resume choreography for one epoch's GC pass.

    Returns ``(final GCReport, crash accounting dict)``. The reference
    report is computed first on shadow clones (same journal state, same
    virtual clock) so the crash cannot influence it; then the real sweep
    is interrupted, a replica dies with it, and a fresh collector resumes
    from the journal with the survivor set.
    """
    # -- reference: clone every live registry + the journal, run to the end
    shadows: list[Registry] = []
    for replica in replica_set.live_replicas():
        shadow = Registry(clock=clock.now)
        replica.registry.copy_into(shadow)
        shadows.append(shadow)
    shadow_journal = JournalFile(Path(gc_dir) / "gc-shadow.json")
    state = journal.load() if journal.exists else None
    if state is not None:
        shadow_journal.save(state)
    reference = GarbageCollector(
        _ShadowTarget(shadows), grace_s=grace, clock=clock.now,
        journal=shadow_journal, protected=lambda: set(protected),
    ).collect()

    # -- the real pass, killed mid-sweep
    interrupted = False
    deletions = 0
    try:
        collector_factory().collect(kill_after=kill_after)
    except GCInterrupted as exc:
        interrupted = True
        deletions = exc.deletions
    # the node crashes with the collector: its upload sessions and its
    # copy of the sweep's progress are gone — only the journal survives
    killed = replica_set.kill(kill_index)
    monitor.probe_all()
    monitor.probe_all()

    # -- resume with a fresh collector against the survivors
    resumed = collector_factory().collect()

    replica_set.restart(kill_index)
    monitor.probe_until_live(killed.base_url)

    crash = {
        "exercised": True,
        "interrupted": interrupted,
        "deletions_before_kill": deletions,
        "resumed": resumed.resumed,
        "byte_identical": resumed.core() == reference.core(),
        "reference_swept": reference.swept,
        "resumed_swept": resumed.swept,
    }
    return resumed, crash
