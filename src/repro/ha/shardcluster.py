"""The sharded cluster exercise: k-of-N placement under kills, rot,
flapping, and live membership churn.

:func:`run_sharded_cluster` is the engine behind ``repro cluster
--sharded``. Where :func:`~repro.ha.cluster.run_cluster` proves the HA
layer with *full copies everywhere*, this exercise proves the same
promises hold when every blob lives on only k of N replicas — the regime
the paper's ~47 TB dataset actually requires — plus the two promises
sharding adds. One seeded run drives a pull workload through four phases:

* **phase A (healthy)** — baseline traffic through the shard-routing
  frontend; every read must find the blob's owners;
* **phase B (degraded)** — one replica is killed and another's *owned
  shards* get deterministic at-rest rot (victims are drawn with
  :func:`~repro.faults.atrest.corrupt_shard_at_rest`, excluding blobs
  co-owned by the dead replica — rotting the last live copy would break
  availability by construction, not by bug). A write lands whose owner
  set includes the dead replica, so hinted handoff parks it on the ring
  successor. An availability sweep then reads *every placed blob* through
  the frontend: nothing may be unreadable while at least one owner lives;
* **phase C (flapping)** — after scrub + restart + shard-aware sync heal
  the cluster, a third replica flaps (down, traffic, back) and must be
  passively ejected then probe-reinstated;
* **phase D (resharded)** — a replica *joins* and another *leaves* while
  serving continues. Each rebalance must move exactly the blobs whose
  owner set changed (asserted against the placement diff), and the final
  placement audit must match a from-scratch ring computation.

Who gets killed/rotted/flapped/retired comes from a seeded
:func:`~repro.faults.events.plan_shard_events` draw with pairwise-distinct
targets, so every fault's blast radius is attributable and a rerun at the
same seed replays identical weather. The report's :meth:`seeded_core` is
byte-identical across serial reruns at the same seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.exercise import (
    ExerciseReport,
    Invariant,
    availability_sweep,
    blob_error,
    phase_totals,
    pull_ops,
    pull_phase,
    seeded_hub,
    served_invariants,
    serving_cluster,
)
from repro.faults.atrest import corrupt_shard_at_rest
from repro.faults.events import plan_shard_events
from repro.ha.health import LIVE
from repro.ha.ring import DEFAULT_VNODES
from repro.ha.scrub import BlobScrubber
from repro.util.digest import sha256_bytes

#: a sharded cluster must realize at least this fraction of the ideal
#: N/k capacity amplification (size skew + k-owner pinning cost the rest)
CAPACITY_EFFICIENCY = 0.83


@dataclass
class ShardedClusterReport(ExerciseReport):
    """What one :func:`run_sharded_cluster` exercise measured and asserted."""

    #: wall-clock duration, and port-bearing state (frontend stats, health
    #: snapshots keyed by URL)
    VOLATILE = ("duration_s", "health", "frontend")

    seed: int
    replicas: int
    k: int
    vnodes: int
    requests: int
    #: phase name -> {attempted, succeeded, failed, corrupt, retries}
    phases: dict[str, dict[str, int]] = field(default_factory=dict)
    #: the seeded fault/membership schedule that ran
    events: list[dict] = field(default_factory=list)
    killed: str = ""
    corrupted: list[str] = field(default_factory=list)
    flapped: str = ""
    joined: str = ""
    left: str = ""
    degraded_write: str = ""
    hints_parked: int = 0
    #: frontend sweep over every placed digest while one owner was dead
    availability: dict = field(default_factory=dict)
    scrub: dict = field(default_factory=dict)
    sync: dict = field(default_factory=dict)
    rebalance: dict = field(default_factory=dict)
    divergence: dict = field(default_factory=dict)
    audit: dict = field(default_factory=dict)
    #: initial per-replica shard load + capacity ratio (the sharding win)
    placement: dict = field(default_factory=dict)
    frontend: dict = field(default_factory=dict)
    health: list[dict] = field(default_factory=list)
    duration_s: float = 0.0

    def totals(self) -> dict[str, int]:
        return phase_totals(self.phases)

    def computed(self) -> dict:
        return {
            "totals": self.totals(),
            "audit": {
                "blobs": self.audit.get("blobs", 0),
                "missing": len(self.audit.get("missing", [])),
                "strays": len(self.audit.get("strays", [])),
                "matches_ring": self.audit.get("matches_ring", False),
            },
        }

    def lines(self) -> list[str]:
        totals = self.totals()
        ideal = self.replicas / self.k if self.k else 0
        lines = [
            f"sharded cluster exercise: seed={self.seed}, {self.replicas} "
            f"replicas, k={self.k}, vnodes={self.vnodes}, "
            f"{self.requests} pulls",
            f"  events     killed {self.killed}; rotted "
            f"{len(self.corrupted)} shard blob(s) on its neighbor; "
            f"flapped {self.flapped}; joined {self.joined}; "
            f"retired {self.left}",
        ]
        for name, counts in self.phases.items():
            lines.append(
                f"  phase {name:<11} {counts['succeeded']:>5}/{counts['attempted']} ok, "
                f"{counts['retries']} retries, {counts['corrupt']} corrupt served"
            )
        lines.append(
            f"  placement  capacity x{self.placement.get('capacity_ratio', 0):.2f} "
            f"of one replica's disk (ideal x{ideal:.2f}), imbalance "
            f"{self.placement.get('imbalance', 0):.2f}"
        )
        lines.append(
            f"  sweep      {self.availability.get('checked', 0)} blobs read "
            f"with an owner down, {self.availability.get('unreadable', 0)} "
            f"unreadable"
        )
        join = self.rebalance.get("join", {})
        leave = self.rebalance.get("leave", {})
        lines.append(
            f"  rebalance  join moved {join.get('moved', 0)} "
            f"(touched {join.get('touched', 0)}), leave moved "
            f"{leave.get('moved', 0)} (touched {leave.get('touched', 0)})"
        )
        lines.append(
            f"  scrub      {self.scrub.get('scanned', 0)} scanned, "
            f"{self.scrub.get('corrupt', 0)} corrupt, "
            f"{self.scrub.get('repaired', 0)} repaired"
        )
        lines.append(
            f"  sync       {self.sync.get('blobs', 0)} owner copies repaired, "
            f"{self.sync.get('strays_removed', 0)} strays removed, "
            f"{self.sync.get('hints_delivered', 0)} hints delivered"
        )
        lines.append(
            f"  frontend   {self.frontend.get('failovers', 0)} failovers, "
            f"{self.frontend.get('corrupt_blocked', 0)} corrupt blocked, "
            f"{self.frontend.get('refused', 0)} refused"
        )
        success = totals["succeeded"] / totals["attempted"] if totals["attempted"] else 0
        lines.append(f"  GET success {success:8.2%} after retries")
        lines.append("invariants:")
        return lines


def run_sharded_cluster(
    *,
    seed: int = 7,
    replicas: int = 6,
    k: int = 2,
    vnodes: int = DEFAULT_VNODES,
    scale: str = "tiny",
    requests: int = 120,
    corrupt_count: int = 2,
) -> ShardedClusterReport:
    """The full sharded kill/rot/flap/join/leave exercise; see the module
    docstring for the phase script."""
    if replicas < 4:
        raise ValueError(
            f"the sharded exercise needs >= 4 replicas for distinct fault "
            f"targets, got {replicas}"
        )
    if not 1 <= k < replicas:
        raise ValueError(f"need 1 <= k < replicas, got k={k}, replicas={replicas}")

    t0 = time.perf_counter()
    hub = seeded_hub(scale, seed)
    ops = pull_ops(hub, requests)
    quarter = len(ops) // 4
    phase_ops = {
        "A:healthy": ops[:quarter],
        "B:degraded": ops[quarter : 2 * quarter],
        "C:flapping": ops[2 * quarter : 3 * quarter],
        "D:resharded": ops[3 * quarter :],
    }
    report = ShardedClusterReport(
        seed=seed, replicas=replicas, k=k, vnodes=vnodes, requests=len(ops)
    )

    with serving_cluster(
        hub.registry, replicas=replicas, k=k, vnodes=vnodes, seed=seed
    ) as (cluster, monitor, frontend, session, metrics):
        events = plan_shard_events([r.name for r in cluster.replicas], seed=seed)
        by_kind = {event.kind: event for event in events}
        kill_name = by_kind["kill"].target
        corrupt_name = by_kind["corrupt"].target
        flap_name = by_kind["flap"].target
        leave_name = by_kind["leave"].target
        report.events = [event.to_dict() for event in events]
        report.placement = cluster.placement_report()

        report.phases["A:healthy"] = pull_phase(session, phase_ops["A:healthy"])

        # -- phase B: kill one replica, rot another's shards -------------------
        killed = cluster.replica(kill_name)
        killed.kill()
        report.killed = kill_name
        placement = cluster.placement()
        corrupt_store = cluster.replica(corrupt_name).registry.blobs
        owned = [d for d, owners in placement.items() if corrupt_name in owners]
        # never rot a blob the dead replica co-owns: its only other copy
        # would be the one we just broke, making "readable while an owner
        # lives" false by construction instead of testing repair
        shielded = [d for d in owned if kill_name in placement[d]]
        report.corrupted = corrupt_shard_at_rest(
            corrupt_store, owned, count=corrupt_count, seed=seed, exclude=shielded
        )
        # one active sweep records a first strike against the dead replica
        # (eject_after=2); the second comes passively from a failed read
        monitor.probe_all()

        report.phases["B:degraded"] = pull_phase(session, phase_ops["B:degraded"])

        # every placed blob must still be servable with an owner down
        report.availability = availability_sweep(
            session, blobs=sorted(cluster.placement())
        )

        # a write whose owner set includes the dead replica: the bytes
        # must park on the ring successor under a hint (sloppy quorum)
        payload = b""
        for i in range(1000):
            candidate = f"degraded-write seed={seed} v{i}".encode()
            if kill_name in cluster.owner_names(sha256_bytes(candidate)):
                payload = candidate
                break
        report.degraded_write = cluster.put_blob(payload)
        report.hints_parked = len(cluster.hints())

        # -- heal: scrub the rot, restart, shard-aware sync --------------------
        scrubber = BlobScrubber(metrics=metrics)
        report.scrub = scrubber.scrub_sharded_set(cluster).to_dict()
        killed.restart()
        report.sync = cluster.sync()
        monitor.probe_until_live(killed.base_url)
        # the rotted replica may have been passively ejected for serving
        # corrupt bytes; reinstatement is probe-only, so probe it back
        for _ in range(monitor.reinstate_after):
            monitor.probe_all()

        # -- phase C: a third replica flaps ------------------------------------
        flapper = cluster.replica(flap_name)
        flapper.kill()
        report.flapped = flap_name
        report.phases["C:flapping"] = pull_phase(session, phase_ops["C:flapping"])
        flapper.restart()
        monitor.probe_until_live(flapper.base_url)

        # -- phase D: membership churn under traffic ---------------------------
        joiner, join_report = cluster.join()
        report.joined = joiner.name
        monitor.track(joiner.base_url)
        leaver_url = cluster.replica(leave_name).base_url
        leave_report = cluster.leave(leave_name)
        report.left = leave_name
        monitor.untrack(leaver_url)
        report.rebalance = {
            "join": join_report.to_dict(),
            "leave": leave_report.to_dict(),
        }

        report.phases["D:resharded"] = pull_phase(session, phase_ops["D:resharded"])
        # the degraded-era write must survive heal AND both rebalances
        write_lost = blob_error(session, report.degraded_write)

        final_sync = cluster.sync()
        report.sync = {
            key: report.sync.get(key, 0) + final_sync.get(key, 0)
            for key in set(report.sync) | set(final_sync)
        }
        report.divergence = cluster.divergence()
        report.audit = cluster.audit_placement()
        report.frontend = dict(frontend.stats)
        report.health = monitor.snapshot()
        states = {
            name: monitor.health(cluster.replica(name).base_url).state
            for name in (kill_name, corrupt_name, flap_name)
        }

    report.duration_s = time.perf_counter() - t0
    report.invariants = _sharded_invariants(
        report, states, write_lost, join_report, leave_report
    )
    return report


def _sharded_invariants(
    report: ShardedClusterReport,
    states: dict[str, str],
    write_lost: str | None,
    join_report,
    leave_report,
) -> list[Invariant]:
    out = served_invariants(
        report.totals(), report.frontend.get("corrupt_blocked", 0)
    )
    out.append(
        Invariant(
            name="rot_detected_and_repaired",
            ok=(
                report.scrub.get("corrupt", 0) == len(report.corrupted)
                and report.scrub.get("unrepairable", 1) == 0
            ),
            detail=f"injected {len(report.corrupted)} into owned shards, "
            f"scrubber found {report.scrub.get('corrupt', 0)}, repaired "
            f"{report.scrub.get('repaired', 0)} from co-owners, unrepairable "
            f"{report.scrub.get('unrepairable', 0)}",
        )
    )
    out.append(
        Invariant(
            name="shards_converged",
            ok=(
                report.divergence.get("owners_missing", -1) == 0
                and report.divergence.get("strays", -1) == 0
            ),
            detail=f"post-sync divergence: {report.divergence}",
        )
    )
    out.append(
        Invariant(
            name="killed_replica_reinstated",
            ok=all(state == LIVE for state in states.values()),
            detail=", ".join(
                f"{name} {state}" for name, state in sorted(states.items())
            )
            + " after restarts + probes",
        )
    )
    out.append(
        Invariant(
            name="degraded_write_survived",
            ok=write_lost is None,
            detail=f"blob {report.degraded_write[:19]}… written with an owner "
            f"dead ({report.hints_parked} hint parked) "
            + (
                "pulls correctly after heal + join + leave"
                if write_lost is None
                else f"is LOST after heal + join + leave: {write_lost}"
            ),
        )
    )
    out.append(
        Invariant(
            name="readable_while_owner_lives",
            ok=(
                report.availability.get("checked", 0) > 0
                and report.availability.get("unreadable", -1) == 0
            ),
            detail=f"{report.availability.get('unreadable', '?')} of "
            f"{report.availability.get('checked', '?')} placed blobs "
            f"unreadable with {report.killed} down",
        )
    )
    out.append(
        Invariant(
            name="placement_matches_ring",
            ok=report.audit.get("matches_ring", False),
            detail=f"final audit: {len(report.audit.get('missing', []))} owner "
            f"copies missing, {len(report.audit.get('strays', []))} strays vs "
            f"a from-scratch placement computation",
        )
    )
    out.append(
        Invariant(
            name="rebalance_minimal",
            ok=(
                join_report.minimal
                and leave_report.minimal
                and len(join_report.moved) > 0
                and len(leave_report.moved) > 0
            ),
            detail=f"join touched {len(join_report.touched)} of "
            f"{len(join_report.moved)} owner-set changes "
            f"({join_report.unchanged} untouched); leave touched "
            f"{len(leave_report.touched)} of {len(leave_report.moved)}",
        )
    )
    ideal = report.replicas / report.k if report.k else 0.0
    bound = CAPACITY_EFFICIENCY * ideal
    ratio = report.placement.get("capacity_ratio", 0.0)
    out.append(
        Invariant(
            name="capacity_amplified",
            ok=ratio >= bound,
            detail=f"unique bytes = x{ratio:.2f} the largest replica footprint "
            f"(needs >= x{bound:.2f}; ideal for k={report.k}/N={report.replicas} "
            f"is x{ideal:.2f}; full replication is x1.0)",
        )
    )
    return out
