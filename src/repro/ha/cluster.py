"""The cluster exercise: replicated serving under kills, rot, and overload.

:func:`run_cluster` is the ``repro cluster`` CLI's engine — one seeded,
end-to-end demonstration that the HA layer actually delivers what it
promises. It materializes a synthetic hub, stamps it out over N replicas,
puts the :class:`~repro.ha.frontend.FailoverFrontend` in front, and drives
a pull workload through three deterministic phases:

* **phase A (healthy)** — baseline traffic against the full set;
* **phase B (degraded)** — one replica is *killed* mid-run (no drain, its
  connections die) and another's store gets deterministic at-rest bit
  flips; traffic continues through the frontend, which must fail reads
  over and block every corrupt byte at the edge. A write lands while the
  set is degraded, so the dead replica misses it;
* **phase C (healed)** — the scrubber quarantines and repairs the rot,
  the killed replica restarts, anti-entropy reconciles the missed write,
  active probes reinstate the replica, and traffic confirms the set is
  whole again.

Phases run serially from one client thread, so every count in the report
is a function of the seed alone — the report is a regression artifact.
The **invariants** (zero corrupt blobs served, ≥99 % GET success after
retries, all rot detected and repaired, replicas converged, the killed
replica reinstated, the degraded-era write everywhere) gate the exit code.

:func:`run_overload` is the companion stress: one server with real
:class:`~repro.ha.admission.ServerLimits` under an open-loop arrival rate
beyond its capacity, asserting it sheds with honest 503 + ``Retry-After``
while accepted requests keep a bounded p99 — the registry bends, it does
not break.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.exercise import (
    ExerciseReport,
    Invariant,
    blob_error,
    phase_totals,
    pull_ops,
    pull_phase,
    seeded_hub,
    served_invariants,
    serving_cluster,
)
from repro.faults import FaultInjector, FaultRule, corrupt_at_rest, corrupt_some_at_rest
from repro.ha.admission import AdmissionGate, ServerLimits, TokenBucketLimiter
from repro.ha.health import LIVE, HealthMonitor
from repro.ha.scrub import BlobScrubber
from repro.obs import counter_total


@dataclass
class ClusterReport(ExerciseReport):
    """What one :func:`run_cluster` exercise measured and asserted."""

    #: wall-clock duration, and per-replica URLs with ephemeral ports
    VOLATILE = ("duration_s", "health", "frontend")

    seed: int
    replicas: int
    requests: int
    #: phase name -> {attempted, succeeded, failed, corrupt, retries}
    phases: dict[str, dict[str, int]] = field(default_factory=dict)
    killed: str = ""
    corrupted: list[str] = field(default_factory=list)
    degraded_write: str = ""
    scrub: dict = field(default_factory=dict)
    sync: dict = field(default_factory=dict)
    divergence: dict = field(default_factory=dict)
    #: per-replica blob footprint + capacity ratio (full replication: ~1.0)
    placement: dict = field(default_factory=dict)
    frontend: dict = field(default_factory=dict)
    health: list[dict] = field(default_factory=list)
    duration_s: float = 0.0

    def totals(self) -> dict[str, int]:
        return phase_totals(self.phases)

    def computed(self) -> dict:
        return {"totals": self.totals()}

    def lines(self) -> list[str]:
        totals = self.totals()
        lines = [
            f"cluster exercise: seed={self.seed}, {self.replicas} replicas, "
            f"{self.requests} pulls",
            f"  killed {self.killed} mid-run; corrupted "
            f"{len(self.corrupted)} blob(s) at rest",
        ]
        for name, counts in self.phases.items():
            lines.append(
                f"  phase {name:<9} {counts['succeeded']:>5}/{counts['attempted']} ok, "
                f"{counts['retries']} retries, {counts['corrupt']} corrupt served"
            )
        lines.append(
            f"  frontend   {self.frontend.get('failovers', 0)} failovers, "
            f"{self.frontend.get('corrupt_blocked', 0)} corrupt blocked, "
            f"{self.frontend.get('refused', 0)} refused"
        )
        lines.append(
            f"  scrub      {self.scrub.get('scanned', 0)} scanned, "
            f"{self.scrub.get('corrupt', 0)} corrupt, "
            f"{self.scrub.get('repaired', 0)} repaired"
        )
        lines.append(
            f"  sync       {self.sync.get('blobs', 0)} blobs reconciled, "
            f"{self.sync.get('corrupt_donors_skipped', 0)} corrupt donors refused"
        )
        if self.placement:
            lines.append(
                f"  placement  k={self.placement.get('k', '?')}/"
                f"{self.placement.get('replicas', '?')} replicas, "
                f"imbalance {self.placement.get('imbalance', 0):.2f}, "
                f"capacity x{self.placement.get('capacity_ratio', 0):.2f} "
                f"of one replica's disk"
            )
        success = totals["succeeded"] / totals["attempted"] if totals["attempted"] else 0
        lines.append(f"  GET success {success:8.2%} after retries")
        lines.append("invariants:")
        return lines


def run_cluster(
    *,
    seed: int = 7,
    replicas: int = 3,
    scale: str = "tiny",
    requests: int = 120,
    kill_index: int = 1,
    corrupt_count: int = 2,
) -> ClusterReport:
    """The full kill/corrupt/heal exercise; see the module docstring."""
    if replicas < 2:
        raise ValueError(f"the exercise needs >= 2 replicas, got {replicas}")
    if not 0 <= kill_index < replicas:
        raise ValueError(f"kill_index {kill_index} out of range for {replicas} replicas")

    t0 = time.perf_counter()
    hub = seeded_hub(scale, seed)
    ops = pull_ops(hub, requests)
    third = len(ops) // 3
    phase_ops = {"A:healthy": ops[:third], "B:degraded": ops[third : 2 * third],
                 "C:healed": ops[2 * third :]}

    report = ClusterReport(seed=seed, replicas=replicas, requests=len(ops))
    # the replica that rots: any survivor of the kill
    corrupt_index = (kill_index + 1) % replicas

    with serving_cluster(hub.registry, replicas=replicas) as (
        replica_set, monitor, frontend, session, metrics
    ):
        report.phases["A:healthy"] = pull_phase(session, phase_ops["A:healthy"])

        killed = replica_set.kill(kill_index)
        report.killed = killed.name
        # rot blobs phase B is actually going to pull, so the frontend's
        # edge verification is exercised, not just the scrubber; top up
        # from arbitrary store digests if the phase is too small
        store = replica_set.replicas[corrupt_index].registry.blobs
        victims: list[str] = []
        for op in phase_ops["B:degraded"]:
            if op.kind == "blob" and op.digest not in victims and store.has(op.digest):
                victims.append(op.digest)
            if len(victims) >= corrupt_count:
                break
        for digest in victims:
            corrupt_at_rest(store, digest, seed=seed)
        if len(victims) < corrupt_count:
            extra = corrupt_some_at_rest(
                store, count=corrupt_count - len(victims), seed=seed
            )
            victims = list(dict.fromkeys(victims + extra))
        report.corrupted = victims
        # one active sweep records a first strike against the dead replica
        # (eject_after=2); the second strike — and the ejection — comes
        # passively from phase B's first failed-over read
        monitor.probe_all()

        report.phases["B:degraded"] = pull_phase(session, phase_ops["B:degraded"])

        # a write while one replica is down: the survivors take it, the
        # dead one owes it to anti-entropy
        payload = f"written-while-degraded seed={seed}".encode()
        report.degraded_write = replica_set.put_blob(payload)

        scrubber = BlobScrubber(metrics=metrics)
        scrub_report = scrubber.scrub_replica_set(replica_set)
        report.scrub = scrub_report.to_dict()

        replica_set.restart(kill_index)
        report.sync = replica_set.sync()
        monitor.probe_until_live(killed.base_url)

        report.phases["C:healed"] = pull_phase(session, phase_ops["C:healed"])
        # the degraded-era write must now be pullable through the frontend
        write_lost = blob_error(session, report.degraded_write)

        report.divergence = replica_set.divergence()
        report.placement = replica_set.placement_report()
        report.frontend = dict(frontend.stats)
        report.health = monitor.snapshot()

    report.duration_s = time.perf_counter() - t0
    report.invariants = _cluster_invariants(report, monitor, killed.base_url, write_lost)
    return report


def _cluster_invariants(
    report: ClusterReport,
    monitor: HealthMonitor,
    killed_url: str,
    write_lost: str | None,
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
            detail=f"injected {len(report.corrupted)}, scrubber found "
            f"{report.scrub.get('corrupt', 0)}, repaired "
            f"{report.scrub.get('repaired', 0)}, unrepairable "
            f"{report.scrub.get('unrepairable', 0)}",
        )
    )
    out.append(
        Invariant(
            name="replicas_converged",
            ok=report.divergence.get("missing_somewhere", -1) == 0,
            detail=f"divergence after sync: {report.divergence}",
        )
    )
    out.append(
        Invariant(
            name="killed_replica_reinstated",
            ok=monitor.health(killed_url).state == LIVE,
            detail=f"{report.killed} state={monitor.health(killed_url).state} "
            f"after restart + probes",
        )
    )
    out.append(
        Invariant(
            name="degraded_write_survived",
            ok=write_lost is None,
            detail=f"blob {report.degraded_write[:19]}… written during the outage "
            + (
                "pulls correctly after heal"
                if write_lost is None
                else f"is LOST after heal: {write_lost}"
            ),
        )
    )
    return out


@dataclass
class OverloadReport(ExerciseReport):
    """What :func:`run_overload` measured on a limits-protected server."""

    seed: int
    requests: int
    arrival_rate_rps: float
    max_concurrent: int
    completed: int = 0
    shed_client: int = 0
    shed_server: int = 0
    rate_limited_server: int = 0
    server_p99_s: float = 0.0
    p99_bound_s: float = 0.0
    duration_s: float = 0.0

    def lines(self) -> list[str]:
        lines = [
            f"overload exercise: seed={self.seed}, {self.requests} requests at "
            f"{self.arrival_rate_rps:.0f}/s against {self.max_concurrent} slots",
            f"  completed  {self.completed}",
            f"  shed       {self.shed_server} by the server "
            f"({self.shed_client} surfaced to clients as backpressure, "
            f"{self.rate_limited_server} per-client 429s)",
            f"  server p99 {self.server_p99_s * 1e3:.1f} ms "
            f"(bound {self.p99_bound_s * 1e3:.1f} ms)",
        ]
        lines.append("invariants:")
        return lines


def run_overload(
    *,
    seed: int = 0,
    requests: int = 400,
    arrival_rate_rps: float = 400.0,
    workers: int = 32,
    max_concurrent: int = 4,
    max_queue: int = 8,
    queue_timeout_s: float = 0.05,
    service_latency_s: float = 0.03,
) -> OverloadReport:
    """Open-loop overload against one limits-protected server.

    A latency fault rule throttles the server's capacity to roughly
    ``max_concurrent / service_latency_s`` requests per second; the
    arrival rate is set well past that, so the gate *must* shed. The
    invariants: sheds happened, they surfaced to clients as honest
    backpressure (503 + ``Retry-After`` → ``RateLimitedError``), and the
    server-side p99 across all handled requests stayed inside
    ``queue_timeout + service + slack`` — overload bent throughput, not
    latency.
    """
    from repro.loadgen import LoadConfig, LoadGenerator
    from repro.registry.http import HTTPSession, RegistryHTTPServer

    t0 = time.perf_counter()
    hub = seeded_hub("tiny", seed)
    ops = pull_ops(hub, requests, granularity="layer")

    limits = ServerLimits(
        gate=AdmissionGate(
            max_concurrent=max_concurrent,
            max_queue=max_queue,
            queue_timeout_s=queue_timeout_s,
            retry_after_s=queue_timeout_s,
        ),
        # generous per-client budget: this exercise is about the shared
        # gate, not one hog (the loadgen is a single client address)
        limiter=TokenBucketLimiter(rate_per_s=10_000.0, burst=10_000),
    )
    injector = FaultInjector(
        [FaultRule(kind="latency", rate=1.0, latency_s=service_latency_s)],
        seed=seed,
    )
    server = RegistryHTTPServer(
        hub.registry, fault_injector=injector, limits=limits
    ).start()
    try:
        load = LoadGenerator(HTTPSession(server.base_url, timeout=10.0)).run(
            ops,
            LoadConfig(
                workers=workers,
                mode="open",
                arrival_rate_rps=arrival_rate_rps,
                seed=seed,
                timing="wall",
            ),
        )
        p99 = max(
            server.metrics.histogram(
                "registry_http_request_seconds", endpoint=endpoint
            ).quantile(0.99)
            for endpoint in ("blob", "manifest")
        )
        report = OverloadReport(
            seed=seed,
            requests=len(ops),
            arrival_rate_rps=arrival_rate_rps,
            max_concurrent=max_concurrent,
            completed=load.requests,
            shed_client=load.shed,
            shed_server=int(
                counter_total(server.metrics, "registry_http_rejected_total")
            ),
            rate_limited_server=int(
                counter_total(
                    server.metrics, "registry_http_rejected_total",
                    reason="rate_limited",
                )
            ),
            server_p99_s=p99,
            # queue wait + the latency spike's peak + handling slack; the
            # histogram's log buckets overshoot by at most one growth step
            p99_bound_s=queue_timeout_s + service_latency_s + 0.25,
        )
    finally:
        server.stop()
    report.duration_s = time.perf_counter() - t0

    report.invariants = [
        Invariant(
            name="server_shed_under_overload",
            ok=report.shed_server > 0,
            detail=f"{report.shed_server} requests shed by the gate",
        ),
        Invariant(
            name="shed_is_honest_backpressure",
            ok=report.shed_client > 0,
            detail=f"{report.shed_client} sheds surfaced as RateLimitedError "
            f"(503/429 + Retry-After), not silent failures",
        ),
        Invariant(
            name="accepted_p99_bounded",
            ok=report.server_p99_s <= report.p99_bound_s,
            detail=f"server p99 {report.server_p99_s * 1e3:.1f} ms vs bound "
            f"{report.p99_bound_s * 1e3:.1f} ms",
        ),
        Invariant(
            name="work_still_completed",
            ok=report.completed > 0,
            detail=f"{report.completed} requests completed despite the storm",
        ),
        Invariant(
            name="accounting_reconciles",
            ok=report.completed + load.errors == len(ops),
            detail=f"{report.completed} completed + {load.errors} failed "
            f"== {len(ops)} issued",
        ),
    ]
    return report
