"""repro.ha — server-side robustness: replicated serving with failover,
overload protection, and self-healing storage.

The paper's dataset exists only because Docker Hub kept answering 355k
pulls through overload and partial failure. This package gives the
reproduction's registry the same serving-side resilience:

* :mod:`repro.ha.admission` — concurrency-limited admission gate with a
  bounded queue, per-client token-bucket rate limiting, and load-shedding
  accounting (wired into :class:`~repro.registry.http.RegistryHTTPServer`);
* :mod:`repro.ha.health` — active liveness/readiness probing with
  per-replica ejection and reinstatement;
* :mod:`repro.ha.replica` — :class:`RegistryReplicaSet`: N registries over
  independent blob stores with write fan-out and anti-entropy sync;
* :mod:`repro.ha.frontend` — :class:`FailoverFrontend`: an HTTP load
  balancer doing health-checked routing, retry-on-next-replica for
  idempotent reads, and at-the-edge digest verification so a rotting
  replica can never serve corrupt bytes;
* :mod:`repro.ha.scrub` — :class:`BlobScrubber`: at-rest digest
  re-verification with quarantine and peer repair;
* :mod:`repro.ha.ring` — :class:`HashRing` and the bounded k-owner
  placement: seeded consistent hashing over the digest space, so N
  replicas hold ~N/k replicas' worth of *unique* bytes instead of 1x;
* :mod:`repro.ha.sharded` — :class:`ShardedReplicaSet`: quorum writes
  with hinted handoff, shard-aware anti-entropy, and live join/leave
  rebalancing that moves only the blobs whose owner set changed;
* :mod:`repro.ha.cluster` — the end-to-end harness behind
  ``repro cluster``: replicated serving under loadgen traffic with
  replica kills and at-rest corruption, checked against invariants;
* :mod:`repro.ha.shardcluster` — the same discipline for the sharded
  cluster (``repro cluster --sharded``), adding availability-under-
  partial-ownership and placement-matches-ring invariants;
* :mod:`repro.ha.churn` — the ``repro churn`` harness: seeded temporal
  churn over the cluster with journaled crash-resumable garbage
  collection, checked against the no-resurrection / no-live-deletion /
  byte-identical-resume invariants.

The three exercises are straight-line scripts over the parts they share
with ``repro chaos`` — virtual clock, ``Invariant`` and report base, hub
set-up, pull phase, availability sweep and the replica-set → monitor →
frontend bring-up — which live in :mod:`repro.exercise`.
"""

from repro.ha.admission import (
    AdmissionGate,
    AdmissionResult,
    ServerLimits,
    TokenBucketLimiter,
)
from repro.ha.churn import ChurnReport, ReplicaSetWriter, run_churn
from repro.ha.cluster import ClusterReport, run_cluster, run_overload
from repro.ha.frontend import FailoverFrontend
from repro.ha.health import EJECTED, LIVE, HealthMonitor, ReplicaHealth
from repro.ha.replica import RegistryReplicaSet, Replica
from repro.ha.ring import (
    HashRing,
    PlacementDiff,
    compute_placement,
    placement_diff,
)
from repro.ha.scrub import BlobScrubber, ScrubReport
from repro.ha.sharded import HandoffHint, RebalanceReport, ShardedReplicaSet
from repro.ha.shardcluster import ShardedClusterReport, run_sharded_cluster

__all__ = [
    "AdmissionGate",
    "AdmissionResult",
    "ServerLimits",
    "TokenBucketLimiter",
    "HealthMonitor",
    "ReplicaHealth",
    "LIVE",
    "EJECTED",
    "RegistryReplicaSet",
    "Replica",
    "FailoverFrontend",
    "BlobScrubber",
    "ScrubReport",
    "ChurnReport",
    "ClusterReport",
    "ReplicaSetWriter",
    "HashRing",
    "PlacementDiff",
    "compute_placement",
    "placement_diff",
    "HandoffHint",
    "RebalanceReport",
    "ShardedReplicaSet",
    "ShardedClusterReport",
    "run_churn",
    "run_cluster",
    "run_overload",
    "run_sharded_cluster",
]
