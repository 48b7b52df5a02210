"""The exercise kernel: what every seeded invariant exercise shares.

``repro chaos``, ``cluster [--sharded|--overload]``, ``churn``, ``scan
--selfcheck`` and ``tiers --smoke`` are straight-line scripts: each sets a
hub up, drives its own choreography and checks its own invariants. The
parts they have in common live here, once: :class:`VirtualClock`;
:class:`Invariant` and the :class:`ExerciseReport` base; hub set-up
(:func:`seeded_hub`, :func:`pull_ops`); the client-side ground truth
(:func:`pull_phase`, :func:`blob_error`, :func:`availability_sweep`); and
cluster bring-up (:func:`serving_cluster`).

A library of parts, not an engine — no phase list, scenario registry or
callbacks: every exercise still has to say what it kills, when, and what
must hold afterwards. The ``repro.ha`` / ``repro.synth`` imports sit inside
the functions that need them because the exercise modules of those
packages import this one while their package is still initialising.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import ClassVar

from repro.downloader.session import RateLimitedError, TransientNetworkError
from repro.registry.errors import RegistryError
from repro.util.digest import sha256_bytes


class VirtualClock:
    """A monotonic clock that only moves when someone sleeps on it.

    Sharing one instance between everything that reads time in an
    exercise — the downloader's backoff sleeps, deadline clock and circuit
    breaker cooldown; or every replica registry's write stamps and the
    collector's grace windows — makes the whole dance a deterministic
    function of the seed: open circuits really cool down and tombstones
    really expire, but in simulated seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.t += seconds

    def advance(self, seconds: float) -> float:
        """:meth:`sleep`, returning the new time."""
        self.sleep(seconds)
        return self.t


@dataclass
class Invariant:
    """One checked property of an exercise run."""

    name: str
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class ExerciseReport:
    """What every exercise report shares; subclasses add the measurements.

    ``invariants`` is keyword-only so a subclass's own fields stay
    positional. A subclass supplies :meth:`lines`, may override
    :meth:`computed`, and names its non-deterministic keys in
    :attr:`VOLATILE`.
    """

    #: ``to_dict()`` keys :meth:`seeded_core` drops: wall-clock durations
    #: and anything carrying an ephemeral port or probe timing
    VOLATILE: ClassVar[tuple[str, ...]] = ()

    invariants: list[Invariant] = field(default_factory=list, kw_only=True)

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def computed(self) -> dict:
        """Keys :meth:`to_dict` derives instead of storing (``totals``, a
        rounded float); one named like a field replaces its raw value."""
        return {}

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(self.computed())
        doc["invariants"] = [inv.to_dict() for inv in self.invariants]
        doc["ok"] = self.ok
        return doc

    def seeded_core(self) -> dict:
        """The deterministic subset: byte-identical for identical seeds."""
        doc = self.to_dict()
        for volatile in self.VOLATILE:
            doc.pop(volatile)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def lines(self) -> list[str]:
        """The report's own rendered lines, above the invariant tail."""
        raise NotImplementedError

    def render(self) -> str:
        lines = self.lines()
        for inv in self.invariants:
            mark = "ok " if inv.ok else "FAIL"
            lines.append(f"  [{mark}] {inv.name}: {inv.detail}")
        lines.append(
            "verdict: " + ("all invariants hold" if self.ok else "INVARIANT VIOLATED")
        )
        return "\n".join(lines)


# -- hub set-up -----------------------------------------------------------------


class SeededHub:
    """A synthetic hub built on first use: ``config`` is immediate,
    ``dataset`` is generated and ``registry`` / ``truth`` materialized only
    when read, so a caller needing the config or the dataset alone pays
    for nothing else."""

    def __init__(self, config, failures: bool):
        self.config = config
        self.failures = failures

    @cached_property
    def dataset(self):
        from repro.synth import generate_dataset

        return generate_dataset(self.config)

    @cached_property
    def _materialized(self):
        from repro.synth import materialize_registry

        return materialize_registry(
            self.dataset,
            fail_share=self.config.fail_share if self.failures else 0.0,
            fail_auth_share=self.config.fail_auth_share,
            seed=self.config.seed,
        )

    @property
    def registry(self):
        return self._materialized[0]

    @property
    def truth(self):
        return self._materialized[1]


def seeded_hub(scale: str, seed: int, *, failures: bool = False) -> SeededHub:
    """The *scale* preset of :class:`~repro.synth.SyntheticHubConfig` at
    *seed*. With *failures* the materialized registry carries the paper's
    §III-B failure population (auth-gated and ``latest``-less repositories
    in the preset's shares); without, every repository pulls cleanly."""
    from repro.synth import SyntheticHubConfig

    return SeededHub(getattr(SyntheticHubConfig, scale)(seed=seed), failures)


def pull_ops(hub: SeededHub, requests: int, granularity: str = "image") -> list:
    """A popularity-skewed trace of *requests* pulls over *hub*, expanded
    into the manifest/blob request stream a registry would see."""
    from repro.cache import generate_trace
    from repro.loadgen import requests_from_trace

    trace = generate_trace(
        hub.dataset, requests, granularity=granularity, locality=0.2,
        seed=hub.config.seed,
    )
    return requests_from_trace(trace, hub.dataset, hub.truth)


# -- client-side ground truth ----------------------------------------------------

_PHASE_COUNTS = ("attempted", "succeeded", "failed", "corrupt", "retries")


def pull_phase(session, ops, *, max_attempts: int = 5) -> dict[str, int]:
    """Run one phase of pulls through *session*, verifying every blob.

    Each op is retried on transient/backpressure errors; a blob whose
    bytes do not re-hash to its digest counts as ``corrupt`` — the number
    the zero-corruption invariant is about. The frontend verifies at the
    edge too; this client-side check is the independent ground truth.
    """
    counts = dict.fromkeys(_PHASE_COUNTS, 0)
    for op in ops:
        counts["attempted"] += 1
        for attempt in range(max_attempts):
            try:
                if op.kind == "manifest":
                    session.get_manifest(op.repo, op.tag)
                else:
                    blob = session.get_blob(op.digest)
                    if sha256_bytes(blob) != op.digest:
                        counts["corrupt"] += 1
                counts["succeeded"] += 1
                break
            except RateLimitedError as exc:
                counts["retries"] += 1
                if attempt == max_attempts - 1:
                    counts["failed"] += 1
                else:
                    time.sleep(min(exc.retry_after_s or 0.05, 0.25))
            except (TransientNetworkError, RegistryError):
                counts["retries"] += 1
                if attempt == max_attempts - 1:
                    counts["failed"] += 1
                else:
                    time.sleep(0.02)
    return counts


def phase_totals(phases: dict[str, dict[str, int]]) -> dict[str, int]:
    """The :func:`pull_phase` counts summed over every phase."""
    return {
        key: sum(counts[key] for counts in phases.values()) for key in _PHASE_COUNTS
    }


def served_invariants(totals: dict[str, int], corrupt_blocked: int) -> list[Invariant]:
    """The two verdicts on :func:`phase_totals` every serving exercise
    opens with: nothing corrupt reached a client, and >= 99 % of GETs
    succeeded once retried."""
    success = totals["succeeded"] / totals["attempted"] if totals["attempted"] else 0.0
    return [
        Invariant(
            name="zero_corrupt_served",
            ok=totals["corrupt"] == 0,
            detail=f"{totals['corrupt']} corrupt blobs reached a client "
            f"({corrupt_blocked} blocked at the edge)",
        ),
        Invariant(
            name="get_success_after_retries",
            ok=success >= 0.99,
            detail=f"{totals['succeeded']}/{totals['attempted']} = {success:.2%} "
            f"(needs >= 99%) with {totals['retries']} retries",
        ),
    ]


def blob_error(session, digest: str) -> str | None:
    """Pull *digest* through *session*: ``None`` when the bytes re-hash to
    it, else what went wrong. A registry answer (404, 401…) or a network
    failure is the blob being unreadable; anything else is a programming
    error and propagates."""
    try:
        data = session.get_blob(digest)
    except (RegistryError, TransientNetworkError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if sha256_bytes(data) != digest:
        return "bytes do not hash to the digest"
    return None


def availability_sweep(session, *, blobs=(), tags=()) -> dict[str, int]:
    """Read every listed object through *session*; count the unreadable.

    Each ``(repo, tag)`` in *tags* is fetched as a manifest and then layer
    by layer, each digest in *blobs* directly, and every blob is verified
    against its hash (:func:`blob_error` says what counts as unreadable):
    "nothing placed or tagged is ever unreadable", seen from the client.
    """
    checked = unreadable = 0
    digests = list(blobs)
    for repo, tag in tags:
        checked += 1
        try:
            digests.extend(session.get_manifest(repo, tag).layer_digests)
        except (RegistryError, TransientNetworkError):
            unreadable += 1
    for digest in digests:
        checked += 1
        if blob_error(session, digest) is not None:
            unreadable += 1
    return {"checked": checked, "unreadable": unreadable}


# -- cluster bring-up ------------------------------------------------------------


@contextmanager
def serving_cluster(
    source, *, replicas: int, k: int | None = None, vnodes: int | None = None,
    seed: int = 0, clock=None,
):
    """Stamp the *source* registry out over *replicas* started servers
    behind a health-checked failover frontend; yields ``(replica_set,
    monitor, frontend, session, metrics)`` and stops every server on the
    way out, also when the body raises.

    Full replication by default; with *k* (and *vnodes*) the set is a
    k-of-N :class:`~repro.ha.sharded.ShardedReplicaSet` whose ``route``
    the frontend sends blob reads through. *seed* drives ring placement
    and the frontend's read rotation, *clock* is shared by every replica
    registry, *session* is a client on the frontend's address, and
    replicas are ejected after two strikes, reinstated after two probes.
    """
    from repro.ha.frontend import FailoverFrontend
    from repro.ha.health import HealthMonitor
    from repro.ha.replica import RegistryReplicaSet
    from repro.ha.sharded import ShardedReplicaSet
    from repro.obs import MetricsRegistry
    from repro.registry.http import HTTPSession

    metrics = MetricsRegistry()
    if k is None:
        replica_set = RegistryReplicaSet.from_source(
            source, replicas, metrics=metrics, clock=clock
        )
    else:
        replica_set = ShardedReplicaSet.from_source(
            source, replicas, k=k, vnodes=vnodes, seed=seed,
            metrics=metrics, clock=clock,
        )
    try:
        replica_set.start_all()
        monitor = HealthMonitor(
            replica_set.endpoints(), eject_after=2, reinstate_after=2, metrics=metrics
        )
        with FailoverFrontend(
            replica_set.endpoints(), monitor=monitor, seed=seed,
            route=None if k is None else replica_set.route, metrics=metrics,
        ) as frontend:
            session = HTTPSession(frontend.base_url, timeout=5.0)
            yield replica_set, monitor, frontend, session, metrics
    finally:
        replica_set.stop_all()
