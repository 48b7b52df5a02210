"""Replica health tracking: active probes, passive reports, ejection.

A replica is judged on two HTTP endpoints, mirroring the liveness /
readiness split: ``/v2/`` (the registry answers at all) and ``/healthz``
(it *wants* traffic — a draining or saturated server says no here first).
Evidence arrives two ways:

* **actively** — :meth:`HealthMonitor.probe_all` hits both endpoints with
  a short timeout (call it from a loop, a background thread via
  :meth:`start`, or deterministically from a test); :func:`http_probe`
  sends both over one fresh :class:`~repro.registry.transport.Transport`
  connection and closes it, so a pass also proves that a new connect
  works — which a pooled data-path connection would not;
* **passively** — the frontend reports every forwarding success/failure,
  so a replica that drops connections gets ejected between probe ticks.

``eject_after`` consecutive failures mark a replica EJECTED; the frontend
stops routing to it. While ejected only *active probe* successes count
toward reinstatement (``reinstate_after`` in a row) — passive successes
can't happen since no traffic is routed, and a single lucky probe
shouldn't reinstate a flapping replica.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.obs import MetricsRegistry
from repro.registry.transport import ConnectionFailed, Transport

LIVE = "live"
EJECTED = "ejected"


@dataclass
class ReplicaHealth:
    """Evidence and verdict for one replica endpoint."""

    url: str
    state: str = LIVE
    consecutive_failures: int = 0
    consecutive_probe_successes: int = 0
    ejections: int = 0
    reinstatements: int = 0
    last_error: str = ""

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "ejections": self.ejections,
            "reinstatements": self.reinstatements,
            "last_error": self.last_error,
        }


def http_probe(url: str, timeout_s: float) -> tuple[bool, str]:
    """One liveness+readiness check against a replica base URL.

    Healthy means ``/v2/`` answers 200 AND ``/healthz`` reports ready.
    Both probes share one fresh connection, closed afterwards, so a pass
    also proves the replica still accepts new connections.
    Returns ``(ok, detail)``.
    """
    with Transport() as transport:
        for path, what in (("/v2/", "liveness"), ("/healthz", "readiness")):
            try:
                status, _, _ = transport.request(url, "GET", path, timeout=timeout_s)
            except ConnectionFailed as exc:
                return False, f"{what} unreachable: {exc}"
            if status != 200:
                return False, f"{what} returned {status}"
    return True, "ok"


class HealthMonitor:
    """Per-replica ejection and reinstatement over any probe function."""

    def __init__(
        self,
        endpoints: list[str],
        *,
        eject_after: int = 3,
        reinstate_after: int = 2,
        probe_timeout_s: float = 0.5,
        probe: Callable[[str, float], tuple[bool, str]] = http_probe,
        metrics: MetricsRegistry | None = None,
    ):
        if eject_after < 1:
            raise ValueError(f"eject_after must be >= 1, got {eject_after}")
        if reinstate_after < 1:
            raise ValueError(f"reinstate_after must be >= 1, got {reinstate_after}")
        self.eject_after = eject_after
        self.reinstate_after = reinstate_after
        self.probe_timeout_s = probe_timeout_s
        self._probe = probe
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._replicas: dict[str, ReplicaHealth] = {
            url: ReplicaHealth(url=url) for url in endpoints
        }
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    # -- verdicts ---------------------------------------------------------------

    def live(self) -> list[str]:
        """Replica URLs currently routable, in declaration order."""
        with self._lock:
            return [r.url for r in self._replicas.values() if r.state == LIVE]

    def all_endpoints(self) -> list[str]:
        with self._lock:
            return list(self._replicas)

    def health(self, url: str) -> ReplicaHealth:
        with self._lock:
            return self._replicas[url]

    def snapshot(self) -> list[dict]:
        with self._lock:
            return [r.to_dict() for r in self._replicas.values()]

    # -- membership --------------------------------------------------------------

    def track(self, url: str) -> None:
        """Start watching a replica that joined after construction."""
        with self._lock:
            if url not in self._replicas:
                self._replicas[url] = ReplicaHealth(url=url)

    def untrack(self, url: str) -> None:
        """Forget a replica that left the cluster."""
        with self._lock:
            self._replicas.pop(url, None)

    # -- evidence ---------------------------------------------------------------

    def _gauge(self, replica: ReplicaHealth) -> None:
        """Caller holds the lock."""
        self.metrics.gauge(
            "replica_live", "1 when routable, 0 when ejected", replica=replica.url
        ).set(1.0 if replica.state == LIVE else 0.0)

    def record_failure(self, url: str, detail: str = "") -> None:
        """Passive evidence from the data path (a forward failed)."""
        with self._lock:
            replica = self._replicas.get(url)
            if replica is None:
                return  # not tracked (e.g. routed to by name before join registered)
            replica.consecutive_failures += 1
            replica.consecutive_probe_successes = 0
            replica.last_error = detail
            if replica.state == LIVE and replica.consecutive_failures >= self.eject_after:
                replica.state = EJECTED
                replica.ejections += 1
                self.metrics.counter(
                    "replica_ejections_total", "replicas ejected", replica=url
                ).inc()
            self._gauge(replica)

    def record_success(self, url: str) -> None:
        """Passive evidence from the data path (a forward succeeded)."""
        with self._lock:
            replica = self._replicas.get(url)
            if replica is None:
                # a successful forward proves a real replica: adopt it
                replica = self._replicas[url] = ReplicaHealth(url=url)
            replica.consecutive_failures = 0
            if replica.state == LIVE:
                replica.last_error = ""
            self._gauge(replica)

    def _record_probe(self, url: str, ok: bool, detail: str) -> None:
        with self._lock:
            replica = self._replicas[url]
            if ok:
                replica.consecutive_failures = 0
                replica.consecutive_probe_successes += 1
                if (
                    replica.state == EJECTED
                    and replica.consecutive_probe_successes >= self.reinstate_after
                ):
                    replica.state = LIVE
                    replica.reinstatements += 1
                    replica.last_error = ""
                    self.metrics.counter(
                        "replica_reinstatements_total",
                        "ejected replicas brought back",
                        replica=url,
                    ).inc()
            else:
                replica.consecutive_probe_successes = 0
                replica.consecutive_failures += 1
                replica.last_error = detail
                if replica.state == LIVE and replica.consecutive_failures >= self.eject_after:
                    replica.state = EJECTED
                    replica.ejections += 1
                    self.metrics.counter(
                        "replica_ejections_total", "replicas ejected", replica=url
                    ).inc()
            self._gauge(replica)

    def probe_all(self) -> dict[str, bool]:
        """One active check of every replica; returns url -> healthy."""
        results: dict[str, bool] = {}
        for url in self.all_endpoints():
            ok, detail = self._probe(url, self.probe_timeout_s)
            self._record_probe(url, ok, detail)
            results[url] = ok
        return results

    def probe_until_live(self, url: str, *, attempts: int = 10) -> bool:
        """Actively probe one replica until it reinstates (or give up) —
        what an operator does right after restarting a replica."""
        for _ in range(attempts):
            ok, detail = self._probe(url, self.probe_timeout_s)
            self._record_probe(url, ok, detail)
            if self.health(url).state == LIVE:
                return True
            if not ok:
                return False
        return self.health(url).state == LIVE

    # -- background probing ------------------------------------------------------

    def start(self, interval_s: float = 0.25) -> "HealthMonitor":
        if self._thread is not None:
            raise RuntimeError("monitor already started")
        self._stop_event.clear()

        def loop() -> None:
            while not self._stop_event.wait(interval_s):
                self.probe_all()

        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join()
            self._thread = None
