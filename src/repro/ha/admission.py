"""Server-side admission control: bounded concurrency, bounded queueing,
per-client rate limiting.

An unprotected ``ThreadingHTTPServer`` accepts every connection and spawns
a thread for it; under open-loop overload (arrivals > capacity) the
backlog — and every request's latency — grows without bound until the
process dies. The cure is the classic admission gate:

* at most ``max_concurrent`` requests execute at once;
* at most ``max_queue`` more may *wait*, and only up to
  ``queue_timeout_s`` (a request's queueing deadline) — everything else is
  shed immediately with 503 + ``Retry-After``, so accepted requests keep a
  bounded p99 and shed clients know when to come back;
* a per-client token bucket (keyed by client id) throttles any single
  client before it can starve the shared gate.

Everything takes an injectable clock/sleep so tests run in virtual time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.obs import MetricsRegistry

#: admission outcomes
ADMITTED = "admitted"
SHED_QUEUE_FULL = "queue_full"
SHED_TIMEOUT = "queue_timeout"
SHED_DRAINING = "draining"
SHED_RATE_LIMITED = "rate_limited"


@dataclass(frozen=True)
class AdmissionResult:
    """What the gate decided for one request."""

    outcome: str
    #: how long the request waited in the queue before the verdict
    waited_s: float = 0.0
    #: the Retry-After hint to send when shed (0 when admitted)
    retry_after_s: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.outcome == ADMITTED


class AdmissionGate:
    """A concurrency-limited gate with a bounded, deadline-bounded queue.

    ``try_acquire`` blocks up to ``queue_timeout_s`` for an execution slot
    and returns an :class:`AdmissionResult`; the caller must ``release()``
    after an admitted request finishes. The queue itself is bounded: a
    request arriving when ``max_queue`` others are already waiting is shed
    without waiting at all (better to say no fast than to say maybe
    slowly).
    """

    def __init__(
        self,
        *,
        max_concurrent: int = 32,
        max_queue: int = 64,
        queue_timeout_s: float = 0.5,
        retry_after_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ):
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if queue_timeout_s < 0 or retry_after_s < 0:
            raise ValueError("timeouts must be non-negative")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout_s = queue_timeout_s
        self.retry_after_s = retry_after_s
        self._clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._cond = threading.Condition()
        self._active = 0
        self._waiting = 0
        self.shed: dict[str, int] = {}

    # -- introspection ---------------------------------------------------------

    @property
    def active(self) -> int:
        with self._cond:
            return self._active

    @property
    def waiting(self) -> int:
        with self._cond:
            return self._waiting

    def stats(self) -> dict[str, int]:
        with self._cond:
            out = {"active": self._active, "waiting": self._waiting}
            out.update({f"shed_{k}": v for k, v in sorted(self.shed.items())})
            return out

    # -- the gate ---------------------------------------------------------------

    def _shed(self, reason: str) -> AdmissionResult:
        self.shed[reason] = self.shed.get(reason, 0) + 1
        self.metrics.counter(
            "admission_shed_total", "requests shed by the gate", reason=reason
        ).inc()
        return AdmissionResult(outcome=reason, retry_after_s=self.retry_after_s)

    def try_acquire(self, *, timeout_s: float | None = None) -> AdmissionResult:
        """Wait (bounded) for an execution slot.

        *timeout_s* overrides the gate's queue timeout — a request carrying
        its own deadline passes the remaining budget here.
        """
        budget = self.queue_timeout_s if timeout_s is None else timeout_s
        start = self._clock()
        with self._cond:
            if self._active < self.max_concurrent:
                self._active += 1
                self._observe_depth()
                return AdmissionResult(outcome=ADMITTED)
            if self._waiting >= self.max_queue:
                return self._shed(SHED_QUEUE_FULL)
            self._waiting += 1
            self._observe_depth()
            try:
                while self._active >= self.max_concurrent:
                    remaining = budget - (self._clock() - start)
                    if remaining <= 0:
                        return self._shed(SHED_TIMEOUT)
                    self._cond.wait(remaining)
                self._active += 1
                return AdmissionResult(
                    outcome=ADMITTED, waited_s=self._clock() - start
                )
            finally:
                self._waiting -= 1
                self._observe_depth()

    def release(self) -> None:
        with self._cond:
            if self._active <= 0:
                raise RuntimeError("release() without a matching acquire")
            self._active -= 1
            self._cond.notify()
            self._observe_depth()

    def drain(self, *, timeout_s: float, sleep: Callable[[float], None] = time.sleep) -> bool:
        """Wait until no request is executing (for graceful shutdown).

        Returns True when fully drained, False when *timeout_s* elapsed
        with requests still in flight.
        """
        deadline = self._clock() + timeout_s
        while True:
            with self._cond:
                if self._active == 0:
                    return True
            if self._clock() >= deadline:
                return False
            sleep(0.005)

    def _observe_depth(self) -> None:
        """Caller holds the lock."""
        self.metrics.gauge("admission_active", "requests executing").set(self._active)
        self.metrics.gauge("admission_waiting", "requests queued").set(self._waiting)


class TokenBucketLimiter:
    """Per-client token buckets: ``rate_per_s`` sustained, ``burst`` peak.

    ``admit(client)`` spends one token from *client*'s bucket (created full
    on first sight) and returns ``0.0`` when the request may proceed, or,
    when denied, how long until a token accrues — the honest
    ``Retry-After`` for a 429, computed from the same clock sample as the
    denial, so no stall before the answer can shrink it to ``0``.
    """

    def __init__(
        self,
        *,
        rate_per_s: float = 50.0,
        burst: int = 20,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        max_clients: int = 10_000,
    ):
        if rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.max_clients = max_clients
        self._clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        #: client id -> (tokens, last refill time)
        self._buckets: dict[str, tuple[float, float]] = {}
        self.denied = 0

    def _refill(self, client: str, now: float) -> float:
        tokens, last = self._buckets.get(client, (float(self.burst), now))
        tokens = min(float(self.burst), tokens + (now - last) * self.rate_per_s)
        return tokens

    def admit(self, client: str) -> float:
        """Spend one token: ``0.0`` when admitted, else the seconds until
        *client* accrues one (always positive)."""
        now = self._clock()
        with self._lock:
            if client not in self._buckets and len(self._buckets) >= self.max_clients:
                # cap the table; forget the stalest bucket (full ones first
                # would be ideal, but oldest-refilled is close and O(n) only
                # at the cap)
                stalest = min(self._buckets, key=lambda c: self._buckets[c][1])
                del self._buckets[stalest]
            tokens = self._refill(client, now)
            if tokens >= 1.0:
                self._buckets[client] = (tokens - 1.0, now)
                return 0.0
            self._buckets[client] = (tokens, now)
            self.denied += 1
        self.metrics.counter(
            "ratelimit_denied_total", "requests denied by the per-client limiter"
        ).inc()
        return (1.0 - tokens) / self.rate_per_s

    def allow(self, client: str) -> bool:
        """:meth:`admit` as a yes/no."""
        return self.admit(client) == 0.0


@dataclass
class ServerLimits:
    """Everything :class:`~repro.registry.http.RegistryHTTPServer` needs to
    protect itself; bundle so callers configure one object.

    ``None`` members disable that protection. ``request_deadline_s`` bounds
    a request's total queueing budget (the gate wait never exceeds the
    remaining deadline); ``max_body_bytes`` caps upload bodies (413 past
    it); ``upload_ttl_s`` expires abandoned upload sessions.
    """

    gate: AdmissionGate | None = None
    limiter: TokenBucketLimiter | None = None
    request_deadline_s: float | None = None
    max_body_bytes: int = 64 * 1024 * 1024
    upload_ttl_s: float = 300.0
    drain_timeout_s: float = 5.0

    @classmethod
    def default(cls, **overrides) -> "ServerLimits":
        """A sane protective default: gate + limiter with test-fast knobs."""
        fields = {
            "gate": AdmissionGate(),
            "limiter": TokenBucketLimiter(),
        }
        fields.update(overrides)
        return cls(**fields)
