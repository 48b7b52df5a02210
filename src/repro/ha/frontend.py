"""The failover frontend: one stable address over N flaky replicas.

A load-balancing HTTP proxy for the Docker Registry v2 API:

* **routing** — idempotent reads (GET/HEAD) spread over the replicas the
  :class:`~repro.ha.health.HealthMonitor` calls live, each request
  starting at a *seeded* offset (``derive_seed(seed, "read", n)``) so the
  load is uniform without any replica being a permanent first choice;
  writes pin to the first live replica (the v2 upload protocol is a
  stateful session in one server's memory — bouncing a PATCH to a
  different replica would orphan it), with anti-entropy propagating the
  result later;
* **shard awareness** — given a ``route`` callable (digest → owner URLs +
  spare URLs, from a :class:`~repro.ha.sharded.ShardedReplicaSet`), blob
  GETs go to the blob's owners in ring order, then to spares (the hinted-
  handoff successor). In that mode a 404 from one candidate is *not* the
  keyspace's answer — the next owner may hold the shard — so it fails
  over too, and only becomes the response when every candidate misses;
* **failover** — a connection error, timeout, or 5xx on a read moves to
  the next replica within the same client request, so a replica dying
  mid-run costs clients nothing; failures feed the monitor as passive
  health evidence;
* **edge integrity** — blob GET responses are re-hashed against the digest
  in the URL *before* a byte is forwarded; a mismatch (a rotted replica
  the scrubber has not reached yet) is treated exactly like a failed
  replica: blocked, counted, next candidate tried. Zero corrupt bytes are
  ever served through the frontend — the invariant ``repro cluster``
  asserts;
* **honest refusal** — when every candidate is down or shedding, clients
  get 503 + ``Retry-After`` (backpressure they can act on), not a hang.

Error responses that are *answers* (404, 401, 400…) forward as-is; only
infrastructure failures (connection refused, timeout, 5xx, 429) fail over.

Forwarding is one :meth:`~repro.registry.transport.Transport.request` on a
keep-alive pool the frontend owns (closed by :meth:`FailoverFrontend.stop`);
its :class:`~repro.registry.transport.ConnectionFailed` is the failover
signal. A killed replica shuts down its pooled connections, so the pool
reconnects — and is refused — rather than reading from a dead server.
The frontend itself runs on :class:`~repro.registry.transport.ServerBase`
and shares the registry server's I/O: a write's body is read through
:meth:`~repro.registry.transport.KeepAliveHandler.read_body` (a missing,
malformed or oversized ``Content-Length`` is refused with 411, 400 or
413 before a byte of it is read), and every answer — forwarded,
relayed or the frontend's own 503 — is one ``(status, headers, body)``
triple sent through
:meth:`~repro.registry.transport.KeepAliveHandler.send_answer`. Halting
it (``stop()``, or ``kill()`` without waiting for the accept poll) closes
the upstream pool last.
"""

from __future__ import annotations

import re
import threading
from typing import Callable

from repro.ha.health import HealthMonitor
from repro.obs import MetricsRegistry
from repro.registry.transport import (
    Answer,
    ConnectionFailed,
    KeepAliveHandler,
    Refused,
    ServerBase,
    Transport,
    error_answer,
)
from repro.util.digest import sha256_bytes
from repro.util.rng import derive_seed

_BLOB_PATH_RE = re.compile(r"^/v2/.+/blobs/(?P<digest>sha256:[0-9a-f]+)$")

#: request headers forwarded upstream
_FORWARD_REQUEST_HEADERS = ("Authorization", "Content-Type", "X-Client-Id")
#: response headers forwarded back to the client
_FORWARD_RESPONSE_HEADERS = (
    "Content-Type",
    "Docker-Content-Digest",
    "Location",
    "Range",
    "Retry-After",
)


class _FrontendHandler(KeepAliveHandler):
    """Every method the frontend takes is forwarded: the owner picks the
    replica and returns the answer, this sends it."""

    owner: "FailoverFrontend"

    def _forward(self) -> None:
        headers = {
            name: self.headers[name]
            for name in _FORWARD_REQUEST_HEADERS
            if name in self.headers
        }
        if self.command in ("GET", "HEAD"):
            answer = self.owner._handle_read(self.command, self.path, headers)
        else:
            answer = self.owner._handle_write(self, headers)
        self.send_answer(*answer)

    do_GET = do_HEAD = do_POST = do_PATCH = do_PUT = _forward


class FailoverFrontend(ServerBase):
    """Health-checked, digest-verifying load balancer over registry replicas."""

    def __init__(
        self,
        endpoints: list[str],
        *,
        monitor: HealthMonitor | None = None,
        port: int = 0,
        timeout_s: float = 2.0,
        retry_after_s: float = 0.25,
        seed: int = 0,
        route: Callable[[str], tuple[list[str], list[str]]] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if not endpoints:
            raise ValueError("frontend needs at least one replica endpoint")
        self.endpoints = list(endpoints)
        self.monitor = monitor if monitor is not None else HealthMonitor(endpoints)
        self.timeout_s = timeout_s
        self.retry_after_s = retry_after_s
        self.seed = seed
        #: optional shard router: digest -> (owner URLs in ring order, spares)
        self.route = route
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: keep-alive connections to the replicas, shared by handler threads
        self._upstream = Transport()
        super().__init__(_FrontendHandler, port)
        self._read_lock = threading.Lock()
        self._read_count = 0
        self.stats = {
            "reads": 0,
            "writes": 0,
            "failovers": 0,
            "corrupt_blocked": 0,
            "refused": 0,
        }
        self._stats_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------------

    def _halt(self) -> None:
        """Close every client connection, then the upstream pool."""
        super()._halt()
        self._upstream.close()

    # -- accounting --------------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self.stats[key] += n

    # -- candidate selection -----------------------------------------------------

    def _read_candidates(self) -> list[str]:
        """Live replicas rotated by a seeded per-request offset; all of
        them as a last gasp when the monitor has ejected everything (stale
        verdicts beat a guaranteed refusal).

        The offset is ``derive_seed(seed, "read", n)`` for the n-th read —
        uniform over the pool however its size shifts. A plain incrementing
        cursor is *not*: every ejection/reinstatement changes ``len(pool)``
        under the cursor, and the modulo can re-synchronize so one replica
        ends up permanently first in line (a hot spot that lasts until the
        next membership change)."""
        live = self.monitor.live()
        pool = live if live else list(self.endpoints)
        with self._read_lock:
            count = self._read_count
            self._read_count += 1
        start = derive_seed(self.seed, "read", count) % len(pool)
        return pool[start:] + pool[:start]

    def _blob_candidates(self, digest: str) -> list[str]:
        """Shard-routed candidates: owners in ring order, then spares.

        Monitor-ejected candidates sink to the back rather than drop out —
        for a sharded blob they are still the only places the bytes can
        be, so trying them last beats refusing outright."""
        owners, spares = self.route(digest)
        ordered = owners + [url for url in spares if url not in owners]
        if not ordered:
            return self._read_candidates()
        live = set(self.monitor.live())
        return [u for u in ordered if u in live] + [
            u for u in ordered if u not in live
        ]

    def _write_primary(self) -> str:
        live = self.monitor.live()
        return live[0] if live else self.endpoints[0]

    # -- the forwarding core -----------------------------------------------------

    def _attempt(
        self,
        base: str,
        path: str,
        *,
        method: str,
        headers: dict[str, str],
        body: bytes | None = None,
    ) -> Answer:
        """One upstream try. Raises :class:`ConnectionFailed` on
        infrastructure failure; returns the answer (which may be an
        authoritative error or a shed), with the forwarded headers only."""
        status, received, data = self._upstream.request(
            base, method, path, headers=headers, body=body, timeout=self.timeout_s
        )
        picked = {}
        for name in _FORWARD_RESPONSE_HEADERS:
            value = received.get(name)
            if value is not None:
                picked[name] = value
        return status, picked, data

    @staticmethod
    def _failover_worthy(status: int) -> bool:
        """5xx and 429 mean *this replica* can't answer right now — another
        replica might. Everything else is the registry's actual answer."""
        return status >= 500 or status == 429

    def _handle_read(self, method: str, path: str, headers: dict[str, str]) -> Answer:
        self._bump("reads")
        blob_match = _BLOB_PATH_RE.match(path.split("?")[0])
        routed = blob_match is not None and self.route is not None
        if routed:
            candidates = self._blob_candidates(blob_match["digest"])
        else:
            candidates = self._read_candidates()
        shed_answer: Answer | None = None
        miss_answer: Answer | None = None
        for i, base in enumerate(candidates):
            if i > 0:
                self._bump("failovers")
                self.metrics.counter(
                    "frontend_failovers_total", "reads retried on another replica"
                ).inc()
            try:
                answer = self._attempt(base, path, method=method, headers=headers)
            except ConnectionFailed as exc:
                self.monitor.record_failure(base, f"forward failed: {exc}")
                continue
            status, received, body = answer
            if self._failover_worthy(status):
                shed_answer = answer
                # shedding is not sickness: don't count it toward ejection,
                # but a hard 5xx without Retry-After is
                if status >= 500 and "Retry-After" not in received:
                    self.monitor.record_failure(base, f"upstream {status}")
                continue
            if routed and status == 404:
                # under sharding, one candidate not holding the blob is
                # normal (it may have handed it off, or rebalancing is in
                # flight) — not replica sickness, and not the final answer
                # until every owner and spare has missed
                miss_answer = answer
                self.monitor.record_success(base)
                continue
            if (
                blob_match is not None
                and method == "GET"
                and status == 200
                and sha256_bytes(body) != blob_match["digest"]
            ):
                self._bump("corrupt_blocked")
                self.metrics.counter(
                    "frontend_corrupt_blocked_total",
                    "corrupt blob responses blocked at the edge",
                ).inc()
                self.monitor.record_failure(base, "served corrupt blob")
                continue
            self.monitor.record_success(base)
            self._count_outcome("forwarded")
            return answer
        if shed_answer is not None:
            # every replica is shedding: relay the backpressure honestly
            # (preferred over a 404 fallback — a shedder might hold the blob)
            shed_answer[1].setdefault("Retry-After", f"{self.retry_after_s:.3f}")
            self._bump("refused")
            self._count_outcome("all_shedding")
            return shed_answer
        if miss_answer is not None:
            # every owner and spare answered 404: the keyspace's real answer
            self._count_outcome("forwarded")
            return miss_answer
        self._bump("refused")
        self._count_outcome("no_replica")
        return error_answer(
            503, "UNAVAILABLE", "no replica available", retry_after_s=self.retry_after_s
        )

    def _handle_write(self, handler: _FrontendHandler, headers: dict[str, str]) -> Answer:
        """Forward a write to the primary; its body is read first, through
        the handler's bounded reader (411/400/413 before a byte of it)."""
        self._bump("writes")
        try:
            body = handler.read_body()
        except Refused as refused:
            return refused.answer()
        base = self._write_primary()
        try:
            answer = self._attempt(
                base, handler.path, method=handler.command, headers=headers, body=body
            )
        except ConnectionFailed as exc:
            self.monitor.record_failure(base, f"write forward failed: {exc}")
            self._bump("refused")
            self._count_outcome("write_failed")
            return error_answer(
                503, "UNAVAILABLE", "write primary unavailable",
                retry_after_s=self.retry_after_s,
            )
        self.monitor.record_success(base)
        self._count_outcome("forwarded")
        return answer

    def _count_outcome(self, outcome: str) -> None:
        self.metrics.counter(
            "frontend_requests_total", "requests by outcome", outcome=outcome
        ).inc()
