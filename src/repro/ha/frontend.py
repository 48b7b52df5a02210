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
The frontend itself runs on :class:`~repro.registry.transport.ServerBase`.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Callable

from repro.ha.health import HealthMonitor
from repro.obs import MetricsRegistry
from repro.registry.transport import (
    ConnectionFailed,
    KeepAliveHandler,
    ServerBase,
    Transport,
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


class _UpstreamAnswer:
    """A response (success or authoritative error) from one replica."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: dict, body: bytes):
        self.status = status
        self.headers = headers
        self.body = body


class _FrontendHandler(KeepAliveHandler):
    # -- plumbing ---------------------------------------------------------------

    @property
    def frontend(self) -> "FailoverFrontend":
        return self.server.frontend  # type: ignore[attr-defined]

    def _respond(self, answer: _UpstreamAnswer, *, head: bool = False) -> None:
        self.send_response(answer.status)
        self.send_header("Content-Length", str(len(answer.body)))
        for key, value in answer.headers.items():
            self.send_header(key, value)
        self.end_headers()
        if not head:
            self.wfile.write(answer.body)

    def _refuse(self, message: str, *, retry_after_s: float) -> None:
        body = json.dumps(
            {"errors": [{"code": "UNAVAILABLE", "message": message}]}
        ).encode()
        self._respond(
            _UpstreamAnswer(
                503,
                {
                    "Content-Type": "application/json",
                    "Retry-After": f"{retry_after_s:.3f}",
                },
                body,
            )
        )

    def _request_headers(self) -> dict[str, str]:
        out = {}
        for name in _FORWARD_REQUEST_HEADERS:
            value = self.headers.get(name)
            if value is not None:
                out[name] = value
        return out

    # -- verbs -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self.frontend._handle_read(self, head=False)

    def do_HEAD(self) -> None:  # noqa: N802
        self.frontend._handle_read(self, head=True)

    def do_POST(self) -> None:  # noqa: N802
        self.frontend._handle_write(self, "POST")

    def do_PATCH(self) -> None:  # noqa: N802
        self.frontend._handle_write(self, "PATCH")

    def do_PUT(self) -> None:  # noqa: N802
        self.frontend._handle_write(self, "PUT")


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
        self._httpd.frontend = self  # type: ignore[attr-defined]
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

    def stop(self) -> None:
        """Close every client connection, then the upstream pool."""
        self._halt()
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
    ) -> _UpstreamAnswer:
        """One upstream try. Raises :class:`ConnectionFailed` on
        infrastructure failure; returns an answer (which may be an
        authoritative error or a shed)."""
        status, received, data = self._upstream.request(
            base, method, path, headers=headers, body=body, timeout=self.timeout_s
        )
        picked = {}
        for name in _FORWARD_RESPONSE_HEADERS:
            value = received.get(name)
            if value is not None:
                picked[name] = value
        return _UpstreamAnswer(status, picked, data)

    @staticmethod
    def _failover_worthy(status: int) -> bool:
        """5xx and 429 mean *this replica* can't answer right now — another
        replica might. Everything else is the registry's actual answer."""
        return status >= 500 or status == 429

    def _handle_read(self, handler: _FrontendHandler, *, head: bool) -> None:
        self._bump("reads")
        path = handler.path
        headers = handler._request_headers()
        blob_match = _BLOB_PATH_RE.match(path.split("?")[0])
        routed = blob_match is not None and self.route is not None
        if routed:
            candidates = self._blob_candidates(blob_match["digest"])
        else:
            candidates = self._read_candidates()
        shed_answer: _UpstreamAnswer | None = None
        miss_answer: _UpstreamAnswer | None = None
        for i, base in enumerate(candidates):
            if i > 0:
                self._bump("failovers")
                self.metrics.counter(
                    "frontend_failovers_total", "reads retried on another replica"
                ).inc()
            try:
                answer = self._attempt(
                    base, path, method="HEAD" if head else "GET", headers=headers
                )
            except ConnectionFailed as exc:
                self.monitor.record_failure(base, f"forward failed: {exc}")
                continue
            if self._failover_worthy(answer.status):
                shed_answer = answer
                # shedding is not sickness: don't count it toward ejection,
                # but a hard 5xx without Retry-After is
                if answer.status >= 500 and "Retry-After" not in answer.headers:
                    self.monitor.record_failure(base, f"upstream {answer.status}")
                continue
            if routed and answer.status == 404:
                # under sharding, one candidate not holding the blob is
                # normal (it may have handed it off, or rebalancing is in
                # flight) — not replica sickness, and not the final answer
                # until every owner and spare has missed
                miss_answer = answer
                self.monitor.record_success(base)
                continue
            if (
                blob_match is not None
                and not head
                and answer.status == 200
                and sha256_bytes(answer.body) != blob_match["digest"]
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
            handler._respond(answer, head=head)
            return
        if shed_answer is not None:
            # every replica is shedding: relay the backpressure honestly
            # (preferred over a 404 fallback — a shedder might hold the blob)
            if "Retry-After" not in shed_answer.headers:
                shed_answer.headers["Retry-After"] = f"{self.retry_after_s:.3f}"
            self._bump("refused")
            self._count_outcome("all_shedding")
            handler._respond(shed_answer, head=head)
            return
        if miss_answer is not None:
            # every owner and spare answered 404: the keyspace's real answer
            self._count_outcome("forwarded")
            handler._respond(miss_answer, head=head)
            return
        self._bump("refused")
        self._count_outcome("no_replica")
        handler._refuse("no replica available", retry_after_s=self.retry_after_s)

    def _handle_write(self, handler: _FrontendHandler, method: str) -> None:
        self._bump("writes")
        length_header = handler.headers.get("Content-Length")
        if length_header is None:
            handler._respond(
                _UpstreamAnswer(
                    411,
                    # the body's framing is unknown: it cannot be skipped
                    {"Content-Type": "application/json", "Connection": "close"},
                    json.dumps(
                        {"errors": [{"code": "LENGTH_REQUIRED",
                                     "message": "Content-Length required"}]}
                    ).encode(),
                )
            )
            return
        body = handler.rfile.read(int(length_header))
        headers = handler._request_headers()
        base = self._write_primary()
        try:
            answer = self._attempt(
                base, handler.path, method=method, headers=headers, body=body
            )
        except ConnectionFailed as exc:
            self.monitor.record_failure(base, f"write forward failed: {exc}")
            self._bump("refused")
            self._count_outcome("write_failed")
            handler._refuse(
                "write primary unavailable", retry_after_s=self.retry_after_s
            )
            return
        self.monitor.record_success(base)
        self._count_outcome("forwarded")
        handler._respond(answer)

    def _count_outcome(self, outcome: str) -> None:
        self.metrics.counter(
            "frontend_requests_total", "requests by outcome", outcome=outcome
        ).inc()
