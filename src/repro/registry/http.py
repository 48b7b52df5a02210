"""Docker Registry HTTP API v2 over a real socket.

The paper's downloader "calls the Docker registry API directly" — this
module provides that API as an actual HTTP service so the pipeline can run
across a genuine network boundary:

* ``RegistryHTTPServer`` — serves a :class:`Registry` (and its Hub search
  engine) on localhost: ``/v2/`` version check, manifests by tag/digest
  (GET/HEAD/PUT, with ``Docker-Content-Digest``), blobs by digest, the blob
  upload protocol (``POST /blobs/uploads/`` → ``PATCH`` chunks → ``PUT``
  finalize with digest verification), ``tags/list``, a paginated
  ``/v2/_catalog``, the Hub web search at ``/search``, a ``/healthz``
  readiness probe, and per-endpoint request counters / latency histograms
  exported in Prometheus text format at ``/metrics``;
* ``HTTPSession`` — the downloader-facing client with the same method
  surface (and error mapping) as
  :class:`~repro.downloader.session.SimulatedSession`;
* ``HTTPSearchClient`` — the crawler-facing search client, duck-compatible
  with :class:`~repro.registry.search.HubSearchEngine`.

How connections live is :mod:`repro.registry.transport`'s business: the
server runs on its :class:`~repro.registry.transport.ServerBase` (HTTP/1.1
keep-alive, Nagle off, every connection shut down on ``stop()`` /
``kill()``), and each client owns a
:class:`~repro.registry.transport.Transport` pool — close it with
``close()`` or a ``with`` block. A client call is headers, one
``request()``, and one map from ``(status, headers, body)`` to a typed
error (:func:`_error_from_response`); a broken connection surfaces as
:class:`~repro.downloader.session.TransientNetworkError` prefixed
``connection failed:`` (never reached the server) or ``connection broke:``
(the response broke). Nothing is retried here — that is the downloader's
policy.

The server protects itself under load when given a
:class:`~repro.ha.admission.ServerLimits`: a concurrency-limited admission
gate with a bounded queue sheds excess traffic with 503 + ``Retry-After``
(accepted requests keep a bounded p99 instead of queueing without limit),
a per-client token bucket 429s any one client hammering the shared gate,
request bodies are bounded (411 without ``Content-Length``, 413 past
``max_body_bytes``), abandoned upload sessions expire on a TTL, and
``stop()`` drains gracefully — in-flight requests finish while new ones
are refused. ``/metrics`` and ``/healthz`` bypass the gate so
observability and health checking survive any storm. Any answer sent
before a request's body was read (a refusal, an injected fault, an
unmatched write path) carries ``Connection: close``, so the unread bytes
are never parsed as the next request on a kept-alive connection.

Auth mirrors the registry's model: repositories flagged ``requires_auth``
return 401 unless a ``Bearer`` token is presented.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
import urllib.parse
from email.message import Message
from typing import Callable

from repro.model.manifest import MANIFEST_MEDIA_TYPE, Manifest
from repro.obs import MetricsRegistry
from repro.registry.errors import (
    AuthRequiredError,
    BlobNotFoundError,
    ManifestNotFoundError,
    RegistryError,
    RepositoryNotFoundError,
    TagNotFoundError,
)
from repro.registry.registry import Registry
from repro.registry.search import HubSearchEngine, SearchPage
from repro.registry.transport import (
    ConnectionFailed,
    KeepAliveHandler,
    ServerBase,
    Transport,
)

_MANIFEST_RE = re.compile(r"^/v2/(?P<name>.+)/manifests/(?P<ref>[^/]+)$")
_RANGE_RE = re.compile(r"^bytes=(?P<start>\d*)-(?P<end>\d*)$")
_BLOB_RE = re.compile(r"^/v2/(?P<name>.+)/blobs/(?P<digest>sha256:[^/]+)$")
_TAGS_RE = re.compile(r"^/v2/(?P<name>.+)/tags/list$")
_TAG_RE = re.compile(r"^/v2/(?P<name>.+)/tags/(?P<tag>[^/]+)$")
_UPLOAD_START_RE = re.compile(r"^/v2/(?P<name>.+)/blobs/uploads/$")
_UPLOAD_RE = re.compile(r"^/v2/(?P<name>.+)/blobs/uploads/(?P<uuid>[0-9a-f-]+)$")

#: registry error -> (HTTP status, v2 error code)
_ERROR_MAP: list[tuple[type, int, str]] = [
    (AuthRequiredError, 401, "UNAUTHORIZED"),
    (RepositoryNotFoundError, 404, "NAME_UNKNOWN"),
    (TagNotFoundError, 404, "MANIFEST_UNKNOWN"),
    (ManifestNotFoundError, 404, "MANIFEST_UNKNOWN"),
    (BlobNotFoundError, 404, "BLOB_UNKNOWN"),
]


#: endpoints that must answer even while shedding or draining
_UNGATED_ENDPOINTS = ("metrics", "healthz")

#: body cap applied when the server carries no ServerLimits
_DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: methods whose request carries a body the handler must read
_BODY_METHODS = ("POST", "PATCH", "PUT")


def _endpoint_of(path: str) -> str:
    """Classify a request path into a bounded endpoint label (metrics must
    not explode cardinality with per-repo paths)."""
    if path in ("/v2", "/v2/"):
        return "ping"
    if path == "/healthz":
        return "healthz"
    if path == "/v2/_catalog":
        return "catalog"
    if path == "/search":
        return "search"
    if path == "/metrics":
        return "metrics"
    if _UPLOAD_START_RE.match(path) or _UPLOAD_RE.match(path):
        return "upload"
    if _MANIFEST_RE.match(path):
        return "manifest"
    if _BLOB_RE.match(path):
        return "blob"
    if _TAGS_RE.match(path) or _TAG_RE.match(path):
        return "tags"
    return "other"


class _RequestRejected(Exception):
    """A request refused before (or instead of) normal handling."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after_s: float | None = None,
        reason: str | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s
        #: bounded label for the shed metric (defaults to the error code)
        self.reason = reason if reason is not None else code.lower()


class _Handler(KeepAliveHandler):
    """Request handler bound to a server carrying the registry."""

    server: "RegistryHTTPServer"
    _payload_faults = None
    _body_read = False

    # -- plumbing ------------------------------------------------------------

    def _token(self) -> str | None:
        header = self.headers.get("Authorization", "")
        if header.startswith("Bearer "):
            return header[len("Bearer ") :]
        return None

    def _send(self, status: int, body: bytes, content_type: str, extra: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        if self.command in _BODY_METHODS and not self._body_read:
            # answered before the declared body was read: on a kept-alive
            # connection its bytes would parse as the next request line
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, status: int, doc: dict, extra: dict | None = None) -> None:
        self._send(status, json.dumps(doc).encode(), "application/json", extra)

    def _send_error(self, exc: RegistryError) -> None:
        for cls, status, code in _ERROR_MAP:
            if isinstance(exc, cls):
                self._send_json(
                    status, {"errors": [{"code": code, "message": str(exc)}]}
                )
                return
        self._send_json(
            500, {"errors": [{"code": "UNKNOWN", "message": str(exc)}]}
        )

    # -- routing ---------------------------------------------------------------

    def _inject_fault(self, endpoint: str) -> bool:
        """Consult the server's fault injector (if any) for this request.

        Returns True when a fault fully answered (or killed) the request;
        payload faults are stashed on the handler for the blob branch to
        apply. The ``/metrics`` endpoint is never faulted so observability
        survives any storm.
        """
        self._payload_faults = None
        injector = getattr(self.server, "fault_injector", None)
        if injector is None or endpoint == "metrics":
            return False
        faults = injector.plan(endpoint, urllib.parse.urlparse(self.path).path)
        if faults.latency_s:
            time.sleep(faults.latency_s)
        if faults.error_kind == "rate_limit":
            self._send_json(
                429,
                {"errors": [{"code": "TOOMANYREQUESTS", "message": "injected rate limit"}]},
                {"Retry-After": f"{faults.retry_after_s:.3f}"},
            )
            return True
        if faults.error_kind is not None and faults.error_kind != "flap":
            self._send_json(
                503,
                {"errors": [{"code": "UNAVAILABLE", "message": "injected server error"}]},
            )
            return True
        if faults.error_kind == "flap":
            # Kill the connection without a response: the client sees a
            # reset / premature EOF, like a flapping upstream.
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.close_connection = True
            return True
        if faults.mutations:
            self._payload_faults = faults
        return False

    def _client_id(self) -> str:
        """Who is asking — an explicit ``X-Client-Id`` (loadgen's virtual
        clients) or the connection's source address."""
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _admit(self, endpoint: str):
        """Run the server's overload-protection gauntlet for this request.

        Returns the admission gate to ``release()`` afterwards (None when
        ungated); raises :class:`_RequestRejected` to shed. Order matters:
        drain refusal first (the server is going away), then the per-client
        limiter (one hog must not reach the shared gate), then the gate.
        """
        owner = getattr(self.server, "owner", None)
        if owner is None or endpoint in _UNGATED_ENDPOINTS:
            return None
        if owner.draining:
            raise _RequestRejected(
                503, "UNAVAILABLE", "server is draining",
                retry_after_s=1.0, reason="draining",
            )
        limits = owner.limits
        if limits is None:
            return None
        if limits.limiter is not None and not limits.limiter.allow(self._client_id()):
            raise _RequestRejected(
                429, "TOOMANYREQUESTS", "client over rate limit",
                retry_after_s=limits.limiter.retry_after(self._client_id()),
                reason="rate_limited",
            )
        if limits.gate is not None:
            result = limits.gate.try_acquire(timeout_s=limits.request_deadline_s)
            if not result.admitted:
                raise _RequestRejected(
                    503, "UNAVAILABLE", f"overloaded ({result.outcome})",
                    retry_after_s=result.retry_after_s, reason=result.outcome,
                )
            return limits.gate
        return None

    def _reject(self, rejected: _RequestRejected, endpoint: str) -> None:
        extra = {}
        if rejected.retry_after_s is not None:
            extra["Retry-After"] = f"{rejected.retry_after_s:.3f}"
        self.server.metrics.counter(
            "registry_http_rejected_total",
            "requests shed or refused before handling",
            endpoint=endpoint,
            reason=rejected.reason,
        ).inc()
        self._send_json(
            rejected.status,
            {"errors": [{"code": rejected.code, "message": rejected.message}]},
            extra,
        )

    def _observed(self, handler) -> None:
        """Run one request handler under admission control and per-endpoint
        metrics accounting."""
        metrics = self.server.metrics
        self._body_read = False
        endpoint = _endpoint_of(urllib.parse.urlparse(self.path).path)
        # count on receipt, not in the finally: a client that got its bytes
        # must already observe the counter bumped (tests race on this)
        metrics.counter(
            "registry_http_requests_total",
            "requests served, by endpoint and method",
            endpoint=endpoint,
            method=self.command,
        ).inc()
        owner = getattr(self.server, "owner", None)
        start = time.perf_counter()
        try:
            try:
                gate = self._admit(endpoint)
            except _RequestRejected as rejected:
                self._reject(rejected, endpoint)
                return
            if owner is not None:
                owner._request_began()
            try:
                if not self._inject_fault(endpoint):
                    handler()
            except _RequestRejected as rejected:
                self._reject(rejected, endpoint)
            finally:
                if gate is not None:
                    gate.release()
                if owner is not None:
                    owner._request_ended()
        finally:
            metrics.histogram(
                "registry_http_request_seconds",
                "request handling latency",
                endpoint=endpoint,
            ).observe(time.perf_counter() - start)

    def do_GET(self) -> None:  # noqa: N802
        self._observed(self._route)

    def do_HEAD(self) -> None:  # noqa: N802
        self._observed(self._route)

    def do_POST(self) -> None:  # noqa: N802
        self._observed(self._post)

    def do_PATCH(self) -> None:  # noqa: N802
        self._observed(self._patch)

    def do_PUT(self) -> None:  # noqa: N802
        self._observed(self._put)

    def do_DELETE(self) -> None:  # noqa: N802
        self._observed(self._delete)

    def _body(self) -> bytes:
        """Read the request body, bounded.

        A body-bearing request without ``Content-Length`` is a 411 (reading
        until EOF on a keep-alive connection would hang; trusting zero
        would silently drop the payload), and a declared length past the
        server's ``max_body_bytes`` is a 413 — refused before a byte of it
        is read.
        """
        header = self.headers.get("Content-Length")
        if header is None:
            raise _RequestRejected(
                411, "LENGTH_REQUIRED", "Content-Length required",
                reason="length_required",
            )
        try:
            length = int(header)
            if length < 0:
                raise ValueError(header)
        except ValueError:
            raise _RequestRejected(
                400, "BAD_REQUEST", f"bad Content-Length: {header!r}",
                reason="bad_length",
            ) from None
        owner = getattr(self.server, "owner", None)
        max_bytes = _DEFAULT_MAX_BODY_BYTES
        if owner is not None and owner.limits is not None:
            max_bytes = owner.limits.max_body_bytes
        if length > max_bytes:
            raise _RequestRejected(
                413, "PAYLOAD_TOO_LARGE",
                f"body of {length} bytes exceeds limit of {max_bytes}",
                reason="body_too_large",
            )
        body = self.rfile.read(length) if length else b""
        self._body_read = True
        return body

    def _post(self) -> None:
        match = _UPLOAD_START_RE.match(urllib.parse.urlparse(self.path).path)
        if not match:
            self._send_json(404, {"errors": [{"code": "NOT_FOUND", "message": self.path}]})
            return
        self._body()  # drain
        uuid = self.server.start_upload()
        self._send(
            202, b"", "text/plain",
            {"Location": f"/v2/{match['name']}/blobs/uploads/{uuid}"},
        )

    def _patch(self) -> None:
        match = _UPLOAD_RE.match(urllib.parse.urlparse(self.path).path)
        if not match:
            self._send_json(404, {"errors": [{"code": "NOT_FOUND", "message": self.path}]})
            return
        chunk = self._body()
        total = self.server.append_upload(match["uuid"], chunk)
        if total is None:
            self._send_json(
                404, {"errors": [{"code": "BLOB_UPLOAD_UNKNOWN", "message": match["uuid"]}]}
            )
            return
        self._send(
            202, b"", "text/plain",
            {
                "Location": f"/v2/{match['name']}/blobs/uploads/{match['uuid']}",
                "Range": f"0-{total - 1}",
            },
        )

    def _put(self) -> None:
        parsed = urllib.parse.urlparse(self.path)
        query = urllib.parse.parse_qs(parsed.query)
        registry = self.server.registry
        match = _UPLOAD_RE.match(parsed.path)
        if match:
            expected = query.get("digest", [""])[0]
            final_chunk = self._body()
            data = self.server.finish_upload(match["uuid"], final_chunk)
            if data is None:
                self._send_json(
                    404,
                    {"errors": [{"code": "BLOB_UPLOAD_UNKNOWN", "message": match["uuid"]}]},
                )
                return
            actual = registry.push_blob(data)
            if expected and expected != actual:
                self._send_json(
                    400,
                    {"errors": [{"code": "DIGEST_INVALID", "message": actual}]},
                )
                return
            self._send(
                201, b"", "text/plain",
                {
                    "Location": f"/v2/{match['name']}/blobs/{actual}",
                    "Docker-Content-Digest": actual,
                },
            )
            return
        match = _MANIFEST_RE.match(parsed.path)
        if match:
            body = self._body()
            try:
                manifest = Manifest.from_json(body)
            except (ValueError, KeyError) as exc:
                self._send_json(
                    400, {"errors": [{"code": "MANIFEST_INVALID", "message": str(exc)}]}
                )
                return
            missing = [
                ref.digest
                for ref in manifest.layers
                if not registry.has_blob(ref.digest)
            ]
            if missing:
                self._send_json(
                    400,
                    {"errors": [{"code": "MANIFEST_BLOB_UNKNOWN", "message": missing[0]}]},
                )
                return
            name = match["name"]
            if name not in registry.catalog():
                registry.create_repository(name)  # Hub creates on first push
            digest = registry.push_manifest(name, match["ref"], manifest)
            self._send(
                201, b"", "text/plain", {"Docker-Content-Digest": digest}
            )
            return
        self._send_json(404, {"errors": [{"code": "NOT_FOUND", "message": self.path}]})

    def _delete(self) -> None:
        """``DELETE /v2/<name>/manifests/<ref>`` and ``/v2/<name>/tags/<tag>``.

        Both answer 202 (the v2 convention for accepted deletions): the tag
        mapping is gone immediately, the bytes await garbage collection."""
        path = urllib.parse.urlparse(self.path).path
        registry = self.server.registry
        try:
            match = _MANIFEST_RE.match(path)
            if match:
                result = registry.delete_manifest(
                    match["name"], match["ref"], token=self._token()
                )
                self._send_json(202, result)
                return
            match = _TAG_RE.match(path)
            if match and match["tag"] != "list":
                registry.delete_tag(match["name"], match["tag"], token=self._token())
                self._send_json(202, {"untagged": 1})
                return
            self._send_json(404, {"errors": [{"code": "NOT_FOUND", "message": path}]})
        except RegistryError as exc:
            self._send_error(exc)

    def _route(self) -> None:
        parsed = urllib.parse.urlparse(self.path)
        path = parsed.path
        query = urllib.parse.parse_qs(parsed.query)
        registry = self.server.registry
        try:
            if path == "/v2/" or path == "/v2":
                self._send_json(200, {})
                return
            if path == "/healthz":
                self._healthz()
                return
            if path == "/v2/_catalog":
                self._catalog(query)
                return
            if path == "/search":
                self._search(query)
                return
            if path == "/metrics":
                body = self.server.metrics.render_prometheus().encode()
                self._send(200, body, "text/plain; version=0.0.4")
                return
            match = _MANIFEST_RE.match(path)
            if match:
                self._manifest(registry, match["name"], match["ref"])
                return
            match = _BLOB_RE.match(path)
            if match:
                self._blob(registry, match["digest"])
                return
            match = _TAGS_RE.match(path)
            if match:
                tags = registry.list_tags(match["name"], token=self._token())
                self._send_json(200, {"name": match["name"], "tags": tags})
                return
            self._send_json(404, {"errors": [{"code": "NOT_FOUND", "message": path}]})
        except RegistryError as exc:
            self._send_error(exc)

    def _healthz(self) -> None:
        """Readiness: 200 while serving, 503 while draining (a frontend
        must stop routing here before the socket actually closes)."""
        owner = getattr(self.server, "owner", None)
        draining = owner is not None and owner.draining
        doc = {"ready": not draining}
        if owner is not None and owner.limits is not None and owner.limits.gate is not None:
            doc.update(owner.limits.gate.stats())
        self._send_json(503 if draining else 200, doc)

    def _manifest(self, registry: Registry, name: str, ref: str) -> None:
        """Manifest GET/HEAD with conditional-request support.

        Every response carries an ``ETag`` equal to the manifest's content
        digest (quoted, as HTTP demands). A request whose ``If-None-Match``
        names that digest gets a ``304`` with an empty body — the revalidation
        that lets a proxy keep a tag fresh for one round-trip and zero payload
        bytes.
        """
        manifest = registry.get_manifest(name, ref, token=self._token())
        digest = manifest.digest()
        extra = {"Docker-Content-Digest": digest, "ETag": f'"{digest}"'}
        given = self.headers.get("If-None-Match")
        if given is not None:
            matched = given.strip().strip('"') == digest
            self.server.metrics.counter(
                "registry_http_conditional_total",
                "conditional manifest requests by outcome",
                outcome="not_modified" if matched else "modified",
            ).inc()
            if matched:
                self._send(304, b"", MANIFEST_MEDIA_TYPE, extra)
                return
        self._send(200, manifest.to_json(), MANIFEST_MEDIA_TYPE, extra)

    def _blob(self, registry: Registry, digest: str) -> None:
        """Blob GET/HEAD, honoring single-range ``Range`` requests.

        ``bytes=a-b`` / ``bytes=a-`` / ``bytes=-n`` get a ``206`` with
        ``Content-Range``; a range past the end gets ``416`` with the
        ``bytes */<size>`` hint; anything the regex rejects (multi-range,
        garbage) is ignored per RFC 7233 and answered with the full 200.
        """
        blob = registry.get_blob(digest)
        if self._payload_faults is not None:
            blob = self._payload_faults.apply_payload(blob)
        header = self.headers.get("Range")
        if header is not None and self._blob_range(blob, header):
            return
        self._send(200, blob, "application/octet-stream", {"Accept-Ranges": "bytes"})

    def _blob_range(self, blob: bytes, header: str) -> bool:
        """Answer one ``Range`` request (206 or 416); False to fall back to
        a full 200 when the header should be ignored."""
        match = _RANGE_RE.match(header.strip())
        if not match or (match["start"] == "" and match["end"] == ""):
            return False
        total = len(blob)
        if match["start"] == "":
            # suffix form: the last N bytes (N == 0 is unsatisfiable)
            n = int(match["end"])
            start = total - n if 0 < n else total
            start = max(0, start) if start < total else start
            end = total - 1
        else:
            start = int(match["start"])
            if match["end"] != "":
                end = int(match["end"])
                if end < start:
                    return False  # inverted range: ignore, serve full body
                end = min(end, total - 1)
            else:
                end = total - 1
        range_counter = lambda outcome: self.server.metrics.counter(  # noqa: E731
            "registry_http_range_total",
            "range blob requests by outcome",
            outcome=outcome,
        )
        if start >= total:
            range_counter("unsatisfiable").inc()
            self._send(
                416, b"", "application/octet-stream",
                {"Content-Range": f"bytes */{total}"},
            )
            return True
        part = blob[start : end + 1]
        range_counter("partial").inc()
        self._send(
            206, part, "application/octet-stream",
            {
                "Content-Range": f"bytes {start}-{end}/{total}",
                "Accept-Ranges": "bytes",
            },
        )
        return True

    def _catalog(self, query: dict) -> None:
        repos = self.server.registry.catalog()
        n = int(query.get("n", ["100"])[0])
        last = query.get("last", [""])[0]
        start = repos.index(last) + 1 if last in repos else 0
        page = repos[start : start + n]
        self._send_json(200, {"repositories": page})

    def _search(self, query: dict) -> None:
        q = query.get("q", [""])[0]
        page_num = int(query.get("page", ["1"])[0])
        if q == "" and "official" in query:
            self._send_json(
                200, {"results": self.server.search.official_repositories()}
            )
            return
        page = self.server.search.search(q, page=page_num)
        self._send_json(
            200,
            {
                "query": page.query,
                "page": page.page,
                "results": page.results,
                "has_next": page.has_next,
            },
        )


class RegistryHTTPServer(ServerBase):
    """Serve a registry over HTTP on 127.0.0.1 (ephemeral port by default)."""

    def __init__(
        self,
        registry: Registry,
        search: HubSearchEngine | None = None,
        *,
        port: int = 0,
        metrics: MetricsRegistry | None = None,
        fault_injector=None,
        limits: "ServerLimits | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.registry = registry
        self.search = search if search is not None else HubSearchEngine(registry)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: optional :class:`~repro.faults.injector.FaultInjector` consulted
        #: per request (any object with a compatible ``plan(op, key)``).
        self.fault_injector = fault_injector
        #: optional :class:`~repro.ha.admission.ServerLimits` (duck-typed so
        #: the registry package never imports :mod:`repro.ha` at module load)
        self.limits = limits
        self._clock = clock
        self.draining = False
        super().__init__(_Handler, port)
        # expose registry/search/uploads to handlers through the server object
        self._httpd.registry = registry  # type: ignore[attr-defined]
        self._httpd.search = self.search  # type: ignore[attr-defined]
        self._httpd.metrics = self.metrics  # type: ignore[attr-defined]
        self._httpd.fault_injector = fault_injector  # type: ignore[attr-defined]
        self._httpd.owner = self  # type: ignore[attr-defined]
        #: upload id -> (buffer, created-at); age-GCed so abandoned PATCH
        #: sessions cannot grow memory forever
        self._uploads: dict[str, tuple[bytearray, float]] = {}
        self._uploads_lock = threading.Lock()
        self._httpd.start_upload = self._start_upload  # type: ignore[attr-defined]
        self._httpd.append_upload = self._append_upload  # type: ignore[attr-defined]
        self._httpd.finish_upload = self._finish_upload  # type: ignore[attr-defined]
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    # -- in-flight accounting (for graceful drain) -------------------------------

    def _request_began(self) -> None:
        with self._inflight_cond:
            self._inflight += 1

    def _request_ended(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_cond:
            return self._inflight

    # -- blob upload sessions ---------------------------------------------------

    @property
    def upload_ttl_s(self) -> float:
        return self.limits.upload_ttl_s if self.limits is not None else 300.0

    def _start_upload(self) -> str:
        import uuid as uuid_module

        self.gc_uploads()
        upload_id = str(uuid_module.uuid4())
        with self._uploads_lock:
            self._uploads[upload_id] = (bytearray(), self._clock())
        return upload_id

    def _append_upload(self, upload_id: str, chunk: bytes) -> int | None:
        with self._uploads_lock:
            entry = self._uploads.get(upload_id)
            if entry is None:
                return None
            entry[0].extend(chunk)
            return len(entry[0])

    def _finish_upload(self, upload_id: str, final_chunk: bytes) -> bytes | None:
        with self._uploads_lock:
            entry = self._uploads.pop(upload_id, None)
            if entry is None:
                return None
            entry[0].extend(final_chunk)
            return bytes(entry[0])

    def gc_uploads(self, *, now: float | None = None) -> int:
        """Expire upload sessions older than the TTL; returns how many.

        Runs opportunistically on each new upload start (uploads are the
        only way the table grows, so the table stays bounded without a
        background sweeper); also callable directly with an explicit *now*
        for deterministic tests.
        """
        now = now if now is not None else self._clock()
        ttl = self.upload_ttl_s
        with self._uploads_lock:
            stale = [
                uid for uid, (_, created) in self._uploads.items()
                if now - created >= ttl
            ]
            for uid in stale:
                del self._uploads[uid]
        if stale:
            self.metrics.counter(
                "registry_uploads_expired_total",
                "abandoned upload sessions expired by TTL",
            ).inc(len(stale))
        return len(stale)

    def upload_count(self) -> int:
        with self._uploads_lock:
            return len(self._uploads)

    def stop(self) -> None:
        """Graceful shutdown: refuse new requests, let in-flight requests
        finish (bounded by the limits' drain timeout), then close every
        connection."""
        self.draining = True
        if self._thread is not None:
            timeout_s = (
                self.limits.drain_timeout_s if self.limits is not None else 5.0
            )
            deadline = time.monotonic() + timeout_s
            with self._inflight_cond:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cond.wait(remaining)
        self._halt()

    def kill(self) -> None:
        """Ungraceful shutdown — the crash case. No drain: in-flight
        requests may die mid-response and clients see resets, which is
        exactly what a failover frontend must absorb."""
        self._halt()


class _HTTPBase:
    def __init__(self, base_url: str, *, token: str | None = None, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self._transport = Transport()
        self._lock = threading.Lock()
        self.requests = 0
        self.bytes_transferred = 0

    def close(self) -> None:
        """Close the pooled idle connections (a later call opens anew)."""
        self._transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _fetch(
        self,
        path: str,
        *,
        method: str = "GET",
        data: bytes | None = None,
        content_type: str | None = None,
        return_headers: bool = False,
        headers: dict[str, str] | None = None,
        not_modified_ok: bool = False,
    ):
        # deferred: repro.downloader.session imports the registry package,
        # so a module-level import here would be circular
        from repro.downloader.session import TransientNetworkError

        sent = dict(headers or {})
        if self.token:
            sent["Authorization"] = f"Bearer {self.token}"
        if content_type:
            sent["Content-Type"] = content_type
        try:
            status, received, body = self._transport.request(
                self.base_url, method, path, headers=sent, body=data, timeout=self.timeout
            )
        except ConnectionFailed as exc:
            # refused, reset, timed out or cut off mid-body: retryable
            if exc.reached:
                raise TransientNetworkError(f"connection broke: {exc.cause!r}") from None
            raise TransientNetworkError(f"connection failed: {exc.cause}") from None
        if status == 304 and not_modified_ok:
            # for a conditional GET, 304 is the good outcome: nothing
            # changed, no body
            body = None
        elif not 200 <= status < 300:
            raise _error_from_response(status, received, body)
        with self._lock:
            self.requests += 1
            if body is not None:
                self.bytes_transferred += len(body) + (len(data) if data else 0)
        if return_headers:
            return body, received
        return body

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "requests": self.requests,
                "bytes_transferred": self.bytes_transferred,
            }


def _error_from_response(status: int, headers: Message, body: bytes) -> RegistryError:
    """Map an error status and its v2 error payload back onto the registry
    error hierarchy."""
    from repro.downloader.session import RateLimitedError, TransientNetworkError

    retry_after = headers.get("Retry-After")
    if status == 429 or (status == 503 and retry_after is not None):
        # 429, or 503 carrying a Retry-After (an overloaded server load-
        # shedding with a price): back off for what the server asked
        try:
            retry_after_s = float(retry_after or "0")
        except ValueError:
            retry_after_s = 0.0
        return RateLimitedError(
            f"{status} backpressure (Retry-After: {retry_after_s}s)",
            retry_after_s=retry_after_s,
        )
    if status >= 500:
        return TransientNetworkError(f"server error {status}")
    if status == 416:
        hint = headers.get("Content-Range", "")
        return RegistryError(f"range not satisfiable ({hint})")
    try:
        doc = json.loads(body.decode())
        code = doc["errors"][0]["code"]
        message = doc["errors"][0].get("message", "")
    except (ValueError, LookupError, TypeError, AttributeError):
        code = "UNKNOWN"
        message = f"HTTP Error {status}: {http.client.responses.get(status, '')}"
    if code == "UNAUTHORIZED":
        return AuthRequiredError(message or "repository")
    if code == "MANIFEST_UNKNOWN":
        # TagNotFoundError needs repo/tag; reconstruct loosely from message
        return TagNotFoundError(repo=message, tag="")
    if code == "BLOB_UNKNOWN":
        return BlobNotFoundError(message or "sha256:0")
    if code == "NAME_UNKNOWN":
        return RepositoryNotFoundError(message)
    return RegistryError(f"{code}: {message}")


class HTTPSession(_HTTPBase):
    """Registry client over HTTP — the downloader's session interface."""

    def ping(self) -> bool:
        self._fetch("/v2/")
        return True

    def _quote(self, repo: str) -> str:
        return urllib.parse.quote(repo, safe="/")

    def resolve_tag(self, repo: str, tag: str) -> str:
        manifest = self.get_manifest(repo, tag)
        return manifest.digest()

    def get_manifest(self, repo: str, reference: str) -> Manifest:
        body = self._fetch(f"/v2/{self._quote(repo)}/manifests/{reference}")
        return Manifest.from_json(body)

    def get_manifest_conditional(
        self, repo: str, reference: str, *, etag: str | None = None
    ) -> tuple[Manifest | None, str | None]:
        """Conditional manifest GET: ``(manifest, etag)``.

        When *etag* (from a previous call) still names the current manifest,
        the server answers 304 and this returns ``(None, etag)`` — the caller
        keeps its cached copy and paid no payload bytes. Otherwise the fresh
        manifest and its new ETag come back.
        """
        extra = {"If-None-Match": etag} if etag else None
        body, response_headers = self._fetch(
            f"/v2/{self._quote(repo)}/manifests/{reference}",
            headers=extra,
            not_modified_ok=True,
            return_headers=True,
        )
        new_etag = response_headers.get("ETag")
        if body is None:
            return None, new_etag if new_etag else etag
        return Manifest.from_json(body), new_etag

    def get_blob(self, digest: str) -> bytes:
        # blob fetch needs a repository scope in the URL; any name works for
        # a shared-blob registry — use the library namespace
        return self._fetch(f"/v2/library/blobs/{digest}")

    def get_blob_range(
        self, digest: str, start: int, end: int | None = None
    ) -> tuple[bytes, int]:
        """Single-range blob read: ``(payload, total_blob_size)``.

        *end* is inclusive, HTTP-style; ``None`` reads to the end of the
        blob. The total size comes from the 206's ``Content-Range`` (or the
        body length if the server ignored the range and sent a full 200).
        A range past the end surfaces the server's 416 as a
        :class:`~repro.registry.errors.RegistryError`.
        """
        spec = f"bytes={start}-" if end is None else f"bytes={start}-{end}"
        body, response_headers = self._fetch(
            f"/v2/library/blobs/{digest}",
            headers={"Range": spec},
            return_headers=True,
        )
        content_range = response_headers.get("Content-Range", "")
        if "/" in content_range:
            total = int(content_range.rsplit("/", 1)[1])
        else:
            total = len(body)
        return body, total

    def list_tags(self, repo: str) -> list[str]:
        body = self._fetch(f"/v2/{self._quote(repo)}/tags/list")
        return list(json.loads(body)["tags"])

    # -- delete side -----------------------------------------------------------

    def delete_manifest(self, repo: str, reference: str) -> dict:
        """``DELETE /v2/<name>/manifests/<ref>``; returns untag accounting."""
        body = self._fetch(
            f"/v2/{self._quote(repo)}/manifests/{reference}", method="DELETE"
        )
        return json.loads(body)

    def delete_tag(self, repo: str, tag: str) -> dict:
        """``DELETE /v2/<name>/tags/<tag>``; returns untag accounting."""
        body = self._fetch(f"/v2/{self._quote(repo)}/tags/{tag}", method="DELETE")
        return json.loads(body)

    # -- push side -------------------------------------------------------------

    def push_blob(self, data: bytes, *, chunk_size: int | None = None) -> str:
        """Upload a blob via the v2 upload protocol; returns its digest.

        ``chunk_size`` splits the body over PATCH requests (resumable-style);
        by default the whole blob goes in the finalizing PUT (monolithic).
        """
        from repro.util.digest import sha256_bytes

        digest = sha256_bytes(data)
        _, headers = self._fetch(
            "/v2/library/blobs/uploads/", method="POST", data=b"", return_headers=True
        )
        location = headers["Location"]
        if chunk_size:
            for i in range(0, len(data), chunk_size):
                self._fetch(
                    location,
                    method="PATCH",
                    data=data[i : i + chunk_size],
                    content_type="application/octet-stream",
                )
            final = b""
        else:
            final = data
        _, headers = self._fetch(
            f"{location}?digest={urllib.parse.quote(digest)}",
            method="PUT",
            data=final,
            content_type="application/octet-stream",
            return_headers=True,
        )
        return headers["Docker-Content-Digest"]

    def push_manifest(self, repo: str, tag: str, manifest: Manifest) -> str:
        """Upload a manifest under ``repo:tag``; returns its digest."""
        _, headers = self._fetch(
            f"/v2/{self._quote(repo)}/manifests/{tag}",
            method="PUT",
            data=manifest.to_json(),
            content_type=MANIFEST_MEDIA_TYPE,
            return_headers=True,
        )
        return headers["Docker-Content-Digest"]

    def push_image(
        self, repo: str, tag: str, files_per_layer: list[list[tuple[str, bytes]]]
    ) -> Manifest:
        """Build an image from file lists and push it layer by layer — the
        Fig. 1 *push* arrow, end to end over HTTP."""
        from repro.model.manifest import ManifestLayerRef
        from repro.registry.tarball import layer_from_files

        refs = []
        for files in files_per_layer:
            layer, blob = layer_from_files(files)
            self.push_blob(blob)
            refs.append(
                ManifestLayerRef(digest=layer.digest, size=layer.compressed_size)
            )
        manifest = Manifest(layers=tuple(refs))
        self.push_manifest(repo, tag, manifest)
        return manifest

    def catalog(self) -> list[str]:
        """Walk the paginated /v2/_catalog endpoint."""
        out: list[str] = []
        last = ""
        while True:
            suffix = f"?n=100&last={urllib.parse.quote(last)}" if last else "?n=100"
            page = json.loads(self._fetch("/v2/_catalog" + suffix))["repositories"]
            if not page:
                return out
            out.extend(page)
            last = page[-1]


class HTTPSearchClient(_HTTPBase):
    """Hub search over HTTP — the crawler's search interface."""

    def search(self, query: str, page: int = 1) -> SearchPage:
        body = self._fetch(
            f"/search?q={urllib.parse.quote(query)}&page={page}"
        )
        doc = json.loads(body)
        return SearchPage(
            query=doc["query"],
            page=doc["page"],
            results=list(doc["results"]),
            has_next=bool(doc["has_next"]),
        )

    def official_repositories(self) -> list[str]:
        body = self._fetch("/search?official=1")
        return list(json.loads(body)["results"])
