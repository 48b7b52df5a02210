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

**Routing.** A request target is split once (``urlsplit`` + ``parse_qs``)
and its path matched once against ``_ROUTES``, a table of ``(path
pattern, endpoint label, {method: handler})``: the first pattern that
matches the whole path gives both the bounded metrics label and the
handler. A method the route does not take is a 404 under that label; a
path no pattern matches is a 404 labelled ``other``. One adapter serves
every method, in order: count the request, admit it, inject faults
(latency, an injected 429/503, a flap that cuts the connection, payload
faults for the blob handler), read the body (only a matched POST, PATCH
or PUT route does), run the handler. A handler returns ``(status,
headers, body)`` — the triple the client's ``Transport.request`` returns
— and never touches the socket.

How connections live is :mod:`repro.registry.transport`'s business: the
server runs on its :class:`~repro.registry.transport.ServerBase` (HTTP/1.1
keep-alive, Nagle off, every connection shut down on ``stop()`` /
``kill()``, a ``kill()`` with no accept poll to wait out, and a halted
server freed by refcount once its caller lets go), reads bodies through
its bounded reader and sends every answer through its one writer, and
each client owns a
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
request bodies are bounded (411 without ``Content-Length``, 400 for a
length that is not a non-negative integer, 413 past ``max_body_bytes``),
abandoned upload sessions expire on a TTL, and
``stop()`` drains gracefully — in-flight requests finish while new ones
are refused. ``/metrics`` and ``/healthz`` bypass the gate so
observability and health checking survive any storm. Any answer sent
before a request's body was read (a refusal, an injected fault, an
unmatched write path) carries ``Connection: close``, so the unread bytes
are never parsed as the next request on a kept-alive connection. A
pagination number (``n`` on the catalog, ``page`` on search) that is not
one is a 400 ``PAGINATION_NUMBER_INVALID``.

An upload is held once. A monolithic one (``POST``, then a ``PUT`` with
the whole blob) is read off the socket in one piece, hashed once, compared
with the ``?digest=`` it names and only then stored, as the very bytes
read; a session buffer exists only once a ``PATCH`` arrives, and the final
``PUT`` body is appended to it.

Auth mirrors the registry's model: repositories flagged ``requires_auth``
return 401 unless a ``Bearer`` token is presented.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import threading
import time
import urllib.parse
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
    BODY_METHODS,
    DEFAULT_MAX_BODY_BYTES,
    Answer,
    ConnectionFailed,
    KeepAliveHandler,
    Refused,
    ServerBase,
    Transport,
    error_answer,
)
from repro.util.digest import DigestError, sha256_bytes

#: registry error -> (HTTP status, v2 error code)
_ERROR_MAP: list[tuple[type, int, str]] = [
    (AuthRequiredError, 401, "UNAUTHORIZED"),
    (RepositoryNotFoundError, 404, "NAME_UNKNOWN"),
    (TagNotFoundError, 404, "MANIFEST_UNKNOWN"),
    (ManifestNotFoundError, 404, "MANIFEST_UNKNOWN"),
    (BlobNotFoundError, 404, "BLOB_UNKNOWN"),
]

_RANGE_RE = re.compile(r"^bytes=(?P<start>\d*)-(?P<end>\d*)$")

#: endpoints that must answer even while shedding or draining
_UNGATED_ENDPOINTS = ("metrics", "healthz")

_OCTETS = "application/octet-stream"


def _json(status: int, doc: dict) -> Answer:
    return status, {"Content-Type": "application/json"}, json.dumps(doc).encode()


def _registry_error(exc: RegistryError) -> Answer:
    for cls, status, code in _ERROR_MAP:
        if isinstance(exc, cls):
            return error_answer(status, code, str(exc))
    return error_answer(500, "UNKNOWN", str(exc))


def _token(headers) -> str | None:
    header = headers.get("Authorization", "")
    if header.startswith("Bearer "):
        return header[len("Bearer ") :]
    return None


def _number(query: dict, name: str, default: int, least: int) -> int | None:
    """Query parameter *name* as an integer (*default* when absent), or
    None when it is not an integer of at least *least*."""
    try:
        value = int(query.get(name, [str(default)])[0])
    except ValueError:
        return None
    return value if value >= least else None


class _Handler(KeepAliveHandler):
    """The registry's request handler; ``self.owner`` is the
    :class:`RegistryHTTPServer`.

    Every method is served by :meth:`_serve_request`. A route handler (the
    ``_get_*``, ``_put_*``… methods named in ``_ROUTES``) takes the path
    match, the parsed query, the headers and the body already read, and
    returns its ``(status, headers, body)``; it reads the server through
    ``self.owner`` and never touches the socket.
    """

    owner: "RegistryHTTPServer"
    _payload_faults = None

    # -- the adapter -----------------------------------------------------------

    def _serve_request(self) -> None:
        """Count the request, admit it, inject faults, read its body, run
        its handler and send the answer, all under the in-flight count
        and the endpoint's latency histogram."""
        owner = self.owner
        metrics = owner.metrics
        split = urllib.parse.urlsplit(self.path)
        endpoint, match, handlers = _resolve(split.path)
        # count on receipt, not in the finally: a client that got its bytes
        # must already observe the counter bumped (tests race on this)
        metrics.counter(
            "registry_http_requests_total",
            "requests served, by endpoint and method",
            endpoint=endpoint,
            method=self.command,
        ).inc()
        start = time.perf_counter()
        try:
            try:
                gate = self._admit(endpoint)
            except Refused as refused:
                self.send_answer(*self._refusal(refused, endpoint))
                return
            owner._request_began()
            try:
                answer = self._answer(endpoint, split, match, handlers.get(self.command))
                if answer is not None:
                    self.send_answer(*answer)
            finally:
                if gate is not None:
                    gate.release()
                owner._request_ended()
        finally:
            metrics.histogram(
                "registry_http_request_seconds",
                "request handling latency",
                endpoint=endpoint,
            ).observe(time.perf_counter() - start)

    do_GET = do_HEAD = do_POST = do_PATCH = do_PUT = do_DELETE = _serve_request

    def _answer(self, endpoint: str, split, match, handler) -> Answer | None:
        """Fault injection, the bounded body read and the handler, in that
        order; None when an injected flap cut the connection instead.

        The server's fault injector (if any) is consulted for every
        endpoint but ``/metrics``, so observability survives any storm;
        payload faults are kept for the blob handler to apply.
        """
        self._payload_faults = None
        injector = self.owner.fault_injector
        if injector is not None and endpoint != "metrics":
            faults = injector.plan(endpoint, split.path)
            if faults.latency_s:
                time.sleep(faults.latency_s)
            if faults.error_kind == "flap":
                # kill the connection without a response: the client sees
                # a reset / premature EOF, like a flapping upstream
                try:
                    self.connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                self.close_connection = True
                return None
            if faults.error_kind == "rate_limit":
                return error_answer(
                    429, "TOOMANYREQUESTS", "injected rate limit",
                    retry_after_s=faults.retry_after_s,
                )
            if faults.error_kind is not None:
                return error_answer(503, "UNAVAILABLE", "injected server error")
            if faults.mutations:
                self._payload_faults = faults
        if handler is None:
            return error_answer(404, "NOT_FOUND", split.path)
        try:
            body = b""
            if self.command in BODY_METHODS:
                limits = self.owner.limits
                body = self.read_body(
                    DEFAULT_MAX_BODY_BYTES if limits is None else limits.max_body_bytes
                )
            return handler(self, match, urllib.parse.parse_qs(split.query), self.headers, body)
        except Refused as refused:
            return self._refusal(refused, endpoint)
        except RegistryError as exc:
            return _registry_error(exc)
        except DigestError as exc:
            return error_answer(400, "DIGEST_INVALID", str(exc))

    def _client_id(self) -> str:
        """Who is asking — an explicit ``X-Client-Id`` (loadgen's virtual
        clients) or the connection's source address."""
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _admit(self, endpoint: str):
        """Run the server's overload-protection gauntlet for this request.

        Returns the admission gate to ``release()`` afterwards (None when
        ungated); raises :class:`~repro.registry.transport.Refused` to
        shed. Order matters: drain refusal first (the server is going
        away), then the per-client limiter (one hog must not reach the
        shared gate), then the gate.
        """
        owner = self.owner
        if endpoint in _UNGATED_ENDPOINTS:
            return None
        if owner.draining:
            raise Refused(
                503, "UNAVAILABLE", "server is draining",
                retry_after_s=1.0, reason="draining",
            )
        limits = owner.limits
        if limits is None:
            return None
        wait = 0.0 if limits.limiter is None else limits.limiter.admit(self._client_id())
        if wait:
            # Retry-After goes out in milliseconds: a sub-ms wait must not read 0
            raise Refused(
                429, "TOOMANYREQUESTS", "client over rate limit",
                retry_after_s=max(wait, 0.001), reason="rate_limited",
            )
        if limits.gate is not None:
            result = limits.gate.try_acquire(timeout_s=limits.request_deadline_s)
            if not result.admitted:
                raise Refused(
                    503, "UNAVAILABLE", f"overloaded ({result.outcome})",
                    retry_after_s=result.retry_after_s, reason=result.outcome,
                )
            return limits.gate
        return None

    def _refusal(self, refused: Refused, endpoint: str) -> Answer:
        self.owner.metrics.counter(
            "registry_http_rejected_total",
            "requests shed or refused before handling",
            endpoint=endpoint,
            reason=refused.reason,
        ).inc()
        return refused.answer()

    # -- route handlers --------------------------------------------------------

    def _ping(self, match, query, headers, body) -> Answer:
        return _json(200, {})

    def _healthz(self, match, query, headers, body) -> Answer:
        """Readiness: 200 while serving, 503 while draining (a frontend
        must stop routing here before the socket actually closes)."""
        owner = self.owner
        draining = owner.draining
        doc = {"ready": not draining}
        if owner.limits is not None and owner.limits.gate is not None:
            doc.update(owner.limits.gate.stats())
        return _json(503 if draining else 200, doc)

    def _catalog(self, match, query, headers, body) -> Answer:
        """One page of ``/v2/_catalog``: ``n`` names after ``last``. An
        ``n`` that is not a non-negative integer is a 400, as Docker
        distribution answers it."""
        n = _number(query, "n", 100, 0)
        if n is None:
            return error_answer(
                400, "PAGINATION_NUMBER_INVALID", f"invalid n: {query['n'][0]!r}"
            )
        repos = self.owner.registry.catalog()
        last = query.get("last", [""])[0]
        start = repos.index(last) + 1 if last in repos else 0
        return _json(200, {"repositories": repos[start : start + n]})

    def _search(self, match, query, headers, body) -> Answer:
        page_num = _number(query, "page", 1, 1)
        if page_num is None:
            return error_answer(
                400, "PAGINATION_NUMBER_INVALID", f"invalid page: {query['page'][0]!r}"
            )
        q = query.get("q", [""])[0]
        if q == "" and "official" in query:
            return _json(200, {"results": self.owner.search.official_repositories()})
        page = self.owner.search.search(q, page=page_num)
        return _json(
            200,
            {
                "query": page.query,
                "page": page.page,
                "results": page.results,
                "has_next": page.has_next,
            },
        )

    def _metrics(self, match, query, headers, body) -> Answer:
        text = self.owner.metrics.render_prometheus()
        return 200, {"Content-Type": "text/plain; version=0.0.4"}, text.encode()

    def _get_manifest(self, match, query, headers, body) -> Answer:
        """Manifest GET/HEAD with conditional-request support.

        Every response carries an ``ETag`` equal to the manifest's content
        digest (quoted, as HTTP demands). A request whose ``If-None-Match``
        names that digest gets a ``304`` with an empty body — the revalidation
        that lets a proxy keep a tag fresh for one round-trip and zero payload
        bytes.
        """
        manifest = self.owner.registry.get_manifest(
            match["name"], match["ref"], token=_token(headers)
        )
        digest = manifest.digest()
        sent = {
            "Content-Type": MANIFEST_MEDIA_TYPE,
            "Docker-Content-Digest": digest,
            "ETag": f'"{digest}"',
        }
        given = headers.get("If-None-Match")
        if given is not None:
            matched = given.strip().strip('"') == digest
            self.owner.metrics.counter(
                "registry_http_conditional_total",
                "conditional manifest requests by outcome",
                outcome="not_modified" if matched else "modified",
            ).inc()
            if matched:
                return 304, sent, b""
        return 200, sent, manifest.to_json()

    def _put_manifest(self, match, query, headers, body) -> Answer:
        registry = self.owner.registry
        try:
            manifest = Manifest.from_json(body)
        except (ValueError, KeyError) as exc:
            return error_answer(400, "MANIFEST_INVALID", str(exc))
        missing = [
            ref.digest for ref in manifest.layers if not registry.has_blob(ref.digest)
        ]
        if missing:
            return error_answer(400, "MANIFEST_BLOB_UNKNOWN", missing[0])
        name = match["name"]
        if name not in registry.catalog():
            registry.create_repository(name)  # Hub creates on first push
        digest = registry.push_manifest(name, match["ref"], manifest)
        return 201, {"Content-Type": "text/plain", "Docker-Content-Digest": digest}, b""

    def _delete_manifest(self, match, query, headers, body) -> Answer:
        """Deletions answer 202 (the v2 convention for accepted deletions):
        the tag mapping is gone at once, the bytes await garbage
        collection."""
        result = self.owner.registry.delete_manifest(
            match["name"], match["ref"], token=_token(headers)
        )
        return _json(202, result)

    def _delete_tag(self, match, query, headers, body) -> Answer:
        self.owner.registry.delete_tag(match["name"], match["tag"], token=_token(headers))
        return _json(202, {"untagged": 1})

    def _get_tags(self, match, query, headers, body) -> Answer:
        tags = self.owner.registry.list_tags(match["name"], token=_token(headers))
        return _json(200, {"name": match["name"], "tags": tags})

    def _get_blob(self, match, query, headers, body) -> Answer:
        """Blob GET/HEAD, honoring single-range ``Range`` requests.

        ``bytes=a-b`` / ``bytes=a-`` / ``bytes=-n`` get a ``206`` with
        ``Content-Range``; a range past the end gets ``416`` with the
        ``bytes */<size>`` hint; anything the regex rejects (multi-range,
        garbage) is ignored per RFC 7233 and answered with the full 200.
        """
        blob = self.owner.registry.get_blob(match["digest"])
        if self._payload_faults is not None:
            blob = self._payload_faults.apply_payload(blob)
        header = headers.get("Range")
        if header is not None:
            ranged = self._blob_range(blob, header)
            if ranged is not None:
                return ranged
        return 200, {"Content-Type": _OCTETS, "Accept-Ranges": "bytes"}, blob

    def _blob_range(self, blob: bytes, header: str) -> Answer | None:
        """Answer one ``Range`` request (206 or 416); None to fall back to
        a full 200 when the header should be ignored."""
        match = _RANGE_RE.match(header.strip())
        if not match or (match["start"] == "" and match["end"] == ""):
            return None
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
                    return None  # inverted range: ignore, serve full body
                end = min(end, total - 1)
            else:
                end = total - 1
        range_counter = lambda outcome: self.owner.metrics.counter(  # noqa: E731
            "registry_http_range_total",
            "range blob requests by outcome",
            outcome=outcome,
        )
        if start >= total:
            range_counter("unsatisfiable").inc()
            return 416, {"Content-Type": _OCTETS, "Content-Range": f"bytes */{total}"}, b""
        range_counter("partial").inc()
        sent = {
            "Content-Type": _OCTETS,
            "Content-Range": f"bytes {start}-{end}/{total}",
            "Accept-Ranges": "bytes",
        }
        return 206, sent, blob[start : end + 1]

    def _post_upload(self, match, query, headers, body) -> Answer:
        upload_id = self.owner._start_upload()
        location = f"/v2/{match['name']}/blobs/uploads/{upload_id}"
        return 202, {"Content-Type": "text/plain", "Location": location}, b""

    def _patch_upload(self, match, query, headers, body) -> Answer:
        total = self.owner._append_upload(match["uuid"], body)
        if total is None:
            return error_answer(404, "BLOB_UPLOAD_UNKNOWN", match["uuid"])
        sent = {
            "Content-Type": "text/plain",
            "Location": f"/v2/{match['name']}/blobs/uploads/{match['uuid']}",
            "Range": f"0-{total - 1}",
        }
        return 202, sent, b""

    def _put_upload(self, match, query, headers, body) -> Answer:
        data = self.owner._finish_upload(match["uuid"], body)
        if data is None:
            return error_answer(404, "BLOB_UPLOAD_UNKNOWN", match["uuid"])
        # verify before storing: a mismatched body must leave no blob
        actual = sha256_bytes(data)
        expected = query.get("digest", [""])[0]
        if expected and expected != actual:
            return error_answer(400, "DIGEST_INVALID", actual)
        self.owner.registry.push_blob(data, digest=actual)
        sent = {
            "Content-Type": "text/plain",
            "Location": f"/v2/{match['name']}/blobs/{actual}",
            "Docker-Content-Digest": actual,
        }
        return 201, sent, b""


def _reads(handler: Callable[..., Answer]) -> dict[str, Callable[..., Answer]]:
    """GET and HEAD served alike: the writer drops a HEAD's body."""
    return {"GET": handler, "HEAD": handler}


_NAME = r"/v2/(?P<name>.+)"

#: ``(path pattern, endpoint label, {method: handler})``. The first pattern
#: that matches a request's whole path gives both its metrics label (kept
#: bounded: no per-repository paths) and its handler; a method the route
#: does not take is a 404 under that label, and a path no pattern matches
#: is a 404 labelled ``other``.
_ROUTES = tuple(
    (re.compile(pattern), endpoint, handlers)
    for pattern, endpoint, handlers in (
        (r"/v2/?", "ping", _reads(_Handler._ping)),
        (r"/healthz", "healthz", _reads(_Handler._healthz)),
        (r"/v2/_catalog", "catalog", _reads(_Handler._catalog)),
        (r"/search", "search", _reads(_Handler._search)),
        (r"/metrics", "metrics", _reads(_Handler._metrics)),
        (_NAME + r"/blobs/uploads/", "upload", {"POST": _Handler._post_upload}),
        (
            _NAME + r"/blobs/uploads/(?P<uuid>[0-9a-f-]+)",
            "upload",
            {"PATCH": _Handler._patch_upload, "PUT": _Handler._put_upload},
        ),
        (
            _NAME + r"/manifests/(?P<ref>[^/]+)",
            "manifest",
            {
                **_reads(_Handler._get_manifest),
                "PUT": _Handler._put_manifest,
                "DELETE": _Handler._delete_manifest,
            },
        ),
        (_NAME + r"/blobs/(?P<digest>sha256:[^/]+)", "blob", _reads(_Handler._get_blob)),
        (_NAME + r"/tags/list", "tags", _reads(_Handler._get_tags)),
        (_NAME + r"/tags/(?P<tag>[^/]+)", "tags", {"DELETE": _Handler._delete_tag}),
    )
)


def _resolve(path: str) -> tuple[str, re.Match | None, dict[str, Callable[..., Answer]]]:
    """``(endpoint label, match, {method: handler})`` for a request path."""
    for pattern, endpoint, handlers in _ROUTES:
        match = pattern.fullmatch(path)
        if match is not None:
            return endpoint, match, handlers
    return "other", None, {}


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
        #: upload id -> (PATCHed bytes so far, created-at); the buffer is
        #: None until the first PATCH. Age-GCed so abandoned sessions cannot
        #: grow memory forever
        self._uploads: dict[str, tuple[bytearray | None, float]] = {}
        self._uploads_lock = threading.Lock()
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
        self.gc_uploads()
        # 128 random bits, as a uuid4 has; importing uuid would cost every
        # process that imports this module ~0.4 MB of RSS
        upload_id = os.urandom(16).hex()
        with self._uploads_lock:
            self._uploads[upload_id] = (None, self._clock())
        return upload_id

    def _append_upload(self, upload_id: str, chunk: bytes) -> int | None:
        with self._uploads_lock:
            entry = self._uploads.get(upload_id)
            if entry is None:
                return None
            buffer, created = entry
            if buffer is None:
                buffer = bytearray()
                self._uploads[upload_id] = (buffer, created)
            buffer.extend(chunk)
            return len(buffer)

    def _finish_upload(self, upload_id: str, final_chunk: bytes) -> bytes | None:
        """The whole upload, or None for an unknown id. With no PATCH
        before it, that is the PUT body itself: a monolithic upload is
        held once, never copied."""
        with self._uploads_lock:
            entry = self._uploads.pop(upload_id, None)
        if entry is None:
            return None
        buffer = entry[0]
        if buffer is None:
            return final_chunk
        buffer.extend(final_chunk)
        return bytes(buffer)

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


def _error_from_response(
    status: int, headers: http.client.HTTPMessage, body: bytes
) -> RegistryError:
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
