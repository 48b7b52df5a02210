"""How an HTTP connection lives and how its messages are framed: one
keep-alive transport, client and server.

Every HTTP caller in the package sends through :meth:`Transport.request`:
the registry client (:class:`~repro.registry.http.HTTPSession`,
:class:`~repro.registry.http.HTTPSearchClient`), the failover frontend's
upstream forwarding (:class:`~repro.ha.frontend.FailoverFrontend`) and the
replica health probe (:func:`~repro.ha.health.http_probe`). Both HTTP
servers (:class:`~repro.registry.http.RegistryHTTPServer` and the
frontend) run on :class:`ServerBase`, read request bodies through
:meth:`KeepAliveHandler.read_body` and send every response through
:meth:`KeepAliveHandler.send_answer`. Either way a response is one
:data:`Answer`, ``(status, headers, body)``.

**Framing.** This module writes and parses HTTP/1.1 messages itself, in
both directions; ``http.client`` lends it only exception classes and its
validation patterns, and no message goes through the ``email`` parser.
Both ends read a header block with :func:`read_headers`: at most
``http.client``'s 100 lines (the blank line counts) of at most 65 536
bytes, each ``token ":" value``. Obs-fold, a line without a colon, a name
that is not a token and a CR or NUL inside a value are malformed. Bodies
are framed by ``Content-Length`` only: a response with a
``Transfer-Encoding`` (chunked) is refused, and a request without a length
is the server's 411.

**Client side.** A :class:`Transport` keeps, per upstream ``host:port``, a
LIFO stack of idle connections (a socket with Nagle off plus a buffered
reader). A request is validated before a byte is sent (control characters
in the method or URL, an illegal header name, CR/LF in a header value
raise ``ValueError``); its head and a body under 64 KiB leave in one
``sendall``, with ``Host``, ``Accept-Encoding: identity`` and
``Content-Length`` added unless the caller set them. The response is
``HTTP/1.x`` with interim 1xx answers skipped; its body is read by
``Content-Length`` (none for HEAD, 204 and 304) or, without a length, to
EOF. A connection is checked out for exactly one exchange and goes back
only after its body was read in full and the response did not say
``Connection: close`` or lack a length; any error or timeout drops it, so
a late response is never read as the next answer. Before reuse an idle
socket is polled with a zero-timeout ``select``: one the server has closed
meanwhile reads as EOF and is replaced instead of surfacing as an error.
Nothing is retried — a request that fails, fails exactly once. Every HTTP
status comes back as data; the one exception is :class:`ConnectionFailed`,
which says whether the request reached the server (a chunked response, a
bad ``Content-Length`` or a short body count as reached).

**Server side.** :class:`KeepAliveHandler` parses ``METHOD target
HTTP/1.0`` and ``HTTP/1.1`` request lines and their headers itself: a
too-long line or too many headers is a 431, a malformed one (or a target
with control characters or non-ASCII bytes) a 400. It keeps the stdlib's
``//`` path normalisation, ``Connection`` rules and ``Expect:
100-continue``; any other request line (HTTP/0.9, 2.0, garbage)
goes to ``BaseHTTPRequestHandler.parse_request``, which answers it as it
always has. The body reader refuses, before reading a byte, a body
without ``Content-Length`` (411), with a length that is not a
non-negative integer (400) or past its cap (413), raising
:class:`Refused`, whose :meth:`~Refused.answer` is a Docker v2 error
(:func:`error_answer`). The writer adds ``Content-Length``, drops the
body for HEAD, and says ``Connection: close`` when a POST, PATCH or PUT
is answered with its body unread. It builds the head (the stdlib's status
line, ``Server`` and ``Date`` lines first) in one join, and a response
whose body is under 64 KiB leaves in one write, head and body together;
a larger body follows the head in a second write. Nagle's algorithm is
off, so that second write never waits for the client's delayed ACK on a
kept-alive exchange. :class:`ServerBase` serves from a daemon thread and
tracks every accepted connection and its handler thread, so halting it
shuts them all down and waits for the handlers — a killed replica cannot
keep answering on a pooled socket. ``kill()`` first shuts the listening
socket down, which wakes the accept loop's 0.5 s select poll at once, so
a request still in flight dies with the server; ``stop()`` lets the loop
notice at its next poll. A handler reaches its server through one link, a
weak reference it resolves once per connection, so nothing refers back
to a halted server: its caller's last reference frees it, and all it
serves, by refcount, without waiting for the cyclic GC.
"""

from __future__ import annotations

import http.client
import json
import re
import select
import socket
import threading
import urllib.parse
import weakref
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import BinaryIO

#: what a broken exchange raises out of the socket and the response parser
_EXCHANGE_ERRORS = (OSError, http.client.HTTPException)

#: a header field name (RFC 9110 ``token``)
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: bodies below this size leave in the same ``sendall`` as the head, a
#: request's on the client side and a response's on the server side
_COALESCE_BODY_BYTES = 64 * 1024

#: request lines :meth:`KeepAliveHandler.parse_request` frames itself
_FRAMED_VERSIONS = ("HTTP/1.1", "HTTP/1.0")

#: methods whose request carries a body the server must read
BODY_METHODS = ("POST", "PATCH", "PUT")

#: the request-body cap of :meth:`KeepAliveHandler.read_body` by default
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: one response, either side of the socket: ``(status, headers, body)``
Answer = tuple[int, dict[str, str], bytes]


class MalformedHeader(http.client.HTTPException):
    """A header line that is not ``token ":" value``."""


def read_headers(fp: BinaryIO) -> http.client.HTTPMessage:
    """Read one header block from *fp*, through its blank line.

    Limits are ``http.client``'s: a line over ``_MAXLINE`` bytes raises
    ``LineTooLong``, more than ``_MAXHEADERS`` lines (the blank one
    counts) ``HTTPException``. A line that is not ``token ":" value``
    (obs-fold, no colon, a non-token name, CR or NUL in the value) raises
    :class:`MalformedHeader`. Values are kept the way the stdlib parser
    keeps them: leading SP/HT and the line ending stripped, nothing else.
    EOF ends the block, as it does for the stdlib.
    """
    message = http.client.HTTPMessage()
    for _ in range(http.client._MAXHEADERS):
        line = fp.readline(http.client._MAXLINE + 1)
        if len(line) > http.client._MAXLINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n", b""):
            return message
        name, colon, value = line.decode("iso-8859-1").partition(":")
        value = value.lstrip(" \t").rstrip("\r\n")
        if not colon or not _TOKEN.fullmatch(name) or "\r" in value or "\0" in value:
            raise MalformedHeader(f"malformed header line {line!r}")
        message[name] = value
    raise http.client.HTTPException(f"got more than {http.client._MAXHEADERS} headers")


def error_answer(
    status: int, code: str, message: str, *, retry_after_s: float | None = None
) -> Answer:
    """*status* with a Docker v2 error body, plus ``Retry-After`` when
    given (in seconds, to the millisecond)."""
    headers = {"Content-Type": "application/json"}
    if retry_after_s is not None:
        headers["Retry-After"] = f"{retry_after_s:.3f}"
    doc = {"errors": [{"code": code, "message": message}]}
    return status, headers, json.dumps(doc).encode()


class Refused(Exception):
    """A request answered with an error before (or instead of) being
    handled. ``reason`` is a bounded label for a refusal metric; it
    defaults to the lower-cased error code."""

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
        self.reason = reason if reason is not None else code.lower()

    def answer(self) -> Answer:
        """The error response this refusal is sent as."""
        return error_answer(
            self.status, self.code, self.message, retry_after_s=self.retry_after_s
        )


class ConnectionFailed(Exception):
    """An exchange that produced no complete response.

    ``reached`` is False when connecting or sending the request failed (the
    server never saw it) and True when the server had the request but the
    response broke: reset, premature EOF, timeout, a framing the client
    does not speak. ``cause`` is the underlying socket or protocol error.
    """

    def __init__(self, cause: Exception, *, reached: bool):
        super().__init__(str(cause))
        self.cause = cause
        self.reached = reached


def _still_open(sock: socket.socket) -> bool:
    """An idle kept-alive socket has nothing to read: readable means the
    server closed it (EOF) or broke protocol, and either way it is spent."""
    readable, _, _ = select.select([sock], [], [], 0)
    return not readable


def _unsendable(target: str) -> bool:
    """A request target with control characters, spaces or non-ASCII
    characters: ``http.client`` refuses to send one."""
    return bool(http.client._contains_disallowed_url_pchar_re.search(target)) or (
        not target.isascii()
    )


def _send_message(write, head: bytes, body: bytes | None) -> None:
    """Hand *head* and *body* to *write*: in one call when the body is
    under :data:`_COALESCE_BODY_BYTES`, else the head and then the body."""
    if body and len(body) >= _COALESCE_BODY_BYTES:
        write(head)
        write(body)
    else:
        write(head + body if body else head)


def _request_head(
    method: str, target: str, headers: dict[str, str], body: bytes | None, host: str
) -> bytes:
    """The request line and header block, checked as ``http.client``
    checks them; raises ``ValueError`` on anything it would refuse."""
    if http.client._contains_disallowed_method_pchar_re.search(method) or (
        not method.isascii()
    ):
        raise ValueError(f"method must be ASCII without control characters: {method!r}")
    if _unsendable(target):
        raise ValueError(f"URL must be ASCII without spaces or control characters: {target!r}")
    given = {name.lower() for name in headers}
    lines = [f"{method} {target} HTTP/1.1"]
    if "host" not in given:
        lines.append(f"Host: {host}")
    if "accept-encoding" not in given:
        lines.append("Accept-Encoding: identity")
    if "content-length" not in given and "transfer-encoding" not in given:
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        elif method in http.client._METHODS_EXPECTING_BODY:
            lines.append("Content-Length: 0")
    for name, value in headers.items():
        if not http.client._is_legal_header_name(name.encode("ascii")):
            raise ValueError(f"Invalid header name {name!r}")
        if http.client._is_illegal_header_value(value.encode("latin-1")):
            raise ValueError(f"Invalid header value {value!r}")
        lines.append(f"{name}: {value}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1")


def _read_response(
    rfile: BinaryIO, method: str
) -> tuple[int, http.client.HTTPMessage, bytes, bool]:
    """Read one response off *rfile*: ``(status, headers, body, reusable)``.

    ``reusable`` is False when the server said ``Connection: close`` (or,
    on HTTP/1.0, did not say ``keep-alive``) or the body ran to EOF.
    """
    while True:
        line = rfile.readline(http.client._MAXLINE + 1)
        if len(line) > http.client._MAXLINE:
            raise http.client.LineTooLong("status line")
        if not line:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response"
            )
        version, code, *_ = line.split(None, 2) + [b"", b""]
        if not (
            version.startswith(b"HTTP/1.")
            and len(code) == 3
            and code.isdigit()
            and code >= b"100"
        ):
            raise http.client.BadStatusLine(str(line, "iso-8859-1"))
        status = int(code)
        headers = read_headers(rfile)
        if status >= 200:
            break  # 1xx answers are interim: the real one follows
    connection = headers.get("Connection", "").lower()
    if version == b"HTTP/1.0":
        reusable = "keep-alive" in connection
    else:
        reusable = "close" not in connection
    if method == "HEAD" or status in (204, 304):
        return status, headers, b"", reusable
    if "Transfer-Encoding" in headers:
        raise http.client.HTTPException(
            f"unsupported Transfer-Encoding: {headers['Transfer-Encoding']!r}"
        )
    length = headers.get("Content-Length")
    if length is None:
        return status, headers, rfile.read(), False
    length = length.rstrip(" \t")
    if not (length.isascii() and length.isdigit()):
        raise http.client.HTTPException(f"bad Content-Length: {length!r}")
    expected = int(length)
    body = rfile.read(expected)
    if len(body) < expected:
        raise http.client.IncompleteRead(body, expected - len(body))
    return status, headers, body, reusable


class _Connection:
    """One client connection: a socket with Nagle off and a buffered
    reader over it. :meth:`close` closes both."""

    __slots__ = ("sock", "rfile")

    def __init__(self, address: tuple[str, int], timeout: float):
        self.sock = socket.create_connection(address, timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.rfile = self.sock.makefile("rb")
        except BaseException:
            self.sock.close()
            raise

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Transport:
    """Keep-alive HTTP/1.1 exchanges over a shared pool of idle connections.

    Thread-safe: any number of threads may call :meth:`request` at once;
    each exchange has its connection to itself, so the pool holds at most
    as many connections per upstream as there were concurrent requests.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple[str, int], list[_Connection]] = {}
        self._lock = threading.Lock()

    def request(
        self,
        base_url: str,
        method: str,
        path: str,
        *,
        headers: dict[str, str] | None = None,
        body: bytes | None = None,
        timeout: float,
    ) -> tuple[int, http.client.HTTPMessage, bytes]:
        """One exchange: ``(status, response headers, body)`` for any status.

        Raises ``ValueError`` before sending anything for a request
        ``http.client`` would refuse, and :class:`ConnectionFailed` when no
        complete response arrived.
        """
        split = urllib.parse.urlsplit(base_url)
        key = (split.hostname or "", split.port or 80)
        head = _request_head(method, split.path + path, headers or {}, body, split.netloc)
        conn = self._checkout(key, timeout)
        try:
            try:
                if conn is None:
                    conn = _Connection(key, timeout)
                _send_message(conn.sock.sendall, head, body)
            except OSError as exc:
                raise ConnectionFailed(exc, reached=False) from None
            try:
                status, received, data, reusable = _read_response(conn.rfile, method)
            except _EXCHANGE_ERRORS as exc:
                raise ConnectionFailed(exc, reached=True) from None
        except BaseException:
            if conn is not None:
                conn.close()  # mid-exchange: whatever is left on it is garbage
            raise
        if reusable:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        else:
            conn.close()
        return status, received, data

    def _checkout(self, key: tuple[str, int], timeout: float) -> _Connection | None:
        """The most recently used idle connection still open, else None."""
        while True:
            with self._lock:
                stack = self._idle.get(key)
                conn = stack.pop() if stack else None
            if conn is None:
                return None
            if _still_open(conn.sock):
                conn.sock.settimeout(timeout)
                return conn
            conn.close()

    def close(self) -> None:
        """Close every idle connection; the transport stays usable."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for stack in idle.values():
            for conn in stack:
                conn.close()

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class KeepAliveHandler(BaseHTTPRequestHandler):
    """Request-handler base: HTTP/1.1 keep-alive, Nagle off, no access log,
    its own request framing (see the module docstring), one bounded body
    reader (:meth:`read_body`) and one response writer (:meth:`send_answer`).

    ``self.owner`` is the :class:`ServerBase` serving this connection,
    resolved once per connection in :meth:`setup`."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    owner: "ServerBase"
    #: whether this request's body was read (reset per request)
    _body_read = False

    def setup(self) -> None:
        """Resolve :attr:`owner` for this connection. It is never None:
        halting the server joins this thread before it returns."""
        super().setup()
        self.owner = self.server.owner()  # type: ignore[attr-defined]

    def parse_request(self) -> bool:
        """Parse the request line and headers; on failure the error answer
        is already sent. Only ``METHOD target HTTP/1.x`` is framed here."""
        self._body_read = False
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if len(words) != 3 or words[2] not in _FRAMED_VERSIONS:
            return super().parse_request()
        self.requestline = requestline
        self.command, path, self.request_version = words
        # the stdlib's guard against open redirects: "//host/x" is not a path
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        if _unsendable(path):  # the frontend could not forward it either
            self.send_error(HTTPStatus.BAD_REQUEST, "Bad request target")
            return False
        try:
            self.headers = read_headers(self.rfile)
        except MalformedHeader as exc:
            self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line", str(exc))
            return False
        except http.client.HTTPException as exc:  # a line too long, too many lines
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, None, str(exc))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        else:
            self.close_connection = self.request_version == "HTTP/1.0"
        if (
            self.request_version == "HTTP/1.1"
            and self.headers.get("Expect", "").lower() == "100-continue"
        ):
            return self.handle_expect_100()
        return True

    def read_body(self, max_bytes: int = DEFAULT_MAX_BODY_BYTES) -> bytes:
        """Read the request body, bounded by *max_bytes*.

        Each refusal raises :class:`Refused` before a byte of the body is
        read: 411 without ``Content-Length`` (reading to EOF on a kept-alive
        connection would hang; trusting zero would silently drop the
        payload), 400 for a length that is not a non-negative integer, 413
        for one past *max_bytes*.
        """
        header = self.headers.get("Content-Length")
        if header is None:
            raise Refused(
                411, "LENGTH_REQUIRED", "Content-Length required", reason="length_required"
            )
        try:
            length = int(header)
            if length < 0:
                raise ValueError(header)
        except ValueError:
            raise Refused(
                400, "BAD_REQUEST", f"bad Content-Length: {header!r}", reason="bad_length"
            ) from None
        if length > max_bytes:
            raise Refused(
                413, "PAYLOAD_TOO_LARGE",
                f"body of {length} bytes exceeds limit of {max_bytes}",
                reason="body_too_large",
            )
        body = self.rfile.read(length) if length else b""
        self._body_read = True
        return body

    def send_answer(self, status: int, headers: dict[str, str], body: bytes) -> None:
        """Send one response: the status line, ``Server`` and ``Date`` (the
        lines ``send_response`` writes), *headers*, ``Content-Length``,
        then *body* unless the request was a HEAD. A POST, PATCH or PUT
        answered without its body read also gets ``Connection: close``:
        kept alive, the unread bytes would parse as the next request line.
        A ``Connection`` header in *headers* sets :attr:`close_connection`
        as ``send_header`` would.

        The head is built in one join and leaves in the same write as a
        body under :data:`_COALESCE_BODY_BYTES`; a larger body follows in a
        second write. An HTTP/0.9 request gets the body alone, as the
        stdlib answers one."""
        phrase = self.responses[status][0] if status in self.responses else ""
        lines = [
            "%s %d %s" % (self.protocol_version, status, phrase),
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
            if name.lower() == "connection" and value.lower() in ("close", "keep-alive"):
                self.close_connection = value.lower() == "close"
        lines.append(f"Content-Length: {len(body)}")
        if self.command in BODY_METHODS and not self._body_read:
            lines.append("Connection: close")
            self.close_connection = True
        if self.request_version == "HTTP/0.9":
            head = b""
        else:
            lines.append("\r\n")
            head = "\r\n".join(lines).encode("latin-1")
        _send_message(self.wfile.write, head, body if self.command != "HEAD" else None)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output clean


class _TrackingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that knows its open connections and the
    thread serving each, and reaches its :class:`ServerBase` only through
    a weak reference (``owner``), so the pair forms no reference cycle."""

    def __init__(
        self, address: tuple[str, int], handler: type[KeepAliveHandler], owner: "ServerBase"
    ):
        self.owner = weakref.ref(owner)
        #: open connection -> the thread handling it
        self._open: dict[socket.socket, threading.Thread] = {}
        # held across shutdown-and-close so a socket is never shut down
        # after its descriptor was closed (and possibly reused)
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.pop(request, None)
            super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every open connection, then wait for the threads
        handling them: an idle one sees EOF and exits at once, a busy one
        when its request ends (its writes fail, clients see a reset or
        EOF). Call it only once the accept loop has stopped."""
        with self._open_lock:
            threads = list(self._open.values())
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already went away
        for thread in threads:
            thread.join()


class ServerBase:
    """Serve a :class:`KeepAliveHandler` subclass on 127.0.0.1 (ephemeral
    port by default) from a daemon thread. Handlers reach the server as
    ``self.owner``; :meth:`stop` and :meth:`kill` build on the hard stop
    :meth:`_halt`.

    Lifetime: the serving thread holds the server while it runs, and each
    connection's handler while it is open, so a server nobody else holds
    keeps serving. Once :meth:`_halt` returns, neither does: the listening
    socket's server refers back to this object only weakly, so dropping
    the last reference frees it (and everything it serves) by refcount,
    without waiting for the cyclic GC."""

    def __init__(self, handler: type[KeepAliveHandler], port: int = 0):
        self._httpd = _TrackingHTTPServer(("127.0.0.1", port), handler, self)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self):
        if self._thread is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        # the bound method is the serving thread's strong reference
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        self._httpd.serve_forever()

    def _halt(self) -> None:
        """Stop accepting, shut down every open connection and wait for
        its handler, close the listening socket. In-flight requests die
        mid-response."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.close_connections()
        self._httpd.server_close()

    def stop(self) -> None:
        """Shut down (a server that can drain in-flight requests first
        overrides this). The accept loop ends at its next 0.5 s poll."""
        self._halt()

    def kill(self) -> None:
        """Ungraceful shutdown — the crash case. No drain: in-flight
        requests may die mid-response and clients see resets, which is
        exactly what a failover frontend must absorb. Shutting the
        listening socket down first wakes the accept loop's poll at once,
        so a kill waits out no poll and a request still in flight dies
        with it instead of finishing during the wait."""
        if self._thread is not None:
            self._httpd.socket.shutdown(socket.SHUT_RDWR)
        self._halt()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
