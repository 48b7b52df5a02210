"""How an HTTP connection lives: one keep-alive transport, client and server.

Every HTTP caller in the package sends through :meth:`Transport.request`:
the registry client (:class:`~repro.registry.http.HTTPSession`,
:class:`~repro.registry.http.HTTPSearchClient`), the failover frontend's
upstream forwarding (:class:`~repro.ha.frontend.FailoverFrontend`) and the
replica health probe (:func:`~repro.ha.health.http_probe`). Both HTTP
servers (:class:`~repro.registry.http.RegistryHTTPServer` and the
frontend) run on :class:`ServerBase`.

**Client side.** A :class:`Transport` keeps, per upstream ``host:port``, a
LIFO stack of idle ``http.client.HTTPConnection``\\ s. A connection is
checked out for exactly one exchange and goes back only after its body was
read in full and the response did not say ``Connection: close``; any error
or timeout drops it, so a late response is never read as the next answer.
Before reuse an idle socket is polled with a zero-timeout ``select``: one
the server has closed meanwhile reads as EOF and is replaced instead of
surfacing as an error. Nothing is retried — a request that fails, fails
exactly once. Every HTTP status comes back as data; the one exception is
:class:`ConnectionFailed`, which says whether the request reached the
server.

**Server side.** :class:`KeepAliveHandler` speaks HTTP/1.1 with Nagle's
algorithm off: a response leaves in two writes (headers, then body), and
with Nagle on the second waits for the client's delayed ACK on every
kept-alive exchange. :class:`ServerBase` serves from a daemon thread and
tracks every accepted connection, so halting it shuts them all down — a
killed replica cannot keep answering on a pooled socket.
"""

from __future__ import annotations

import http.client
import select
import socket
import threading
import urllib.parse
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: what a broken exchange raises out of ``http.client`` and the socket
_EXCHANGE_ERRORS = (OSError, http.client.HTTPException)


class ConnectionFailed(Exception):
    """An exchange that produced no complete response.

    ``reached`` is False when connecting or sending the request failed (the
    server never saw it) and True when the server had the request but the
    response broke: reset, premature EOF, timeout. ``cause`` is the
    underlying socket or protocol error.
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


class Transport:
    """Keep-alive HTTP/1.1 exchanges over a shared pool of idle connections.

    Thread-safe: any number of threads may call :meth:`request` at once;
    each exchange has its connection to itself, so the pool holds at most
    as many connections per upstream as there were concurrent requests.
    """

    def __init__(self) -> None:
        self._idle: dict[tuple[str, int], list[http.client.HTTPConnection]] = {}
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
    ) -> tuple[int, Message, bytes]:
        """One exchange: ``(status, response headers, body)`` for any status.

        Raises :class:`ConnectionFailed` when no complete response arrived.
        """
        split = urllib.parse.urlsplit(base_url)
        key = (split.hostname or "", split.port or 80)
        conn = self._checkout(key, timeout)
        try:
            try:
                conn.request(method, split.path + path, body=body, headers=headers or {})
            except _EXCHANGE_ERRORS as exc:
                raise ConnectionFailed(exc, reached=False) from None
            try:
                response = conn.getresponse()
                data = response.read()
            except _EXCHANGE_ERRORS as exc:
                raise ConnectionFailed(exc, reached=True) from None
        except BaseException:
            conn.close()  # mid-exchange: whatever is left on it is garbage
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(key, []).append(conn)
        return response.status, response.headers, data

    def _checkout(
        self, key: tuple[str, int], timeout: float
    ) -> http.client.HTTPConnection:
        """The most recently used idle connection still open, else a new one."""
        while True:
            with self._lock:
                stack = self._idle.get(key)
                conn = stack.pop() if stack else None
            if conn is None:
                return http.client.HTTPConnection(*key, timeout=timeout)
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
    """Request-handler base: HTTP/1.1 keep-alive, Nagle off, no access log."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output clean


class _TrackingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that knows its open connections."""

    def __init__(self, address: tuple[str, int], handler: type[KeepAliveHandler]):
        self._open: set[socket.socket] = set()
        # held across shutdown-and-close so a socket is never shut down
        # after its descriptor was closed (and possibly reused)
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def get_request(self):
        sock, address = super().get_request()
        with self._open_lock:
            self._open.add(sock)
        return sock, address

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
            super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every open connection; its handler thread then sees
        EOF and exits, and clients see a reset or EOF."""
        with self._open_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already went away


class ServerBase:
    """Serve a :class:`KeepAliveHandler` subclass on 127.0.0.1 (ephemeral
    port by default) from a daemon thread. Subclasses hang what their
    handler needs on ``self._httpd`` (the handler's ``self.server``) and
    define ``stop()``; :meth:`_halt` is the hard stop both build on."""

    def __init__(self, handler: type[KeepAliveHandler], port: int = 0):
        self._httpd = _TrackingHTTPServer(("127.0.0.1", port), handler)
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
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def _halt(self) -> None:
        """Stop accepting, shut down every open connection, close the
        listening socket. In-flight requests die mid-response."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.close_connections()
        self._httpd.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
