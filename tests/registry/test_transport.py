"""Connection lifecycle of the keep-alive transport, end to end.

Run under ``python -X dev -W error::ResourceWarning`` these tests also fail
on any socket the pool or a server leaves unclosed (the module mark turns
a leak reported from a finalizer into a failure).
"""

import email.feedparser
import gc
import http.client
import io
import re
import socket
import socketserver
import string
import sys
import threading
import time
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.downloader.session import TransientNetworkError
from repro.faults.injector import FaultInjector
from repro.faults.rules import FaultRule, Schedule
from repro.ha.admission import ServerLimits
from repro.ha.frontend import FailoverFrontend
from repro.ha.health import HealthMonitor
from repro.ha.replica import Replica
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.obs.metrics import counter_total
from repro.registry.http import HTTPSession, RegistryHTTPServer
from repro.registry.registry import Registry
from repro.registry.tarball import layer_from_files
from repro.registry.transport import (
    ConnectionFailed,
    KeepAliveHandler,
    MalformedHeader,
    ServerBase,
    Transport,
    error_answer,
    read_headers,
)
from repro.util.digest import sha256_bytes

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)


def build_registry() -> tuple[Registry, list[str]]:
    """Two images, one layer each; returns the registry and both digests."""
    registry = Registry()
    digests = []
    for i, name in enumerate(("user/one", "user/two")):
        layer, blob = layer_from_files([(f"bin/app{i}", bytes([65 + i]) * (300 + i))])
        registry.push_blob(blob)
        registry.create_repository(name)
        registry.push_manifest(
            name, "latest",
            Manifest(layers=(
                ManifestLayerRef(digest=layer.digest, size=layer.compressed_size),
            )),
        )
        digests.append(layer.digest)
    return registry, digests


def count_accepts(server) -> list[socket.socket]:
    """Record every connection *server* accepts (call before it starts)."""
    accepted: list[socket.socket] = []
    original = server._httpd.get_request

    def get_request():
        sock, address = original()
        accepted.append(sock)
        return sock, address

    server._httpd.get_request = get_request
    return accepted


class TestPooling:
    def test_fifty_calls_share_one_connection(self):
        registry, (digest, _) = build_registry()
        server = RegistryHTTPServer(registry)
        accepted = count_accepts(server)
        with server, HTTPSession(server.base_url) as session:
            for _ in range(25):
                assert sha256_bytes(session.get_blob(digest)) == digest
                session.get_manifest("user/one", "latest")
            assert len(accepted) == 1

    def test_kill_fails_once_and_restart_recovers(self):
        registry, (digest, _) = build_registry()
        replica = Replica("r0", registry).start()
        try:
            with HTTPSession(replica.base_url, timeout=5.0) as session:
                session.get_blob(digest)  # leaves a pooled connection
                replica.kill()
                with pytest.raises(TransientNetworkError, match="connection failed"):
                    session.get_blob(digest)
                replica.restart()
                assert sha256_bytes(session.get_blob(digest)) == digest
                # a pooled socket the killed server closed is replaced, not
                # surfaced as an error
                replica.kill()
                replica.restart()
                assert sha256_bytes(session.get_blob(digest)) == digest
        finally:
            replica.stop()

    def test_timed_out_response_is_never_read_as_the_next_answer(self):
        registry, (first, second) = build_registry()
        injector = FaultInjector(
            [FaultRule(kind="latency", rate=1.0, latency_s=0.8,
                       schedule=Schedule.burst(1, 1))]
        )
        with RegistryHTTPServer(registry, fault_injector=injector) as server, \
                HTTPSession(server.base_url, timeout=0.2) as session:
            session.get_blob(first)
            with pytest.raises(TransientNetworkError, match="connection broke"):
                session.get_blob(first)  # answered 0.4-0.8 s late
            assert sha256_bytes(session.get_blob(second)) == second

    def test_flap_on_a_reused_connection_fails_exactly_once(self):
        registry, (digest, _) = build_registry()
        injector = FaultInjector(
            [FaultRule(kind="flap", rate=1.0, schedule=Schedule.burst(1, 1))]
        )
        with RegistryHTTPServer(registry, fault_injector=injector) as server, \
                HTTPSession(server.base_url, timeout=5.0) as session:
            session.get_blob(digest)
            with pytest.raises(TransientNetworkError):
                session.get_blob(digest)
            assert injector.stats() == {"flap": 1}
            assert injector.request_count == 2  # one visit: nothing retried
            assert sha256_bytes(session.get_blob(digest)) == digest

    def test_threads_share_one_session(self):
        registry, digests = build_registry()
        server = RegistryHTTPServer(registry)
        accepted = count_accepts(server)
        problems: list[str] = []
        n_threads, n_calls = 8, 50

        def worker(index: int) -> None:
            for i in range(n_calls):
                digest = digests[(index + i) % 2]
                if i % 3 == 2:
                    session.get_manifest("user/two", "latest")
                elif sha256_bytes(session.get_blob(digest)) != digest:
                    problems.append(f"thread {index} call {i}: wrong bytes")

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server, HTTPSession(server.base_url, timeout=10.0) as session:
                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                served = counter_total(server.metrics, "registry_http_requests_total")
        finally:
            sys.setswitchinterval(old_interval)
        assert problems == []
        assert served == n_threads * n_calls == session.stats()["requests"]
        assert 1 <= len(accepted) <= n_threads


class TestServerSockets:
    def test_registry_server_disables_nagle(self):
        registry, (digest, _) = build_registry()
        server = RegistryHTTPServer(registry)
        accepted = count_accepts(server)
        with server, HTTPSession(server.base_url) as session:
            session.get_blob(digest)
            assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_frontend_disables_nagle(self):
        registry, (digest, _) = build_registry()
        with RegistryHTTPServer(registry) as upstream:
            frontend = FailoverFrontend(
                [upstream.base_url], monitor=HealthMonitor([upstream.base_url])
            )
            accepted = count_accepts(frontend)
            with frontend, HTTPSession(frontend.base_url) as session:
                session.get_blob(digest)
                assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestLifetime:
    """A halted server is freed by refcount: nothing refers back to it from
    the listening socket's server, so the registry it served goes the
    moment its last holder lets go, with the cyclic GC switched off."""

    @pytest.fixture()
    def no_cyclic_gc(self):
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("halt", ["stop", "kill"])
    def test_halted_registry_server_is_freed_by_refcount(self, halt, no_cyclic_gc):
        server = RegistryHTTPServer(Registry()).start()
        blobs = weakref.ref(server.registry.blobs)
        with HTTPSession(server.base_url) as session:
            session.push_blob(b"layer bytes")
            getattr(server, halt)()  # the session still holds a kept-alive socket
        del server
        assert blobs() is None

    def test_stopped_frontend_is_freed_by_refcount(self, no_cyclic_gc):
        registry, (digest, _) = build_registry()
        with RegistryHTTPServer(registry) as upstream:
            frontend = FailoverFrontend(
                [upstream.base_url], monitor=HealthMonitor([upstream.base_url])
            ).start()
            freed = weakref.ref(frontend)
            with HTTPSession(frontend.base_url) as session:
                assert sha256_bytes(session.get_blob(digest)) == digest
                frontend.stop()
            del frontend
            assert freed() is None

    def test_a_server_held_only_by_its_serving_thread_keeps_serving(self):
        registry, (digest, _) = build_registry()
        server = RegistryHTTPServer(registry).start()
        held = weakref.ref(server)
        with HTTPSession(server.base_url) as session:
            session.get_blob(digest)
            del server  # only the serving thread holds it now
            gc.collect()
            assert sha256_bytes(session.get_blob(digest)) == digest
            held().stop()

    def test_kill_mid_request_raises_nothing_new_in_the_handler(self):
        registry, (digest, _) = build_registry()
        # a 0.8-1.6 s sleep: kill() lands while the handler still sleeps
        injector = FaultInjector([FaultRule(kind="latency", rate=1.0, latency_s=1.6)])
        server = RegistryHTTPServer(registry, fault_injector=injector).start()
        raised: list[type] = []
        server._httpd.handle_error = lambda request, address: raised.append(sys.exc_info()[0])
        answers: list[BaseException] = []

        def pull() -> None:
            try:
                session.get_blob(digest)
            except TransientNetworkError as exc:
                answers.append(exc)

        with HTTPSession(server.base_url, timeout=5.0) as session:
            client = threading.Thread(target=pull)
            client.start()
            while server.inflight == 0:
                time.sleep(0.005)
            server.kill()  # returns once the sleeping handler has ended
            client.join()
        # the handler finished its request on a dead socket: a failed write
        # is the only error, never a vanished server
        assert raised and all(issubclass(kind, OSError) for kind in raised)
        assert len(answers) == 1
        held = weakref.ref(server)
        del server
        assert held() is None


class TestKill:
    """A kill waits for no poll: shutting the listening socket down wakes
    the accept loop at once, so an idle server dies in milliseconds and a
    request still in flight dies with it."""

    def test_idle_registry_server_dies_at_once(self):
        registry, (digest, _) = build_registry()
        server = RegistryHTTPServer(registry).start()
        with HTTPSession(server.base_url) as session:
            session.get_blob(digest)  # leaves an idle kept-alive connection
            began = time.perf_counter()
            server.kill()
            assert time.perf_counter() - began <= 0.05

    def test_idle_frontend_dies_at_once(self):
        registry, (digest, _) = build_registry()
        with RegistryHTTPServer(registry) as upstream:
            frontend = FailoverFrontend(
                [upstream.base_url], monitor=HealthMonitor([upstream.base_url])
            ).start()
            with HTTPSession(frontend.base_url) as session:
                session.get_blob(digest)
                began = time.perf_counter()
                frontend.kill()
                assert time.perf_counter() - began <= 0.05

    def test_kill_cuts_a_request_held_by_latency(self):
        registry, (digest, _) = build_registry()
        # holds the one request 0.2-0.4 s: well inside the old 0.5 s poll
        injector = FaultInjector([FaultRule(kind="latency", rate=1.0, latency_s=0.4)])
        server = RegistryHTTPServer(registry, fault_injector=injector).start()
        raised: list[type] = []
        server._httpd.handle_error = lambda request, address: raised.append(sys.exc_info()[0])
        answers: list[object] = []

        def pull() -> None:
            try:
                answers.append(session.get_blob(digest))
            except TransientNetworkError as exc:
                answers.append(exc)

        with HTTPSession(server.base_url, timeout=5.0) as session:
            client = threading.Thread(target=pull)
            client.start()
            while server.inflight == 0:
                time.sleep(0.005)
            server.kill()
            client.join()
        assert len(answers) == 1 and isinstance(answers[0], TransientNetworkError)
        assert all(issubclass(kind, OSError) for kind in raised)


class TestEarlyAnswersClose:
    """A response sent before the request's body was read must close the
    connection: kept alive, the unread bytes would parse as the next
    request line."""

    @staticmethod
    def exchange(port: int, method: str, path: str, body: bytes | None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            if body is None:
                conn.putrequest(method, path)
                conn.endheaders()
            else:
                conn.request(method, path, body=body)
            response = conn.getresponse()
            response.read()
            return response.status, response.getheader("Connection")
        finally:
            conn.close()

    def test_body_over_the_limit(self):
        limits = ServerLimits.default(gate=None, limiter=None, max_body_bytes=64)
        with RegistryHTTPServer(build_registry()[0], limits=limits) as server:
            assert self.exchange(
                server.port, "POST", "/v2/user/one/blobs/uploads/", b"x" * 65
            ) == (413, "close")

    def test_unmatched_patch_with_a_body(self):
        with RegistryHTTPServer(build_registry()[0]) as server:
            assert self.exchange(server.port, "PATCH", "/v2/nowhere", b"abc") == (
                404, "close",
            )

    def test_frontend_write_without_length(self):
        with RegistryHTTPServer(build_registry()[0]) as upstream, FailoverFrontend(
            [upstream.base_url], monitor=HealthMonitor([upstream.base_url])
        ) as frontend:
            assert self.exchange(
                frontend.port, "POST", "/v2/user/one/blobs/uploads/", None
            ) == (411, "close")

    @pytest.mark.parametrize(
        "length, status", [(b"abc", 400), (b"-1", 400), (b"200000000", 413)]
    )
    def test_frontend_refuses_a_bad_length_before_the_body(self, length, status):
        with RegistryHTTPServer(build_registry()[0]) as upstream, FailoverFrontend(
            [upstream.base_url], monitor=HealthMonitor([upstream.base_url])
        ) as frontend:
            received, closed = raw_exchange(
                frontend.port,
                b"POST /v2/user/one/blobs/uploads/ HTTP/1.1\r\n"
                b"Content-Length: " + length + b"\r\n\r\n",
            )
            assert received.startswith(b"HTTP/1.1 %d " % status) and closed
            assert counter_total(upstream.metrics, "registry_http_requests_total") == 0

    def test_a_read_body_keeps_the_connection(self):
        with RegistryHTTPServer(build_registry()[0]) as server:
            status, connection = self.exchange(
                server.port, "POST", "/v2/user/one/blobs/uploads/", b""
            )
            assert (status, connection) == (202, None)


# -- framing ---------------------------------------------------------------------

_TCHARS = string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~"
#: a field value: any Latin-1 text but the line breaks and NUL
_VALUES = st.text(
    st.characters(min_codepoint=1, max_codepoint=255, exclude_characters="\r\n"),
    max_size=30,
)


def header_block(lines: list[tuple[str, str]], eol: bytes) -> bytes:
    return b"".join(f"{name}:{value}".encode("latin-1") + eol for name, value in lines) + eol


class TestReadHeaders:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.text(_TCHARS, min_size=1, max_size=12), _VALUES), max_size=100
        ),
        eol=st.sampled_from([b"\r\n", b"\n"]),
    )
    @example(lines=[("A", " x")] * 99, eol=b"\r\n")
    @example(lines=[("A", " x")] * 100, eol=b"\r\n")
    def test_agrees_with_the_stdlib_parser(self, lines, eol):
        raw = header_block(lines, eol)
        try:
            expected = http.client.parse_headers(io.BytesIO(raw)).items()
        except http.client.HTTPException as exc:
            # 100 lines plus the blank one: over the stdlib's limit
            with pytest.raises(type(exc)):
                read_headers(io.BytesIO(raw))
        else:
            assert read_headers(io.BytesIO(raw)).items() == expected

    def test_stops_at_the_blank_line(self):
        fp = io.BytesIO(b"Content-Length: 2\r\nX-A:  b c \r\n\r\nok")
        message = read_headers(fp)
        assert message["content-length"] == "2"
        assert message.get("X-A") == "b c "
        assert "x-a" in message
        assert fp.read() == b"ok"

    @pytest.mark.parametrize(
        "raw",
        [
            b"A: b\r\n c\r\n\r\n",  # obs-fold
            b"A: b\r\n\tc\r\n\r\n",
            b" A: b\r\n\r\n",
            b"no colon here\r\n\r\n",
            b"A B: c\r\n\r\n",
            b"A@: c\r\n\r\n",
            b": c\r\n\r\n",
            b"\xe9: c\r\n\r\n",
            b"A: b\rc\r\n\r\n",
            b"A: b\x00c\r\n\r\n",
        ],
    )
    def test_malformed_lines_raise(self, raw):
        with pytest.raises(MalformedHeader):
            read_headers(io.BytesIO(raw))

    def test_limits(self):
        too_many = b"A: b\r\n" * 101 + b"\r\n"
        with pytest.raises(http.client.HTTPException, match="more than 100 headers"):
            read_headers(io.BytesIO(too_many))
        too_long = b"A: " + b"b" * 65532 + b"\r\n\r\n"  # 65 537 bytes
        with pytest.raises(http.client.LineTooLong):
            read_headers(io.BytesIO(too_long))
        longest = b"A: " + b"b" * 65531 + b"\r\n\r\n"
        assert len(read_headers(io.BytesIO(longest))["A"]) == 65531


def raw_exchange(port: int, data: bytes) -> tuple[bytes, bool]:
    """Send *data* on a fresh socket; return everything the server sent
    back and whether it then closed the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        received = b""
        sock.settimeout(0.5)
        try:
            while chunk := sock.recv(65536):
                received += chunk
            return received, True
        except TimeoutError:
            return received, False


class TestServerFraming:
    @pytest.fixture()
    def server(self):
        with RegistryHTTPServer(build_registry()[0]) as server:
            yield server

    def test_line_too_long_is_431(self, server):
        received, closed = raw_exchange(
            server.port, b"GET /v2/ HTTP/1.1\r\nX: " + b"a" * 70000 + b"\r\n\r\n"
        )
        assert received.startswith(b"HTTP/1.1 431 ") and closed

    def test_too_many_headers_is_431(self, server):
        received, closed = raw_exchange(
            server.port, b"GET /v2/ HTTP/1.1\r\n" + b"X: a\r\n" * 100 + b"\r\n"
        )
        assert received.startswith(b"HTTP/1.1 431 ") and closed

    @pytest.mark.parametrize("block", [b"X: a\r\n b\r\n", b"no colon\r\n", b"A B: c\r\n"])
    def test_malformed_header_is_400(self, server, block):
        received, closed = raw_exchange(
            server.port, b"GET /v2/ HTTP/1.1\r\n" + block + b"\r\n"
        )
        assert received.startswith(b"HTTP/1.1 400 ") and closed

    @pytest.mark.parametrize("target", [b"/v2/\x01", b"/v2/\x7f", b"/v2/\xe9"])
    def test_unsendable_target_is_400(self, server, target):
        received, closed = raw_exchange(server.port, b"GET %s HTTP/1.1\r\n\r\n" % target)
        assert received.startswith(b"HTTP/1.1 400 ") and closed

    def test_http11_keeps_the_connection(self, server):
        received, closed = raw_exchange(server.port, b"GET /v2/ HTTP/1.1\r\n\r\n" * 2)
        assert received.count(b"HTTP/1.1 200 ") == 2 and not closed

    @pytest.mark.parametrize(
        "request_head",
        [b"GET /v2/ HTTP/1.0\r\n\r\n", b"GET /v2/ HTTP/1.1\r\nConnection: close\r\n\r\n"],
    )
    def test_close_rules(self, server, request_head):
        received, closed = raw_exchange(server.port, request_head)
        assert received.startswith(b"HTTP/1.1 200 ") and closed

    def test_http10_keep_alive_stays_open(self, server):
        received, closed = raw_exchange(
            server.port, b"GET /v2/ HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        assert received.startswith(b"HTTP/1.1 200 ") and not closed

    def test_double_slash_path_is_normalised(self, server):
        received, _ = raw_exchange(server.port, b"GET //v2/ HTTP/1.1\r\n\r\n")
        assert received.startswith(b"HTTP/1.1 200 ")

    def test_expect_100_continue(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(
                b"POST /v2/user/one/blobs/uploads/ HTTP/1.1\r\n"
                b"Content-Length: 3\r\nExpect: 100-continue\r\n\r\n"
            )
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(b"abc")
            assert sock.recv(65536).startswith(b"HTTP/1.1 202 ")

    def test_http2_request_line_keeps_the_stdlib_answer(self, server):
        received, closed = raw_exchange(server.port, b"GET /v2/ HTTP/2.0\r\n\r\n")
        # the stdlib answers an unparsed version HTTP/0.9-style: body only
        assert b"Error code: 505" in received and closed

    def test_frontend_frames_requests_too(self):
        with RegistryHTTPServer(build_registry()[0]) as upstream, FailoverFrontend(
            [upstream.base_url], monitor=HealthMonitor([upstream.base_url])
        ) as frontend:
            for request_head in (
                b"GET /v2/ HTTP/1.1\r\nX: a\r\n b\r\n\r\n",
                b"GET /v2/\x01 HTTP/1.1\r\n\r\n",  # it could not forward this
            ):
                received, closed = raw_exchange(frontend.port, request_head)
                assert received.startswith(b"HTTP/1.1 400 ") and closed

_SERVER_LINE = f"Server: {KeepAliveHandler.server_version} {KeepAliveHandler.sys_version}"
_DATE_LINE = re.compile(rb"\r\nDate: [^\r\n]*\r\n")


def answer_bytes(status_line: str, *lines: str, body: bytes = b"") -> bytes:
    """A whole answer as the writer sends it, its ``Date`` masked."""
    head = "\r\n".join([status_line, _SERVER_LINE, "Date: *", *lines]) + "\r\n\r\n"
    return head.encode("latin-1") + body


def masked(received: bytes) -> bytes:
    return _DATE_LINE.sub(b"\r\nDate: *\r\n", received, count=1)


class _SaysClose(KeepAliveHandler):
    def do_GET(self) -> None:
        self.send_answer(200, {"Connection": "close"}, b"ok")


class TestAnswerHead:
    """The writer's exact bytes — the stdlib's status line, ``Server`` and
    ``Date`` lines first, then the handler's headers, ``Content-Length``
    and the ``Connection: close`` rule — and one write for a small answer."""

    @pytest.fixture()
    def writes(self, monkeypatch) -> list[int]:
        """The size of every write a server handler makes, in order."""
        sizes: list[int] = []
        write = socketserver._SocketWriter.write

        def counted(writer, data):
            sizes.append(len(data))
            return write(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counted)
        return sizes

    @pytest.fixture()
    def served(self):
        registry = build_registry()[0]
        blob = bytes(range(256)) * 16
        digest = registry.push_blob(blob)
        with RegistryHTTPServer(registry) as server:
            yield server, digest, blob

    json_200 = answer_bytes(
        "HTTP/1.1 200 OK", "Content-Type: application/json", "Content-Length: 2", body=b"{}"
    )
    not_found = error_answer(404, "NOT_FOUND", "/nope")[2]

    @pytest.mark.parametrize(
        "request_bytes, expected, closed",
        [
            (b"GET /v2/ HTTP/1.1\r\n\r\n", json_200, False),
            (
                b"GET /nope HTTP/1.1\r\n\r\n",
                answer_bytes(
                    "HTTP/1.1 404 Not Found", "Content-Type: application/json",
                    f"Content-Length: {len(not_found)}", body=not_found,
                ),
                False,
            ),
            (b"HEAD /v2/ HTTP/1.1\r\n\r\n", json_200[: json_200.index(b"{}")], False),
            (b"GET /v2/ HTTP/1.0\r\n\r\n", json_200, True),
            (b"GET /v2/\r\n\r\n", b"{}", True),  # HTTP/0.9: the body alone
            (
                b"PUT /nope HTTP/1.1\r\nContent-Length: 5\r\n\r\n",
                answer_bytes(
                    "HTTP/1.1 404 Not Found", "Content-Type: application/json",
                    f"Content-Length: {len(not_found)}", "Connection: close",
                    body=not_found,
                ),
                True,
            ),
        ],
        ids=["200", "404", "HEAD", "HTTP/1.0", "HTTP/0.9", "unread PUT body"],
    )
    def test_exact_bytes_in_one_write(self, served, writes, request_bytes, expected, closed):
        server, _, _ = served
        received, was_closed = raw_exchange(server.port, request_bytes)
        assert masked(received) == expected
        assert was_closed == closed
        assert writes == [len(received)]

    def test_a_4_kib_answer_arrives_in_one_recv(self, served, writes):
        server, digest, blob = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(f"GET /v2/library/blobs/{digest} HTTP/1.1\r\n\r\n".encode())
            received = sock.recv(65536)
        assert masked(received) == answer_bytes(
            "HTTP/1.1 200 OK", "Content-Type: application/octet-stream",
            "Accept-Ranges: bytes", "Content-Length: 4096", body=blob,
        )
        assert writes == [len(received)]

    def test_a_body_of_64_kib_follows_its_head(self, served, writes):
        server, _, _ = served
        blob = b"z" * (64 * 1024)
        digest = server.registry.push_blob(blob)
        with HTTPSession(server.base_url) as session:
            assert session.get_blob(digest) == blob
        assert writes[1:] == [len(blob)] and writes[0] < 512

    def test_a_connection_header_sets_the_close_rule(self):
        with ServerBase(_SaysClose) as server:
            received, closed = raw_exchange(server.port, b"GET / HTTP/1.1\r\n\r\n")
        assert masked(received) == answer_bytes(
            "HTTP/1.1 200 OK", "Connection: close", "Content-Length: 2", body=b"ok"
        )
        assert closed


class CannedUpstream:
    """A one-thread server answering the n-th request with the n-th canned
    reply, closing the connection after a reply marked ``close``. Records
    every request head and counts accepted connections."""

    def __init__(self, *replies: bytes | tuple[bytes, str]):
        self.replies = [r if isinstance(r, tuple) else (r, "") for r in replies]
        self.heads: list[bytes] = []
        self.accepts = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        while self.replies:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return  # stopped
            self.accepts += 1
            with sock, sock.makefile("rb") as rfile:
                while self.replies:
                    head = rfile.readline()
                    while (line := rfile.readline()) not in (b"\r\n", b""):
                        head += line
                    if not line:
                        break  # the client closed this connection
                    self.heads.append(head + line)
                    fields = http.client.parse_headers(io.BytesIO(head.split(b"\r\n", 1)[1]))
                    rfile.read(int(fields.get("Content-Length", 0)))  # the body
                    reply, close = self.replies.pop(0)
                    sock.sendall(reply)
                    if close:
                        break

    def __enter__(self) -> "CannedUpstream":
        self.thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.listener.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class TestClientFraming:
    def exchange(self, transport: Transport, upstream: CannedUpstream, method="GET"):
        return transport.request(upstream.url, method, "/x", timeout=5)

    @pytest.mark.parametrize(
        "reply",
        [
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", ""),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc", "close"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 1_0\r\n\r\nok", ""),
            (b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\nok", ""),
            (b"HTTP/2 200\r\nContent-Length: 2\r\n\r\nok", ""),
            (b"HTTP/1.1 20 OK\r\nContent-Length: 2\r\n\r\nok", ""),
            (b"HTTP/1.1\r\nContent-Length: 2\r\n\r\nok", ""),
            (b" \r\nContent-Length: 2\r\n\r\nok", ""),
            (b"HTTP/1.1 200 OK\r\nX: a\r\n b\r\nContent-Length: 2\r\n\r\nok", ""),
        ],
    )
    def test_unframeable_responses_fail_as_reached_and_drop_the_socket(self, reply):
        with CannedUpstream(reply, _OK) as upstream, Transport() as transport:
            with pytest.raises(ConnectionFailed) as failed:
                self.exchange(transport, upstream)
            assert failed.value.reached
            assert self.exchange(transport, upstream)[2] == b"ok"
            assert upstream.accepts == 2

    def test_interim_100_is_skipped(self):
        reply = b"HTTP/1.1 100 Continue\r\n\r\n" + _OK
        with CannedUpstream(reply, _OK) as upstream, Transport() as transport:
            status, _, body = self.exchange(transport, upstream)
            assert (status, body) == (200, b"ok")
            self.exchange(transport, upstream)
            assert upstream.accepts == 1

    @pytest.mark.parametrize(
        "method, status", [("HEAD", 200), ("GET", 204), ("GET", 304)]
    )
    def test_bodiless_answers_read_no_body(self, method, status):
        reply = b"HTTP/1.1 %d X\r\nContent-Length: 5\r\n\r\n" % status
        with CannedUpstream(reply, _OK) as upstream, Transport() as transport:
            got = self.exchange(transport, upstream, method)
            assert (got[0], got[1]["Content-Length"], got[2]) == (status, "5", b"")
            assert self.exchange(transport, upstream)[2] == b"ok"
            assert upstream.accepts == 1

    def test_no_length_reads_to_eof_and_is_not_pooled(self):
        reply = (b"HTTP/1.1 200 OK\r\n\r\nall of it", "close")
        with CannedUpstream(reply, _OK) as upstream, Transport() as transport:
            assert self.exchange(transport, upstream)[2] == b"all of it"
            assert self.exchange(transport, upstream)[2] == b"ok"
            assert upstream.accepts == 2

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
            b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ],
    )
    def test_close_answers_are_not_pooled(self, reply):
        with CannedUpstream((reply, "close"), _OK) as upstream, Transport() as transport:
            self.exchange(transport, upstream)
            self.exchange(transport, upstream)
            assert upstream.accepts == 2

    def test_generated_headers_are_never_doubled(self):
        with CannedUpstream(_OK, _OK, _OK) as upstream, Transport() as transport:
            transport.request(upstream.url, "POST", "/x", timeout=5)
            transport.request(
                upstream.url, "PUT", "/x", body=b"abc", timeout=5,
                headers={"host": "h", "ACCEPT-ENCODING": "gzip", "content-length": "3"},
            )
            transport.request(upstream.url, "GET", "/x", timeout=5)
        post, put, get = (head.decode().lower() for head in upstream.heads)
        port = upstream.url.rsplit(":", 1)[1]
        assert post.startswith("post /x http/1.1\r\n")
        assert f"host: 127.0.0.1:{port}\r\n" in post
        assert "accept-encoding: identity\r\n" in post
        assert "content-length: 0\r\n" in post
        for name in ("host:", "accept-encoding:", "content-length:"):
            assert put.count(name) == 1
        assert put.endswith("\r\n\r\n") and "content-length" not in get

    @pytest.mark.parametrize(
        "path, headers",
        [
            ("/v2/", {"X-A": "a\r\nX-Injected: 1"}),
            ("/v2/", {"X-A": "a\rb"}),
            ("/v2/", {"X:A": "b"}),
            ("/v2/\x00", {}),
            ("/v2/ HTTP/1.1\r\nX-Injected: 1\r\n\r\nGET /v2/", {}),
            ("/v2/é", {}),
        ],
    )
    def test_invalid_requests_raise_before_sending(self, path, headers):
        registry, _ = build_registry()
        with RegistryHTTPServer(registry) as server, Transport() as transport:
            with pytest.raises(ValueError):
                transport.request(
                    server.base_url, "GET", path, headers=headers, timeout=5
                )
            with pytest.raises(ValueError):
                transport.request(server.base_url, "GE\nT", "/v2/", timeout=5)
            assert counter_total(server.metrics, "registry_http_requests_total") == 0
            assert transport.request(server.base_url, "GET", "/v2/", timeout=5)[0] == 200
            assert counter_total(server.metrics, "registry_http_requests_total") == 1


class TestNoEmailParserPerRequest:
    """The request path frames HTTP itself: with the stdlib's email parser
    broken, every client call still works, direct and through a frontend."""

    @pytest.fixture(params=["direct", "frontend"])
    def base_url(self, request, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("email parser used on the request path")

        with RegistryHTTPServer(Registry()) as server:
            if request.param == "direct":
                monkeypatch.setattr(email.feedparser.FeedParser, "feed", refuse)
                yield server.base_url
                return
            with FailoverFrontend(
                [server.base_url], monitor=HealthMonitor([server.base_url])
            ) as frontend:
                monkeypatch.setattr(email.feedparser.FeedParser, "feed", refuse)
                yield frontend.base_url

    def test_push_and_pull(self, base_url):
        payload = b"\x7fELF" + b"z" * 500
        with HTTPSession(base_url) as session:
            manifest = session.push_image("user/app", "v1", [[("bin/app", payload)]])
            (layer,) = manifest.layer_digests
            digest = session.resolve_tag("user/app", "v1")
            assert digest == manifest.digest()
            assert session.get_manifest("user/app", digest) == manifest
            _, etag = session.get_manifest_conditional("user/app", "v1")
            cached, _ = session.get_manifest_conditional("user/app", "v1", etag=etag)
            if etag is not None:  # the frontend forwards no ETag
                assert cached is None
            blob = session.get_blob(layer)
            assert sha256_bytes(blob) == layer
            part, total = session.get_blob_range(layer, 0, 9)
            assert total == len(blob) and blob.startswith(part)
