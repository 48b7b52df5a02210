"""Connection lifecycle of the keep-alive transport, end to end.

Run under ``python -X dev -W error::ResourceWarning`` these tests also fail
on any socket the pool or a server leaves unclosed (the module mark turns
a leak reported from a finalizer into a failure).
"""

import http.client
import socket
import sys
import threading

import pytest

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

    def test_a_read_body_keeps_the_connection(self):
        with RegistryHTTPServer(build_registry()[0]) as server:
            status, connection = self.exchange(
                server.port, "POST", "/v2/user/one/blobs/uploads/", b""
            )
            assert (status, connection) == (202, None)
