"""Server-side protection tests: body limits, rate limiting, admission
gate shedding, draining, and upload-session TTL GC."""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.ha.admission import AdmissionGate, ServerLimits, TokenBucketLimiter
from repro.registry.http import HTTPSession, RegistryHTTPServer
from repro.registry.registry import Registry


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class SteppingClock:
    """A clock that advances *step* seconds on every read, as if the thread
    stalled between any two samples."""

    def __init__(self, step: float):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def build_registry() -> Registry:
    registry = Registry()
    registry.create_repository("library/app")
    return registry


def request(
    server: RegistryHTTPServer,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: dict | None = None,
) -> tuple[int, bytes, dict]:
    req = urllib.request.Request(
        f"{server.base_url}{path}", data=body, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=5) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers or {})


class TestBodyLimits:
    def test_write_without_content_length_is_411(self):
        with RegistryHTTPServer(build_registry()) as server:
            # urllib always sets Content-Length, so speak raw HTTP
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            conn.putrequest("POST", "/v2/library/app/blobs/uploads/")
            conn.endheaders()
            response = conn.getresponse()
            body = response.read()
            conn.close()
            assert response.status == 411
            assert json.loads(body)["errors"][0]["code"] == "LENGTH_REQUIRED"

    def test_body_past_the_limit_is_413_before_reading(self):
        limits = ServerLimits.default(
            gate=None, limiter=None, max_body_bytes=64
        )
        with RegistryHTTPServer(build_registry(), limits=limits) as server:
            status, _, _ = request(
                server, "POST", "/v2/library/app/blobs/uploads/", body=b"x" * 65
            )
            assert status == 413

    def test_bad_content_length_is_400(self):
        with RegistryHTTPServer(build_registry()) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            conn.putrequest("POST", "/v2/library/app/blobs/uploads/")
            conn.putheader("Content-Length", "not-a-number")
            conn.endheaders()
            response = conn.getresponse()
            response.read()
            conn.close()
            assert response.status == 400


class TestRateLimiting:
    def test_per_client_429_with_honest_retry_after(self):
        limits = ServerLimits.default(
            gate=None,
            limiter=TokenBucketLimiter(rate_per_s=100.0, burst=2),
        )
        with RegistryHTTPServer(build_registry(), limits=limits) as server:
            headers = {"X-Client-Id": "greedy"}
            statuses = [
                request(server, "GET", "/v2/", headers=headers)[0] for _ in range(3)
            ]
            assert statuses[:2] == [200, 200]
            assert statuses[2] == 429
            status, _, response_headers = request(
                server, "GET", "/v2/", headers=headers
            )
            assert status == 429
            assert float(response_headers["Retry-After"]) > 0
            # a different client is unaffected
            status, _, _ = request(
                server, "GET", "/v2/", headers={"X-Client-Id": "patient"}
            )
            assert status == 200


class TestAdmissionGate:
    def test_full_gate_sheds_503_with_retry_after(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=0, queue_timeout_s=0.01)
        limits = ServerLimits.default(gate=gate, limiter=None)
        with RegistryHTTPServer(build_registry(), limits=limits) as server:
            # occupy the only slot out-of-band so the next request sheds
            assert gate.try_acquire().admitted
            try:
                status, body, headers = request(server, "GET", "/v2/")
            finally:
                gate.release()
            assert status == 503
            assert json.loads(body)["errors"][0]["code"] == "UNAVAILABLE"
            assert float(headers["Retry-After"]) > 0
            # slot released: traffic flows again
            assert request(server, "GET", "/v2/")[0] == 200

    def test_metrics_and_healthz_bypass_the_gate(self):
        gate = AdmissionGate(max_concurrent=1, max_queue=0, queue_timeout_s=0.01)
        limits = ServerLimits.default(gate=gate, limiter=None)
        with RegistryHTTPServer(build_registry(), limits=limits) as server:
            assert gate.try_acquire().admitted
            try:
                assert request(server, "GET", "/metrics")[0] == 200
                assert request(server, "GET", "/healthz")[0] == 200
            finally:
                gate.release()


class TestDraining:
    def test_draining_refuses_work_but_reports_readiness(self):
        with RegistryHTTPServer(build_registry()) as server:
            server.draining = True
            status, _, headers = request(server, "GET", "/v2/")
            assert status == 503
            assert "Retry-After" in headers
            status, body, _ = request(server, "GET", "/healthz")
            assert status == 503
            assert json.loads(body)["ready"] is False
            assert request(server, "GET", "/metrics")[0] == 200
            server.draining = False
            assert request(server, "GET", "/healthz")[0] == 200


class TestUploadTTL:
    def test_stale_uploads_are_garbage_collected(self):
        clock = FakeClock()
        limits = ServerLimits.default(gate=None, limiter=None, upload_ttl_s=60.0)
        with RegistryHTTPServer(build_registry(), limits=limits, clock=clock) as server:
            with HTTPSession(server.base_url) as session:
                session.push_blob(b"completes promptly")  # full protocol, no leak
            status, _, headers = request(
                server, "POST", "/v2/library/app/blobs/uploads/", body=b""
            )
            assert status == 202
            upload_url = headers["Location"]
            assert server.upload_count() == 1
            clock.t += 61.0
            assert server.gc_uploads() == 1
            assert server.upload_count() == 0
            # the expired session is gone: appending to it is a 404
            status, _, _ = request(server, "PATCH", upload_url, body=b"late")
            assert status == 404

    def test_gc_runs_opportunistically_on_new_uploads(self):
        clock = FakeClock()
        limits = ServerLimits.default(gate=None, limiter=None, upload_ttl_s=60.0)
        with RegistryHTTPServer(build_registry(), limits=limits, clock=clock) as server:
            request(server, "POST", "/v2/library/app/blobs/uploads/", body=b"")
            clock.t += 61.0
            # starting a new upload sweeps the stale one
            request(server, "POST", "/v2/library/app/blobs/uploads/", body=b"")
            assert server.upload_count() == 1

    def test_fresh_uploads_survive_gc(self):
        clock = FakeClock()
        limits = ServerLimits.default(gate=None, limiter=None, upload_ttl_s=60.0)
        with RegistryHTTPServer(build_registry(), limits=limits, clock=clock) as server:
            request(server, "POST", "/v2/library/app/blobs/uploads/", body=b"")
            clock.t += 59.0
            assert server.gc_uploads() == 0
            assert server.upload_count() == 1


class TestClientErrorMapping:
    def test_rate_limited_surfaces_with_retry_after(self):
        from repro.downloader.session import RateLimitedError

        limits = ServerLimits.default(
            gate=None, limiter=TokenBucketLimiter(rate_per_s=100.0, burst=1)
        )
        with (
            RegistryHTTPServer(build_registry(), limits=limits) as server,
            HTTPSession(server.base_url) as session,
        ):
            # no X-Client-Id header: the limiter keys on the source address
            assert session.ping()
            with pytest.raises(RateLimitedError) as excinfo:
                session.ping()
            assert excinfo.value.retry_after_s is not None
            assert excinfo.value.retry_after_s > 0

    # At 30 tokens/s, 20 ms between clock reads accrues 0.6 token: the
    # denial is 0.4 token short (13 ms), and a second sample taken after it
    # would find a whole token and answer Retry-After: 0. At 33.3 ms a read
    # the denial is 0.001 token (33 us) short, sent as the 1 ms floor.
    @pytest.mark.parametrize("step, wait", [(0.02, 0.013), (0.0333, 0.001)])
    def test_retry_after_comes_from_the_denying_clock_sample(self, step, wait):
        from repro.downloader.session import RateLimitedError

        limiter = TokenBucketLimiter(rate_per_s=30.0, burst=1, clock=SteppingClock(step))
        limits = ServerLimits.default(gate=None, limiter=limiter)
        with (
            RegistryHTTPServer(build_registry(), limits=limits) as server,
            HTTPSession(server.base_url) as session,
        ):
            assert session.ping()
            with pytest.raises(RateLimitedError) as excinfo:
                session.ping()
            assert excinfo.value.retry_after_s == pytest.approx(wait)
