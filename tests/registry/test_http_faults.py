"""Fault injection over the live HTTP registry, and client error mapping."""

import urllib.request

import pytest

from repro.downloader.downloader import Downloader
from repro.downloader.session import RateLimitedError, TransientNetworkError
from repro.faults.injector import FaultInjector
from repro.faults.rules import FaultRule, Schedule
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.parallel.pool import ParallelConfig
from repro.registry.http import HTTPSession, RegistryHTTPServer
from repro.registry.registry import Registry
from repro.registry.tarball import layer_from_files
from repro.util.digest import sha256_bytes


def build_registry():
    reg = Registry()
    layer, blob = layer_from_files([("bin/app", b"\x7fELF" + b"x" * 400)])
    reg.push_blob(blob)
    manifest = Manifest(
        layers=(ManifestLayerRef(digest=layer.digest, size=layer.compressed_size),)
    )
    reg.create_repository("user/app")
    reg.push_manifest("user/app", "latest", manifest)
    return reg, layer.digest


def serve(rules, seed=0):
    reg, digest = build_registry()
    injector = FaultInjector(rules, seed=seed)
    server = RegistryHTTPServer(reg, fault_injector=injector)
    return server, digest


class TestServerSideFaults:
    def test_rate_limit_surfaces_as_429_with_retry_after(self):
        server, _ = serve(
            [FaultRule(kind="rate_limit", rate=1.0, retry_after_s=0.25)]
        )
        with server, HTTPSession(server.base_url) as session:
            with pytest.raises(RateLimitedError) as err:
                session.get_manifest("user/app", "latest")
            assert err.value.retry_after_s == 0.25

    def test_server_error_surfaces_as_transient(self):
        server, _ = serve([FaultRule(kind="server_error", rate=1.0)])
        with server, HTTPSession(server.base_url) as session:
            with pytest.raises(TransientNetworkError, match="server error 503"):
                session.get_manifest("user/app", "latest")

    def test_flap_drops_the_connection(self):
        server, _ = serve([FaultRule(kind="flap", rate=1.0)])
        with server, HTTPSession(server.base_url, timeout=5.0) as session:
            with pytest.raises(TransientNetworkError):
                session.get_manifest("user/app", "latest")

    def test_corrupt_blob_body_fails_digest_check(self):
        server, digest = serve([FaultRule(kind="corrupt", rate=1.0, ops=("blob",))])
        with server, HTTPSession(server.base_url) as session:
            blob = session.get_blob(digest)
            assert sha256_bytes(blob) != digest

    def test_truncated_blob_body_is_short(self):
        server, digest = serve([FaultRule(kind="truncate", rate=1.0, ops=("blob",))])
        with server, HTTPSession(server.base_url) as session:
            clean = build_registry()[0].get_blob(digest)
            blob = session.get_blob(digest)
            assert len(blob) < len(clean)

    def test_metrics_endpoint_never_faulted(self):
        server, _ = serve([FaultRule(kind="server_error", rate=1.0)])
        with server, urllib.request.urlopen(server.base_url + "/metrics") as response:
            assert b"registry_http_requests_total" in response.read()

    def test_downloader_survives_injected_weather_end_to_end(self):
        """One corrupt burst + everything else clean: the pull pipeline
        quarantines, refetches over HTTP, and completes the image."""
        server, digest = serve(
            [
                FaultRule(kind="corrupt", rate=1.0, ops=("blob",),
                          schedule=Schedule.burst(1, 1)),
            ]
        )
        with server, HTTPSession(server.base_url) as session:
            downloader = Downloader(
                session,
                parallel=ParallelConfig(mode="serial"),
                sleep=lambda s: None,
                max_retries=4,
            )
            image = downloader.download_image("user/app")
            assert image is not None
            assert downloader.stats.corrupt_blobs == 1
            assert sha256_bytes(downloader.dest.get(digest)) == digest


class TestClientErrorMapping:
    def test_plain_429_maps_to_rate_limited(self):
        # no Retry-After header -> retry_after_s defaults to 0
        server, _ = serve([FaultRule(kind="rate_limit", rate=1.0, retry_after_s=0.0)])
        with server, HTTPSession(server.base_url) as session:
            with pytest.raises(RateLimitedError) as err:
                session.ping()
            assert err.value.retry_after_s == 0.0

    def test_rate_limited_is_transient(self):
        assert issubclass(RateLimitedError, TransientNetworkError)
