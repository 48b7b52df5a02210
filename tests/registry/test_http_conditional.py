"""Conditional (ETag/304) and single-range (206) HTTP tests.

These are the cheap-revalidation primitives the tiered cache hierarchy
leans on: a proxy keeps a tag fresh with a 304 instead of a full manifest
body, and resumes / samples blobs with ranged reads instead of full
transfers.
"""

import urllib.error
import urllib.request

import pytest

from repro.downloader.proxy import CachingProxySession
from repro.downloader.session import NetworkModel, SimulatedSession
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.obs.metrics import counter_total
from repro.registry.errors import RegistryError
from repro.registry.http import HTTPSession, RegistryHTTPServer
from repro.registry.registry import Registry
from repro.registry.tarball import layer_from_files


def _build_registry() -> Registry:
    reg = Registry()
    layer, blob = layer_from_files([("bin/app", b"\x7fELF" + bytes(range(256)))])
    reg.push_blob(blob)
    manifest = Manifest(
        layers=(ManifestLayerRef(digest=layer.digest, size=layer.compressed_size),)
    )
    for name in ["nginx", "mut/able"]:
        reg.create_repository(name)
        reg.push_manifest(name, "latest", manifest)
    return reg


@pytest.fixture(scope="module")
def server():
    with RegistryHTTPServer(_build_registry()) as srv:
        yield srv


@pytest.fixture
def session(server):
    with HTTPSession(server.base_url) as s:
        yield s


def _counter_value(server, name, **labels):
    return counter_total(server.metrics, name, **labels)


class TestConditionalManifest:
    def test_first_fetch_returns_manifest_and_etag(self, session):
        manifest, etag = session.get_manifest_conditional("nginx", "latest")
        assert manifest is not None
        assert etag == f'"{manifest.digest()}"'

    def test_matching_etag_is_a_304(self, server, session):
        manifest, etag = session.get_manifest_conditional("nginx", "latest")
        before = _counter_value(
            server, "registry_http_conditional_total", outcome="not_modified"
        )
        again, etag2 = session.get_manifest_conditional("nginx", "latest", etag=etag)
        assert again is None  # 304: keep the cached copy
        assert etag2 == etag
        after = _counter_value(
            server, "registry_http_conditional_total", outcome="not_modified"
        )
        assert after == before + 1

    def test_stale_etag_gets_fresh_manifest(self, server, session):
        manifest, stale = session.get_manifest_conditional("nginx", "latest")
        before = _counter_value(
            server, "registry_http_conditional_total", outcome="modified"
        )
        fresh, etag = session.get_manifest_conditional(
            "nginx", "latest", etag='"sha256:' + "0" * 64 + '"'
        )
        assert fresh == manifest
        assert etag == stale
        after = _counter_value(
            server, "registry_http_conditional_total", outcome="modified"
        )
        assert after == before + 1

    def test_tag_move_invalidates_etag(self, server, session):
        _, etag = session.get_manifest_conditional("mut/able", "latest")
        layer, blob = layer_from_files([("etc/new", b"changed content")])
        session.push_blob(blob)
        new_manifest = Manifest(
            layers=(ManifestLayerRef(digest=layer.digest, size=layer.compressed_size),)
        )
        session.push_manifest("mut/able", "latest", new_manifest)
        fresh, new_etag = session.get_manifest_conditional(
            "mut/able", "latest", etag=etag
        )
        assert fresh == new_manifest  # the moved tag came back in full
        assert new_etag == f'"{new_manifest.digest()}"'
        assert new_etag != etag

    def test_plain_get_carries_etag_header(self, server):
        with urllib.request.urlopen(
            server.base_url + "/v2/nginx/manifests/latest"
        ) as response:
            etag = response.headers["ETag"]
            digest = response.headers["Docker-Content-Digest"]
        assert etag == f'"{digest}"'


class TestBlobRange:
    @pytest.fixture
    def blob_digest(self, session):
        return session.get_manifest("nginx", "latest").layers[0].digest

    def test_prefix_range(self, server, session, blob_digest):
        full = session.get_blob(blob_digest)
        before = _counter_value(server, "registry_http_range_total", outcome="partial")
        part, total = session.get_blob_range(blob_digest, 0, 9)
        assert part == full[:10]
        assert total == len(full)
        assert (
            _counter_value(server, "registry_http_range_total", outcome="partial")
            == before + 1
        )

    def test_open_ended_range(self, session, blob_digest):
        full = session.get_blob(blob_digest)
        part, total = session.get_blob_range(blob_digest, 5)
        assert part == full[5:]
        assert total == len(full)

    def test_end_clamped_to_blob_size(self, session, blob_digest):
        full = session.get_blob(blob_digest)
        part, total = session.get_blob_range(blob_digest, 10, 10**9)
        assert part == full[10:]
        assert total == len(full)

    def test_suffix_range(self, server, session, blob_digest):
        full = session.get_blob(blob_digest)
        request = urllib.request.Request(
            f"{server.base_url}/v2/library/blobs/{blob_digest}",
            headers={"Range": "bytes=-4"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 206
            expected = f"bytes {len(full) - 4}-{len(full) - 1}/{len(full)}"
            assert response.headers["Content-Range"] == expected
            assert response.read() == full[-4:]

    def test_unsatisfiable_range_is_416(self, server, session, blob_digest):
        full = session.get_blob(blob_digest)
        before = _counter_value(
            server, "registry_http_range_total", outcome="unsatisfiable"
        )
        with pytest.raises(RegistryError, match="range not satisfiable"):
            session.get_blob_range(blob_digest, len(full))
        assert (
            _counter_value(server, "registry_http_range_total", outcome="unsatisfiable")
            == before + 1
        )

    @pytest.mark.parametrize("header", ["bytes=abc", "bytes=9-2", "chunks=0-4", "bytes=-"])
    def test_ignorable_range_serves_full_200(self, server, session, blob_digest, header):
        full = session.get_blob(blob_digest)
        request = urllib.request.Request(
            f"{server.base_url}/v2/library/blobs/{blob_digest}",
            headers={"Range": header},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert response.read() == full

    def test_full_get_advertises_ranges(self, server, blob_digest):
        with urllib.request.urlopen(
            f"{server.base_url}/v2/library/blobs/{blob_digest}"
        ) as response:
            assert response.headers["Accept-Ranges"] == "bytes"


class TestProxyRevalidation:
    def test_proxy_over_http_revalidates_with_304(self, server):
        with HTTPSession(server.base_url) as session:
            proxy = CachingProxySession(session)
            first = proxy.get_manifest("nginx", "latest")
            again = proxy.get_manifest("nginx", "latest")
        assert again == first
        assert proxy.stats.manifest_requests == 2
        assert proxy.stats.manifest_revalidations_304 == 1

    def test_proxy_over_simulated_session_revalidates(self):
        registry = _build_registry()
        session = SimulatedSession(registry, NetworkModel(0.080, 30e6))
        proxy = CachingProxySession(session)
        first = proxy.get_manifest("nginx", "latest")
        cost_first = session.virtual_seconds
        again = proxy.get_manifest("nginx", "latest")
        assert again == first
        assert proxy.stats.manifest_revalidations_304 == 1
        # the 304 paid one request overhead, zero payload bytes
        assert session.virtual_seconds == pytest.approx(
            cost_first + session.model.request_overhead_s
        )

    def test_simulated_conditional_reports_tag_move(self):
        registry = _build_registry()
        session = SimulatedSession(registry)
        manifest, etag = session.get_manifest_conditional("mut/able", "latest")
        assert manifest is not None
        none_again, _ = session.get_manifest_conditional(
            "mut/able", "latest", etag=etag
        )
        assert none_again is None
        layer, blob = layer_from_files([("etc/other", b"moved")])
        registry.push_blob(blob)
        new_manifest = Manifest(
            layers=(ManifestLayerRef(digest=layer.digest, size=layer.compressed_size),)
        )
        registry.push_manifest("mut/able", "latest", new_manifest)
        fresh, new_etag = session.get_manifest_conditional(
            "mut/able", "latest", etag=etag
        )
        assert fresh == new_manifest
        assert new_etag != etag
