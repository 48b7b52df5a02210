"""HTTP registry tests: the v2 API over a real socket."""

import http.client
import json
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.crawler.crawler import HubCrawler
from repro.downloader.downloader import Downloader
from repro.downloader.session import TransientNetworkError
from repro.obs.metrics import counter_total
from repro.registry.errors import (
    AuthRequiredError,
    DigestMismatchError,
    RegistryError,
    TagNotFoundError,
)
from repro.registry.http import HTTPSearchClient, HTTPSession, RegistryHTTPServer
from repro.registry.registry import Registry
from repro.registry.search import HubSearchEngine
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.registry.tarball import layer_from_files
from repro.util.digest import sha256_bytes
from tests.golden import assert_identity


def _build_registry() -> Registry:
    reg = Registry()
    layer, blob = layer_from_files([("bin/app", b"\x7fELF" + b"x" * 300)])
    reg.push_blob(blob)
    manifest = Manifest(
        layers=(ManifestLayerRef(digest=layer.digest, size=layer.compressed_size),)
    )
    for name in ["nginx", "user/app", "user/web"]:
        reg.create_repository(name)
        reg.push_manifest(name, "latest", manifest)
        reg.push_manifest(name, "v1", manifest)
    reg.create_repository("priv/x", requires_auth=True)
    reg.push_manifest("priv/x", "latest", manifest)
    return reg


@pytest.fixture(scope="module")
def server():
    registry = _build_registry()
    search = HubSearchEngine(registry, duplication_factor=1.2, seed=1)
    with RegistryHTTPServer(registry, search) as srv:
        yield srv


@pytest.fixture
def session(server):
    with HTTPSession(server.base_url) as s:
        yield s


class TestEndpoints:
    def test_version_check(self, server, session):
        assert session.ping()

    def test_manifest_roundtrip(self, server, session):
        manifest = session.get_manifest("user/app", "latest")
        assert manifest.layers[0].size > 0

    def test_manifest_by_digest(self, server, session):
        manifest = session.get_manifest("user/app", "latest")
        again = session.get_manifest("user/app", manifest.digest())
        assert again == manifest

    def test_content_digest_header(self, server):
        with urllib.request.urlopen(
            server.base_url + "/v2/user/app/manifests/latest"
        ) as response:
            digest = response.headers["Docker-Content-Digest"]
            body = response.read()
        assert Manifest.from_json(body).digest() == digest

    def test_blob_fetch(self, server, session):
        manifest = session.get_manifest("user/app", "latest")
        blob = session.get_blob(manifest.layers[0].digest)
        assert len(blob) == manifest.layers[0].size

    def test_tags_list(self, server, session):
        assert session.list_tags("user/app") == ["latest", "v1"]

    def test_catalog_paginated(self, server, session):
        assert session.catalog() == ["nginx", "priv/x", "user/app", "user/web"]

    def test_head_manifest(self, server):
        request = urllib.request.Request(
            server.base_url + "/v2/nginx/manifests/latest", method="HEAD"
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert response.headers["Docker-Content-Digest"].startswith("sha256:")


def manifest_wire(registry: Registry, port: int) -> bytes:
    """What the server sends for each repository's ``latest`` manifest,
    canonicalised: status, body, ``Docker-Content-Digest`` and ``ETag`` of
    a GET by tag and, when that succeeds, of a GET by the digest it named,
    plus a HEAD's ``Content-Length``. Read with ``http.client``, not the
    package's own client, so the row pins the bytes on the wire."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)

    def get(method: str, path: str) -> tuple[list, http.client.HTTPMessage]:
        conn.request(method, path, headers={"Authorization": "Bearer t"})
        response = conn.getresponse()
        body = response.read().decode("latin-1")
        headers = response.headers
        answer = [response.status, body, headers.get("Docker-Content-Digest"), headers.get("ETag")]
        return answer, headers

    rows = {}
    try:
        for name in registry.catalog():
            base = f"/v2/{urllib.parse.quote(name, safe='/')}/manifests/"
            answer, headers = get("GET", base + "latest")
            row = {"tag": answer}
            if answer[0] == 200:
                row["digest"] = get("GET", base + headers["Docker-Content-Digest"])[0]
                row["head_length"] = get("HEAD", base + "latest")[1].get("Content-Length")
            rows[name] = row
    finally:
        conn.close()
    return json.dumps(rows, sort_keys=True).encode()


class TestManifestReads:
    """Manifest GETs answer with the stored bytes; the client hashes them
    as received and checks a GET by digest against the digest it named."""

    def test_wire_bytes_equal_the_ledger(self, materialized):
        registry, _ = materialized
        with RegistryHTTPServer(registry) as server:
            assert_identity("manifest_wire", manifest_wire(registry, server.port))

    def test_resolve_tag_agrees_with_the_registry(self, materialized):
        registry, _ = materialized
        pairs = [
            (repo.name, tag) for repo in registry.repositories() for tag in repo.tags
        ]
        assert {tag for _, tag in pairs} - {"latest"}  # not only latest tags
        with RegistryHTTPServer(registry) as server, HTTPSession(
            server.base_url, token="t"
        ) as session:
            for name, tag in pairs:
                assert session.resolve_tag(name, tag) == registry.resolve_tag(
                    name, tag, token="t"
                )

    def test_altered_entry_raises_digest_mismatch(self):
        registry = _build_registry()
        digest = registry.resolve_tag("nginx", "latest")
        altered = Manifest(layers=(), config={"altered": True}).to_json()
        registry._manifests[digest] = altered
        with RegistryHTTPServer(registry) as server, HTTPSession(server.base_url) as session:
            with pytest.raises(DigestMismatchError) as raised:
                session.get_manifest("nginx", digest)
            assert raised.value.actual == sha256_bytes(altered)
            with pytest.raises(DigestMismatchError):
                session.get_manifest_conditional("nginx", digest)
            # by tag there is no digest to check against: the bytes come back
            assert session.get_manifest("nginx", "latest").config == {"altered": True}


class TestErrors:
    def test_unknown_repo_404(self, session):
        with pytest.raises(RegistryError):
            session.get_manifest("ghost/app", "latest")

    def test_missing_tag_maps_to_tag_error(self, session):
        with pytest.raises(TagNotFoundError):
            session.get_manifest("user/app", "v99")

    def test_auth_401(self, session):
        with pytest.raises(AuthRequiredError):
            session.get_manifest("priv/x", "latest")

    def test_bearer_token_grants_access(self, server):
        with HTTPSession(server.base_url, token="secret") as session:
            assert session.get_manifest("priv/x", "latest")

    def test_unknown_path_404(self, server):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.base_url + "/nope")
        err.value.close()

    def test_connection_refused_maps_to_transient_error(self):
        # a refused connection is retryable weather, not a protocol error
        with HTTPSession("http://127.0.0.1:9") as dead:  # discard port, nothing listens
            with pytest.raises(TransientNetworkError, match="connection failed"):
                dead.ping()


class TestErrorPaths:
    """Error-path coverage: malformed pushes, unknown uploads, auth mapping."""

    def test_malformed_manifest_put_is_400(self, server):
        request = urllib.request.Request(
            f"{server.base_url}/v2/user/app/manifests/broken",
            data=b"this is not json",
            method="PUT",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        doc = json.loads(err.value.read())
        assert doc["errors"][0]["code"] == "MANIFEST_INVALID"

    def test_manifest_put_missing_required_keys_is_400(self, server):
        payload = {"schemaVersion": 2, "layers": [{"digest": "sha256:" + "0" * 64}]}
        request = urllib.request.Request(
            f"{server.base_url}/v2/user/app/manifests/broken",
            data=json.dumps(payload).encode(),  # layer entry lacks "size"
            method="PUT",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        err.value.close()
        assert err.value.code == 400

    def test_blob_put_with_wrong_digest_is_400(self, server, session):
        _, headers = session._fetch(
            "/v2/library/blobs/uploads/", method="POST", data=b"", return_headers=True
        )
        location = headers["Location"]
        request = urllib.request.Request(
            f"{server.base_url}{location}?digest=sha256:{'0' * 64}",
            data=b"payload bytes",
            method="PUT",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        doc = json.loads(err.value.read())
        assert doc["errors"][0]["code"] == "DIGEST_INVALID"
        assert not server.registry.has_blob(sha256_bytes(b"payload bytes"))

    def test_patch_to_unknown_upload_uuid_is_404(self, server):
        request = urllib.request.Request(
            f"{server.base_url}/v2/library/blobs/uploads/"
            "00000000-0000-0000-0000-000000000000",
            data=b"chunk",
            method="PATCH",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 404
        doc = json.loads(err.value.read())
        assert doc["errors"][0]["code"] == "BLOB_UPLOAD_UNKNOWN"

    def test_401_maps_to_auth_required_error(self, session):
        with pytest.raises(AuthRequiredError):
            session.get_manifest("priv/x", "latest")

    def test_tags_list_401_maps_too(self, session):
        with pytest.raises(AuthRequiredError):
            session.list_tags("priv/x")


class TestMetricsEndpoint:
    def test_prometheus_export_per_endpoint(self, server, session):
        session.get_manifest("user/app", "latest")
        manifest = session.get_manifest("user/app", "latest")
        session.get_blob(manifest.layers[0].digest)
        with urllib.request.urlopen(f"{server.base_url}/metrics") as response:
            body = response.read().decode()
        assert "# TYPE registry_http_requests_total counter" in body
        assert 'endpoint="manifest"' in body
        assert 'endpoint="blob"' in body
        assert 'method="GET"' in body
        assert "# TYPE registry_http_request_seconds histogram" in body
        assert 'registry_http_request_seconds_bucket{endpoint="manifest",le="+Inf"}' in body

    def test_errors_still_counted(self, server, session):
        before = server.metrics.counter(
            "registry_http_requests_total", endpoint="manifest", method="GET"
        ).value
        with pytest.raises(TagNotFoundError):
            session.get_manifest("user/app", "no-such-tag")
        after = server.metrics.counter(
            "registry_http_requests_total", endpoint="manifest", method="GET"
        ).value
        assert after == before + 1

    def test_series_count_every_request_sent(self):
        """Counter and histogram count per endpoint equal the requests
        sent, over a mixed sequence with a 404 on an unmatched path."""
        sent = {
            ("ping", "GET"): 2,
            ("manifest", "GET"): 3,
            ("manifest", "HEAD"): 1,
            ("blob", "GET"): 1,
            ("tags", "GET"): 1,
            ("other", "GET"): 2,
        }
        with RegistryHTTPServer(_build_registry()) as server:
            with HTTPSession(server.base_url) as session:
                session.ping()
                digest = session.resolve_tag("user/app", "latest")
                manifest = session.get_manifest("user/app", digest)
                with pytest.raises(TagNotFoundError):
                    session.get_manifest("user/app", "no-such-tag")
                session.get_blob(manifest.layers[0].digest)
                session.list_tags("user/app")
                session.ping()
            for path, method in (("/v2/nginx/manifests/latest", "HEAD"), ("/nope", "GET"),
                                 ("/v2/x/nope", "GET")):
                request = urllib.request.Request(server.base_url + path, method=method)
                try:
                    urllib.request.urlopen(request).close()
                except urllib.error.HTTPError as err:
                    err.close()
        # read once stopped: a handler observes its latency after it answers
        metrics = server.metrics
        for (endpoint, method), count in sent.items():
            assert counter_total(
                metrics, "registry_http_requests_total", endpoint=endpoint, method=method
            ) == count, (endpoint, method)
        for endpoint in {endpoint for endpoint, _ in sent}:
            histogram = metrics.histogram("registry_http_request_seconds", endpoint=endpoint)
            assert histogram.snapshot().count == sum(
                count for (e, _), count in sent.items() if e == endpoint
            ), endpoint
        assert counter_total(metrics, "registry_http_requests_total") == sum(sent.values())

    def test_concurrent_first_requests_lose_no_count(self):
        """Threads racing on each series' first request (more threads
        than cores, a short switch interval) still count every request."""
        threads_n, rounds = 8, 10
        with RegistryHTTPServer(_build_registry()) as server:

            def pull() -> None:
                with HTTPSession(server.base_url) as session:
                    for _ in range(rounds):
                        session.ping()
                        session.resolve_tag("nginx", "latest")

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=pull) for _ in range(threads_n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        metrics = server.metrics
        for endpoint in ("ping", "manifest"):
            assert counter_total(
                metrics, "registry_http_requests_total", endpoint=endpoint
            ) == threads_n * rounds
            histogram = metrics.histogram("registry_http_request_seconds", endpoint=endpoint)
            assert histogram.snapshot().count == threads_n * rounds


class TestSearchOverHTTP:
    def test_search_pages(self, server):
        with HTTPSearchClient(server.base_url) as client:
            page = client.search("/", page=1)
        assert set(page.results) <= {"user/app", "user/web", "priv/x"}
        assert not page.has_next or page.page == 1

    def test_officials(self, server):
        with HTTPSearchClient(server.base_url) as client:
            assert client.official_repositories() == ["nginx"]

    def test_crawler_over_http(self, server):
        with HTTPSearchClient(server.base_url) as client:
            result = HubCrawler(client).crawl()
        assert sorted(result.repositories) == ["nginx", "priv/x", "user/app", "user/web"]


class TestDownloaderOverHTTP:
    def test_end_to_end_download(self, server):
        with HTTPSession(server.base_url) as session:
            downloader = Downloader(session)
            images = downloader.download_all(["nginx", "user/app", "user/web", "priv/x"])
        assert {img.repository for img in images} == {"nginx", "user/app", "user/web"}
        stats = downloader.stats
        assert stats.failed_auth == 1
        # the shared layer crossed the wire exactly once
        assert stats.unique_layers_fetched == 1
        assert stats.duplicate_layer_hits == 2

    def test_all_tags_over_http(self, server):
        with HTTPSession(server.base_url) as session:
            images = Downloader(session).download_all_tags("user/app")
        assert {img.tag for img in images} == {"latest", "v1"}
