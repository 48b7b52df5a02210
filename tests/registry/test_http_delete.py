"""HTTP deletion tests: ``DELETE /v2/.../manifests/...`` and ``.../tags/...``."""

import urllib.error
import urllib.request

import pytest

from repro.model.manifest import Manifest, ManifestLayerRef
from repro.registry.errors import AuthRequiredError, TagNotFoundError
from repro.registry.http import HTTPSession, RegistryHTTPServer
from repro.registry.registry import Registry


def _manifest(reg: Registry, payload: bytes) -> Manifest:
    digest = reg.push_blob(payload)
    return Manifest(layers=(ManifestLayerRef(digest=digest, size=len(payload)),))


@pytest.fixture
def server():
    reg = Registry()
    manifest = _manifest(reg, b"\x7fELF" + b"x" * 100)
    for name in ["user/app", "user/web"]:
        reg.create_repository(name)
        reg.push_manifest(name, "latest", manifest)
        reg.push_manifest(name, "v1", manifest)
    reg.create_repository("priv/x", requires_auth=True)
    reg.push_manifest("priv/x", "latest", _manifest(reg, b"private payload"))
    with RegistryHTTPServer(reg) as srv:
        yield srv


@pytest.fixture
def session(server):
    with HTTPSession(server.base_url) as s:
        yield s


def _raw_delete(server, path: str):
    request = urllib.request.Request(server.base_url + path, method="DELETE")
    return urllib.request.urlopen(request)


class TestDeleteTag:
    def test_delete_tag_accounting(self, server, session):
        assert session.delete_tag("user/app", "v1") == {"untagged": 1}
        assert session.list_tags("user/app") == ["latest"]

    def test_delete_answers_202(self, server):
        with _raw_delete(server, "/v2/user/app/tags/v1") as response:
            assert response.status == 202

    def test_missing_tag_raises(self, server, session):
        with pytest.raises(TagNotFoundError):
            session.delete_tag("user/app", "nope")

    def test_tags_list_is_not_deletable(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _raw_delete(server, "/v2/user/app/tags/list")
        exc.value.close()
        assert exc.value.code == 404
        # ...and the listing endpoint is untouched
        with urllib.request.urlopen(
            server.base_url + "/v2/user/app/tags/list"
        ) as response:
            assert response.status == 200

    def test_per_endpoint_metrics_observed(self, server, session):
        from repro.obs.metrics import counter_total

        session.delete_tag("user/web", "v1")
        assert counter_total(
            server.metrics,
            "registry_http_requests_total",
            endpoint="tags",
            method="DELETE",
        ) >= 1


class TestDeleteManifest:
    def test_delete_by_tag_reference(self, server, session):
        assert session.delete_manifest("user/app", "v1") == {"untagged": 1}
        assert session.list_tags("user/app") == ["latest"]

    def test_delete_by_digest_untags_every_tag(self, server, session):
        digest = session.get_manifest("user/app", "latest").digest()
        assert session.delete_manifest("user/app", digest) == {"untagged": 2}
        assert session.list_tags("user/app") == []
        # the other repo's tags on the same manifest are untouched
        assert session.list_tags("user/web") == ["latest", "v1"]

    def test_manifest_metrics_endpoint(self, server, session):
        from repro.obs.metrics import counter_total

        session.delete_manifest("user/web", "v1")
        assert counter_total(
            server.metrics,
            "registry_http_requests_total",
            endpoint="manifest",
            method="DELETE",
        ) >= 1

    def test_auth_required(self, server, session):
        with pytest.raises(AuthRequiredError):
            session.delete_manifest("priv/x", "latest")

    def test_bytes_await_gc_not_the_delete(self, server, session):
        """The DELETE removes the mapping; reclamation is GC's job."""
        manifest = session.get_manifest("user/app", "latest")
        session.delete_manifest("user/app", manifest.digest())
        session.delete_manifest("user/web", manifest.digest())
        assert session.get_blob(manifest.layers[0].digest)  # still served

        report = server.registry.collect_garbage()
        assert report["blobs_deleted"] == 1
