"""HTTP push-path tests: the Fig. 1 push arrow over a real socket."""

import tracemalloc
import urllib.parse

import pytest

from repro.model.manifest import Manifest, ManifestLayerRef
from repro.registry.errors import RegistryError
from repro.registry.http import HTTPSession, RegistryHTTPServer, _Handler
from repro.registry.registry import Registry
from repro.registry.tarball import layer_from_files
from repro.util.digest import format_digest, sha256_bytes


@pytest.fixture()
def server():
    with RegistryHTTPServer(Registry()) as srv:
        yield srv


@pytest.fixture()
def session(server):
    with HTTPSession(server.base_url) as s:
        yield s


class TestBlobUpload:
    def test_monolithic_upload(self, server, session):
        digest = session.push_blob(b"layer-bytes")
        assert digest == sha256_bytes(b"layer-bytes")
        assert server.registry.get_blob(digest) == b"layer-bytes"
        assert server.upload_count() == 0

    def test_chunked_upload(self, server, session):
        data = bytes(range(256)) * 100
        digest = session.push_blob(data, chunk_size=1000)
        assert server.registry.get_blob(digest) == data
        assert server.upload_count() == 0

    def test_upload_idempotent(self, server, session):
        d1 = session.push_blob(b"same")
        d2 = session.push_blob(b"same")
        assert d1 == d2
        assert server.registry.blobs.count() == 1

    def test_digest_mismatch_rejected(self, server, session):
        import urllib.parse

        _, headers = session._fetch(
            "/v2/library/blobs/uploads/", method="POST", data=b"", return_headers=True
        )
        bogus = format_digest(123)
        with pytest.raises(RegistryError, match="DIGEST_INVALID"):
            session._fetch(
                f"{headers['Location']}?digest={urllib.parse.quote(bogus)}",
                method="PUT",
                data=b"not matching",
            )
        # verified before it is stored: the mismatched body left nothing
        assert not server.registry.has_blob(sha256_bytes(b"not matching"))
        assert server.registry.blobs.count() == 0

    def test_monolithic_push_holds_the_blob_once(self, server, session):
        """One read, one hash, one store: the upload allocates about the
        blob it keeps, not a buffer and a copy beside it."""
        session.push_blob(b"warm the connection")
        blob = bytes(range(256)) * (32 * 1024)  # 8 MiB
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            digest = session.push_blob(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert server.registry.get_blob(digest) == blob
        assert peak - base <= 1.5 * len(blob)
        assert server.upload_count() == 0

    def test_patch_then_final_put_stores_the_concatenation(self, server, session):
        location = self._open_upload(session)
        session._fetch(location, method="PATCH", data=b"first half, ")
        digest = sha256_bytes(b"first half, second half")
        _, headers = session._fetch(
            f"{location}?digest={urllib.parse.quote(digest)}",
            method="PUT",
            data=b"second half",
            return_headers=True,
        )
        assert headers["Docker-Content-Digest"] == digest
        assert server.registry.get_blob(digest) == b"first half, second half"
        assert server.upload_count() == 0

    def test_digest_mismatch_after_patch_stores_nothing(self, server, session):
        location = self._open_upload(session)
        session._fetch(location, method="PATCH", data=b"patched")
        bogus = format_digest(7)
        with pytest.raises(RegistryError, match="DIGEST_INVALID"):
            session._fetch(
                f"{location}?digest={urllib.parse.quote(bogus)}", method="PUT", data=b"tail"
            )
        assert server.registry.blobs.count() == 0
        assert server.upload_count() == 0

    def test_no_response_ends_in_an_empty_write(self, server, session, monkeypatch):
        """202/201 answers carry no body: the server writes their headers
        and nothing after them."""
        lengths: list[int] = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            handler.wfile = _RecordingWriter(handler.wfile, lengths)

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        session.push_image("alice/web", "latest", [[("bin/app", b"\x7fELF" + b"a" * 300)]])
        session.push_blob(bytes(range(256)) * 10, chunk_size=700)
        # one write per answer: POST, PUT, manifest PUT; POST, 4 PATCHes, PUT
        assert len(lengths) == 3 + 6
        assert min(lengths) > 0

    @staticmethod
    def _open_upload(session) -> str:
        _, headers = session._fetch(
            "/v2/library/blobs/uploads/", method="POST", data=b"", return_headers=True
        )
        return headers["Location"]

    def test_unknown_upload_session_404(self, server, session):
        with pytest.raises(RegistryError):
            session._fetch(
                "/v2/library/blobs/uploads/00000000-0000-0000-0000-000000000000",
                method="PATCH",
                data=b"x",
            )


class _RecordingWriter:
    """A handler's ``wfile`` that records the length of every write."""

    def __init__(self, inner, lengths: list[int]):
        self._inner = inner
        self._lengths = lengths

    def write(self, data) -> int:
        self._lengths.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestManifestPush:
    def test_push_then_pull_roundtrip(self, server, session):
        files = [("bin/app", b"\x7fELF" + b"p" * 100), ("etc/c", b"cfg\n")]
        manifest = session.push_image("alice/web", "latest", [files])
        fetched = session.get_manifest("alice/web", "latest")
        assert fetched == manifest
        blob = session.get_blob(manifest.layers[0].digest)
        layer, expected_blob = layer_from_files(files)
        assert blob == expected_blob

    def test_repo_created_on_first_push(self, server, session):
        session.push_image("new/repo", "latest", [[("f", b"x")]])
        assert "new/repo" in server.registry.catalog()

    def test_manifest_with_missing_blob_rejected(self, server, session):
        manifest = Manifest(
            layers=(ManifestLayerRef(digest=format_digest(9), size=10),)
        )
        with pytest.raises(RegistryError):
            session.push_manifest("alice/web", "latest", manifest)

    def test_garbage_manifest_rejected(self, server, session):
        with pytest.raises(RegistryError):
            session._fetch(
                "/v2/alice/web/manifests/latest", method="PUT", data=b"not json"
            )

    def test_push_multiple_tags(self, server, session):
        files = [[("f", b"v1-content")]]
        session.push_image("alice/web", "v1", files)
        session.push_image("alice/web", "latest", files)
        assert session.list_tags("alice/web") == ["latest", "v1"]


class TestPushPullSymmetry:
    def test_whole_registry_roundtrip(self, server, session):
        """Push several images over HTTP, then crawl + download them back —
        both arrows of Fig. 1 across the wire."""
        shared = [("base/os", b"\x7fELF" + b"S" * 5000)]
        for i, repo in enumerate(["u/a", "u/b", "u/c"]):
            session.push_image(repo, "latest", [shared, [(f"own{i}", bytes([i]) * 64)]])

        from repro.downloader.downloader import Downloader

        with HTTPSession(server.base_url) as pull:
            downloader = Downloader(pull)
            images = downloader.download_all(["u/a", "u/b", "u/c"])
        assert len(images) == 3
        assert downloader.stats.unique_layers_fetched == 4  # shared base once
