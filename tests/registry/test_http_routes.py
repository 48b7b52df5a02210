"""Route differential: every method on every path shape gets the status and
the metrics endpoint label it always got.

``EXPECTED`` is a literal table, recorded from the server before its
routing became one table lookup; a routing change that moves any cell
fails here. Each path runs against a fresh server, methods in
``METHODS`` order (so ``DELETE`` goes last). Placeholders in a path are
filled per request: ``{blob}`` and ``{manifest}`` with the seeded
image's digests, ``{missing}`` with a well-formed digest of no blob, and
``{upload}`` with a freshly opened upload session.

Running this file as a script prints the table for the code on
``PYTHONPATH``, in the form pasted below.
"""

import json

import pytest

from repro.model.manifest import Manifest, ManifestLayerRef
from repro.registry.http import RegistryHTTPServer
from repro.registry.registry import Registry
from repro.registry.transport import Transport

METHODS = ("GET", "HEAD", "POST", "PATCH", "PUT", "DELETE")

PATHS = (
    # one per route pattern
    "/v2/user/app/manifests/latest",
    "/v2/user/app/manifests/{manifest}",
    "/v2/user/app/blobs/{blob}",
    "/v2/user/app/tags/list",
    "/v2/user/app/tags/v1",
    "/v2/user/app/blobs/uploads/",
    "/v2/user/app/blobs/uploads/{upload}",
    "/v2/user/app/blobs/uploads/0123abcd-ef45",
    # near-misses
    "/v2/user/app/blobs/0123abcd",
    "/v2/user/app/manifests/latest/",
    "/v2/user/app/manifests/",
    "/v2/user/app/blobs/{blob}/",
    "/v2/user/app/blobs/{blob}/extra",
    "/v2/user/app/tags/list/",
    "/v2/user/app/tags/v1/extra",
    "/v2/user/app/blobs/uploads",
    "/v2/user/app/blobs/uploads/{upload}/extra",
    "/v2/user/app/blobs/uploads/NOT-HEX",
    "/v2/_catalog/",
    "/healthz/",
    "/nowhere",
    # registry errors
    "/v2/nobody/here/manifests/latest",
    "/v2/priv/x/manifests/latest",
    "/v2/user/app/blobs/{missing}",
    # a query on a pattern route
    "/v2/user/app/manifests/latest?x=1",
    "/v2/user/app/tags/list?n=1",
    # the fixed paths, with and without a query
    "/v2",
    "/v2?x=1",
    "/v2/",
    "/v2/?x=1",
    "/healthz",
    "/healthz?x=1",
    "/metrics",
    "/metrics?x=1",
    "/search",
    "/search?q=app&page=1",
    "/v2/_catalog",
    "/v2/_catalog?n=1&last=user/app",
)

#: path -> (endpoint label, one status per method in METHODS order)
EXPECTED = {
    "/v2/user/app/manifests/latest": ("manifest", (200, 200, 404, 404, 201, 202)),
    "/v2/user/app/manifests/{manifest}": ("manifest", (200, 200, 404, 404, 201, 202)),
    "/v2/user/app/blobs/{blob}": ("blob", (200, 200, 404, 404, 404, 404)),
    "/v2/user/app/tags/list": ("tags", (200, 200, 404, 404, 404, 404)),
    "/v2/user/app/tags/v1": ("tags", (404, 404, 404, 404, 404, 202)),
    "/v2/user/app/blobs/uploads/": ("upload", (404, 404, 202, 404, 404, 404)),
    "/v2/user/app/blobs/uploads/{upload}": ("upload", (404, 404, 404, 202, 201, 404)),
    "/v2/user/app/blobs/uploads/0123abcd-ef45": ("upload", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/blobs/0123abcd": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/manifests/latest/": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/manifests/": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/blobs/{blob}/": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/blobs/{blob}/extra": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/tags/list/": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/tags/v1/extra": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/blobs/uploads": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/blobs/uploads/{upload}/extra": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/blobs/uploads/NOT-HEX": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/_catalog/": ("other", (404, 404, 404, 404, 404, 404)),
    "/healthz/": ("other", (404, 404, 404, 404, 404, 404)),
    "/nowhere": ("other", (404, 404, 404, 404, 404, 404)),
    "/v2/nobody/here/manifests/latest": ("manifest", (404, 404, 404, 404, 201, 202)),
    "/v2/priv/x/manifests/latest": ("manifest", (401, 401, 404, 404, 201, 401)),
    "/v2/user/app/blobs/{missing}": ("blob", (404, 404, 404, 404, 404, 404)),
    "/v2/user/app/manifests/latest?x=1": ("manifest", (200, 200, 404, 404, 201, 202)),
    "/v2/user/app/tags/list?n=1": ("tags", (200, 200, 404, 404, 404, 404)),
    "/v2": ("ping", (200, 200, 404, 404, 404, 404)),
    "/v2?x=1": ("ping", (200, 200, 404, 404, 404, 404)),
    "/v2/": ("ping", (200, 200, 404, 404, 404, 404)),
    "/v2/?x=1": ("ping", (200, 200, 404, 404, 404, 404)),
    "/healthz": ("healthz", (200, 200, 404, 404, 404, 404)),
    "/healthz?x=1": ("healthz", (200, 200, 404, 404, 404, 404)),
    "/metrics": ("metrics", (200, 200, 404, 404, 404, 404)),
    "/metrics?x=1": ("metrics", (200, 200, 404, 404, 404, 404)),
    "/search": ("search", (200, 200, 404, 404, 404, 404)),
    "/search?q=app&page=1": ("search", (200, 200, 404, 404, 404, 404)),
    "/v2/_catalog": ("catalog", (200, 200, 404, 404, 404, 404)),
    "/v2/_catalog?n=1&last=user/app": ("catalog", (200, 200, 404, 404, 404, 404)),
}


def build_registry() -> tuple[Registry, dict[str, str]]:
    """One image under ``user/app`` (tags ``latest`` and ``v1``) and an
    auth-gated ``priv/x``; returns the registry and the placeholders."""
    registry = Registry()
    blob = b"\x7fELF" + b"r" * 200
    digest = registry.push_blob(blob)
    manifest = Manifest(layers=(ManifestLayerRef(digest=digest, size=len(blob)),))
    registry.create_repository("user/app")
    registry.push_manifest("user/app", "latest", manifest)
    registry.push_manifest("user/app", "v1", manifest)
    registry.create_repository("priv/x", requires_auth=True)
    registry.push_manifest("priv/x", "latest", manifest)
    return registry, {
        "blob": digest, "manifest": manifest.digest(), "missing": "sha256:" + "0" * 64,
    }


def served_labels(server: RegistryHTTPServer) -> dict[tuple[str, str], float]:
    series = server.metrics.to_dict().get("registry_http_requests_total", {}).get("series", [])
    return {
        (row["labels"]["endpoint"], row["labels"]["method"]): row["value"] for row in series
    }


def probe(path: str) -> tuple[str, tuple[int, ...]]:
    """``(label, statuses)`` for every method in turn on *path*; fails if
    the methods disagree on the label."""
    registry, fills = build_registry()
    body = registry.get_manifest("user/app", "latest").to_json()
    labels, statuses = set(), []
    server = RegistryHTTPServer(registry).start()
    try:
        with Transport() as transport:
            for method in METHODS:
                target = path.format(**fills, upload=server._start_upload())
                before = served_labels(server)
                status, _, _ = transport.request(
                    server.base_url, method, target, timeout=5,
                    body=body if method in ("POST", "PATCH", "PUT") else None,
                )
                after = served_labels(server)
                (counted,) = [key for key in after if after[key] != before.get(key, 0)]
                assert counted[1] == method
                labels.add(counted[0])
                statuses.append(status)
    finally:
        server.kill()  # nothing is in flight: skip stop()'s wait for the accept poll
    (label,) = labels
    return label, tuple(statuses)


def test_the_table_covers_the_corpus():
    assert tuple(EXPECTED) == PATHS


@pytest.mark.parametrize("path", PATHS)
def test_route(path):
    assert probe(path) == EXPECTED[path]


class TestBadQueryNumbers:
    """A pagination number that is not one is a 400, never a dropped
    connection or a silently wrong page."""

    @pytest.fixture(scope="class")
    def server(self):
        with RegistryHTTPServer(build_registry()[0]) as server:
            yield server

    @pytest.mark.parametrize(
        "target",
        [
            "/v2/_catalog?n=abc",
            "/v2/_catalog?n=-1",
            "/v2/_catalog?n=1.5",
            "/search?q=x&page=abc",
            "/search?q=x&page=0",
            "/search?official=1&page=abc",
        ],
    )
    def test_answered_400_on_a_kept_connection(self, server, target):
        with Transport() as transport:
            status, _, body = transport.request(server.base_url, "GET", target, timeout=5)
            assert status == 400
            assert json.loads(body)["errors"][0]["code"] == "PAGINATION_NUMBER_INVALID"
            assert transport.request(server.base_url, "GET", "/v2/", timeout=5)[0] == 200

    @pytest.mark.parametrize("n, page", [("0", []), ("1", ["priv/x"]), ("5", ["priv/x", "user/app"])])
    def test_catalog_n_still_pages(self, server, n, page):
        with Transport() as transport:
            status, _, body = transport.request(
                server.base_url, "GET", f"/v2/_catalog?n={n}", timeout=5
            )
        assert (status, json.loads(body)["repositories"]) == (200, page)


if __name__ == "__main__":
    for path in PATHS:
        print(f"    {path!r}: {probe(path)!r},")
