"""Simulated registry network session.

The paper pulled 47 TB over ~30 days; we obviously do not sleep for real,
but the *accounting* of a network matters for the ablation experiments
(pull-latency modeling) and for exercising the downloader's retry logic. A
session wraps a registry with:

* virtual latency accounting (per-request overhead + bandwidth term),
* transient-failure injection with deterministic seeding,
* request/byte counters.

Auth failures are NOT injected here — they are a property of the repository
(``requires_auth``) and surface as :class:`AuthRequiredError` from the
registry itself, exactly as a 401 would.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.model.manifest import Manifest
from repro.registry.registry import Registry
from repro.util.rng import seeded_uniform


class TransientNetworkError(Exception):
    """A retryable failure (connection reset, 5xx)."""


class RateLimitedError(TransientNetworkError):
    """A 429: retryable, but the server named its price (``Retry-After``)."""

    def __init__(self, message: str = "rate limited", *, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class NetworkModel:
    """Virtual-time cost model for registry requests.

    Defaults approximate a well-connected crawler node: 80 ms request
    overhead, 30 MB/s effective per-connection throughput.
    """

    request_overhead_s: float = 0.080
    bandwidth_bytes_per_s: float = 30e6
    transient_failure_rate: float = 0.0

    def cost(self, nbytes: int) -> float:
        return self.request_overhead_s + nbytes / self.bandwidth_bytes_per_s


class SimulatedSession:
    """Thread-safe registry client with failure injection and accounting."""

    def __init__(
        self,
        registry: Registry,
        model: NetworkModel | None = None,
        *,
        seed: int = 0,
        token: str | None = None,
    ):
        self.registry = registry
        self.model = model or NetworkModel()
        self.token = token
        self._seed = seed
        self._lock = threading.Lock()
        self._fail_counts: dict[tuple[str, str], int] = {}
        self.requests = 0
        self.bytes_transferred = 0
        self.virtual_seconds = 0.0
        self.transient_failures = 0

    def _account(self, nbytes: int) -> None:
        with self._lock:
            self.requests += 1
            self.bytes_transferred += nbytes
            self.virtual_seconds += self.model.cost(nbytes)

    def _maybe_fail(self, op: str, key: str) -> None:
        """Fail the ``k``-th request for ``(op, key)`` iff a draw that is a
        pure function of ``(seed, op, key, k)`` lands under the configured
        rate — so which requests fail never depends on how concurrent
        threads interleaved their draws."""
        if self.model.transient_failure_rate <= 0:
            return
        with self._lock:
            k = self._fail_counts.get((op, key), 0)
            self._fail_counts[(op, key)] = k + 1
        if seeded_uniform(self._seed, "transient", op, key, k) < self.model.transient_failure_rate:
            with self._lock:
                self.transient_failures += 1
                self.virtual_seconds += self.model.request_overhead_s
            raise TransientNetworkError(f"injected transient failure ({op} {key})")

    # -- the registry API surface the downloader uses -------------------------

    def resolve_tag(self, repo: str, tag: str) -> str:
        self._maybe_fail("manifest", f"{repo}:{tag}")
        digest = self.registry.resolve_tag(repo, tag, token=self.token)
        self._account(0)
        return digest

    def list_tags(self, repo: str) -> list[str]:
        self._maybe_fail("tags", repo)
        tags = self.registry.list_tags(repo, token=self.token)
        self._account(sum(len(t) for t in tags))
        return tags

    def get_manifest(self, repo: str, reference: str) -> Manifest:
        self._maybe_fail("manifest", f"{repo}:{reference}")
        _, data = self.registry.get_manifest_bytes(repo, reference, token=self.token)
        self._account(len(data))
        return Manifest.from_json(data)

    def get_manifest_conditional(
        self, repo: str, reference: str, *, etag: str | None = None
    ) -> tuple[Manifest | None, str | None]:
        """Conditional manifest GET, mirroring
        :meth:`~repro.registry.http.HTTPSession.get_manifest_conditional`:
        ``(None, etag)`` models a 304 — one request-overhead of virtual time,
        zero payload bytes — while a changed (or unknown) tag pays the full
        manifest transfer. The ETag is the manifest digest, as the HTTP
        server quotes it.
        """
        self._maybe_fail("manifest", f"{repo}:{reference}")
        digest, data = self.registry.get_manifest_bytes(repo, reference, token=self.token)
        if etag is not None and etag.strip().strip('"') == digest:
            self._account(0)
            return None, etag
        self._account(len(data))
        return Manifest.from_json(data), f'"{digest}"'

    def get_blob(self, digest: str) -> bytes:
        self._maybe_fail("blob", digest)
        blob = self.registry.get_blob(digest)
        self._account(len(blob))
        return blob

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "requests": self.requests,
                "bytes_transferred": self.bytes_transferred,
                "virtual_seconds": self.virtual_seconds,
                "transient_failures": self.transient_failures,
            }
