"""Per-layer tracing from outside: wrap public callables, record spans.

``LAYER_FUNCS`` is the one table of what is traced. :class:`Tracer` wraps
each listed callable where it lives — and, for module-level functions, in
every importer's namespace, because ``from x import f`` copies the binding —
records one in-memory span per call (name, start, end, parent, pass, value),
and puts everything back on :meth:`Tracer.uninstall`. No file under ``src/``
is edited; a listed callable that no longer exists is reported in
``Tracer.missing`` and its metrics read 0 rather than failing the run.

A span's *value* is whatever the table's third column extracts from the call
(bytes moved, cache hit, layers failed); ``self_s`` is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: pass id of spans recorded during set-up
SETUP = -1
#: spans the harness opens itself; a traced call directly under one is top level
HARNESS_SPANS = ("setup", "prepare", "pass")


def _blob_bytes(args, kwargs, result) -> int:
    return len(result)


def _argument_bytes(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["data"])


def _store_entry_bytes(args, kwargs, result) -> int:
    cache, profile = args[0], args[1]
    return cache.store.size(cache.key(profile.digest))


def _files_bytes(args, kwargs, result) -> int:
    return sum(len(content) for _, content in result)


def _spilled_bytes(args, kwargs, result) -> int:
    return sum(os.path.getsize(spec.path) for spec in result)


#: (span name, "module:attribute" or "module:Class.attribute", value extractor)
LAYER_FUNCS: list[tuple[str, str, Callable | None]] = [
    # set-up of the hub corpora
    ("synth.generate_dataset", "repro.synth.hubgen:generate_dataset", None),
    (
        "synth.materialize_registry",
        "repro.synth.materialize:materialize_registry",
        lambda a, k, r: r[0].blobs.total_bytes(),
    ),
    ("crawler.crawl", "repro.crawler.crawler:HubCrawler.crawl", None),
    (
        "downloader.download_all",
        "repro.downloader.downloader:Downloader.download_all",
        lambda a, k, r: a[0].stats.layer_bytes_fetched,
    ),
    # analyze-*
    ("analyzer.analyze", "repro.analyzer.analyzer:Analyzer.analyze", None),
    (
        "analyzer.profile_cache.get",
        "repro.analyzer.cache:ProfileCache.get",
        lambda a, k, r: int(r is not None),
    ),
    ("analyzer.profile_cache.put", "repro.analyzer.cache:ProfileCache.put", _store_entry_bytes),
    ("analyzer.build_shards", "repro.analyzer.shard:build_shards", None),
    ("parallel.map_shards", "repro.parallel.pool:map_shards", None),
    (
        "analyzer.profile_shard",
        "repro.analyzer.shard:profile_shard",
        lambda a, k, r: len(r.failures),
    ),
    ("registry.blobstore.get", "repro.registry.blobstore:MemoryBlobStore.get", _blob_bytes),
    ("registry.blobstore.get", "repro.registry.blobstore:DiskBlobStore.get", _blob_bytes),
    ("analyzer.extract_and_profile", "repro.analyzer.extract:extract_and_profile", None),
    (
        "registry.tarball.extract_layer_tarball",
        "repro.registry.tarball:extract_layer_tarball",
        _files_bytes,
    ),
    ("util.digest.sha256_bytes", "repro.util.digest:sha256_bytes", _argument_bytes),
    ("filetypes.classify_bytes", "repro.filetypes.classifier:classify_bytes", None),
    ("analyzer.profile_store.add", "repro.analyzer.profiles:ProfileStore.add_layer", None),
    ("analyzer.profile_store.add", "repro.analyzer.profiles:ProfileStore.add_image", None),
    ("analyzer.profile_store.to_dataset", "repro.analyzer.profiles:ProfileStore.to_dataset", None),
    # columnar
    ("synth.streamgen.iter_dataset_chunks", "repro.synth.streamgen:iter_dataset_chunks", None),
    ("synth.streamgen.spill_chunks", "repro.synth.streamgen:spill_chunks", _spilled_bytes),
    (
        "synth.streamgen.chunk_load",
        "repro.synth.streamgen:ChunkSpec.load",
        lambda a, k, r: os.path.getsize(a[0].path),
    ),
    ("core.colstream.partial_from_chunk", "repro.core.colstream:partial_from_chunk", None),
    ("core.colstream.merge_partials", "repro.core.colstream:merge_partials", None),
    ("core.colstream.finalize_report", "repro.core.colstream:finalize_report", None),
    ("core.colstream.streaming_report", "repro.core.colstream:streaming_report", None),
    # serve-*: the client calls ...
    ("registry.http.server_start", "repro.registry.http:RegistryHTTPServer.__init__", None),
    ("registry.http.server_start", "repro.registry.http:RegistryHTTPServer.start", None),
    ("registry.http.resolve_tag", "repro.registry.http:HTTPSession.resolve_tag", None),
    ("registry.http.get_manifest", "repro.registry.http:HTTPSession.get_manifest", None),
    ("registry.http.get_blob", "repro.registry.http:HTTPSession.get_blob", _blob_bytes),
    ("registry.http.push_blob", "repro.registry.http:HTTPSession.push_blob", lambda a, k, r: len(a[1])),
    ("registry.http.push_manifest", "repro.registry.http:HTTPSession.push_manifest", None),
    # ... and the registry underneath the server, on its handler threads
    ("registry.registry.get_blob", "repro.registry.registry:Registry.get_blob", None),
    ("registry.registry.get_manifest", "repro.registry.registry:Registry.get_manifest", None),
    ("registry.registry.push_blob", "repro.registry.registry:Registry.push_blob", None),
    ("registry.registry.push_manifest", "repro.registry.registry:Registry.push_manifest", None),
]

CLIENT_CALLS = ("resolve_tag", "get_manifest", "get_blob", "push_blob", "push_manifest")
REGISTRY_CALLS = ("get_blob", "get_manifest", "push_blob", "push_manifest")


class Tracer:
    """Installs the wrappers and holds the spans they record."""

    def __init__(self, rebind_in: tuple[str, ...] = ("repro",)):
        #: [name, start, end, parent index or -1, pass id, value or None]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.current_pass = SETUP
        self._rebind_in = rebind_in
        self._stack = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []
        self._index: tuple | None = None

    # -- recording -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack.__dict__.setdefault("spans", [])
        span = [name, 0.0, None, stack[-1] if stack else -1, self.current_pass, None]
        with self._lock:  # server handler threads record spans too
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.spans.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the harness itself (``setup``, ``pass``)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, original: Callable, value_of: Callable | None) -> Callable:
        if inspect.isgeneratorfunction(original):
            # the work of a generator happens in next(), not in the call
            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                while True:
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if value_of is not None:
                self.spans[index][5] = value_of(args, kwargs, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, target, value_of in LAYER_FUNCS:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            wrapper = self._wrap(name, original, value_of)
            if inspect.isclass(owner):
                self._set(owner.__dict__.get(attribute), owner, attribute, wrapper)
            else:
                for namespace in self._importers(original):
                    for key in [k for k, v in namespace.items() if v is original]:
                        namespace[key] = wrapper
                        self._undo.append(
                            functools.partial(namespace.__setitem__, key, original)
                        )

    def _set(self, own, owner: type, attribute: str, wrapper: Callable) -> None:
        setattr(owner, attribute, wrapper)
        if own is None:  # inherited: removing ours uncovers the base's again
            self._undo.append(functools.partial(delattr, owner, attribute))
        else:
            self._undo.append(functools.partial(setattr, owner, attribute, own))

    def _importers(self, original: Callable) -> list[dict]:
        return [
            vars(module)
            for module_name, module in list(sys.modules.items())
            if module is not None
            and module_name.split(".")[0] in self._rebind_in
            and any(v is original for v in vars(module).values())
        ]

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading -------------------------------------------------------------------

    def dump(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, pass, value."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def layer(self, name: str, *, setup: bool = False) -> "LayerStats":
        """Statistics of one span name: the mean over the traced passes, or
        with *setup* the total of the single traced set-up."""
        if self._index is None:  # built once, after the last span is in
            by_name: dict[str, list[int]] = {}
            child_time: dict[int, float] = {}
            for i, (span_name, start, end, parent, _, _) in enumerate(self.spans):
                if end is not None:
                    by_name.setdefault(span_name, []).append(i)
                    child_time[parent] = child_time.get(parent, 0.0) + end - start
            passes = len({s[4] for s in self.spans if s[4] != SETUP})
            self._index = (by_name, child_time, max(1, passes))
        by_name, child_time, passes = self._index
        chosen = [i for i in by_name.get(name, []) if (self.spans[i][4] == SETUP) == setup]
        if setup:
            passes = 1
        durations = [self.spans[i][2] - self.spans[i][1] for i in chosen]
        top_level = [
            d
            for i, d in zip(chosen, durations)
            if self.spans[i][3] < 0 or self.spans[self.spans[i][3]][0] in HARNESS_SPANS
        ]
        return LayerStats(
            calls=len(chosen) / passes,
            busy_s=sum(durations) / passes,
            self_s=(sum(durations) - sum(child_time.get(i, 0.0) for i in chosen)) / passes,
            value=sum(self.spans[i][5] or 0 for i in chosen) / passes,
            top_level_s=sum(top_level) / passes,
            durations=durations,
        )


@dataclass
class LayerStats:
    calls: float
    busy_s: float
    #: busy time minus the time of direct child spans
    self_s: float
    #: sum of what the table's extractor returned (bytes, hits, failures)
    value: float
    #: busy time of the spans not nested in another traced call, so that
    #: ``resolve_tag`` -> ``get_manifest`` is not counted twice
    top_level_s: float
    durations: list[float]

    def percentile_ms(self, q: float) -> float:
        if not self.durations:
            return 0.0
        ordered = sorted(self.durations)
        return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer,
    *,
    floor_s: float,
    server_requests: float,
    server_handler_s: float,
    failed_ops: float,
    overhead_ratio: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json``: name -> (value, unit).

    Set-up layers (generation, materialization, crawl, download, spill, server
    start) read the one traced set-up; every other layer reads the mean of the
    traced passes. A layer the workload never enters reads 0: the wrapper was
    in place and recorded no call.
    """
    L = tracer.layer
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    for name in ("synth.generate_dataset", "crawler.crawl"):
        put(f"{name}.busy_s", L(name, setup=True).busy_s, "s")
    for name in ("synth.materialize_registry", "downloader.download_all"):
        put(f"{name}.busy_s", L(name, setup=True).busy_s, "s")
        put(f"{name}.bytes", L(name, setup=True).value, "B")

    analyze = L("analyzer.analyze")
    put("analyzer.analyze.busy_s", analyze.busy_s, "s")
    put("analyzer.analyze.self_s", analyze.self_s, "s")
    get, store = L("analyzer.profile_cache.get"), L("analyzer.profile_cache.put")
    put("analyzer.profile_cache.get.calls", get.calls, "count")
    put("analyzer.profile_cache.get.busy_s", get.busy_s, "s")
    put("analyzer.profile_cache.hit_ratio", ratio(get.value, get.calls), "ratio")
    put("analyzer.profile_cache.put.calls", store.calls, "count")
    put("analyzer.profile_cache.put.busy_s", store.busy_s, "s")
    put("analyzer.profile_cache.put.bytes", store.value, "B")
    put("analyzer.build_shards.busy_s", L("analyzer.build_shards").busy_s, "s")
    put("parallel.map_shards.busy_s", L("parallel.map_shards").busy_s, "s")
    put("parallel.map_shards.self_s", L("parallel.map_shards").self_s, "s")
    put("analyzer.profile_shard.failed", L("analyzer.profile_shard").value, "count")
    blob_get = L("registry.blobstore.get")
    put("registry.blobstore.get.calls", blob_get.calls, "count")
    put("registry.blobstore.get.busy_s", blob_get.busy_s, "s")
    put("registry.blobstore.get.bytes", blob_get.value, "B")
    extract = L("analyzer.extract_and_profile")
    put("analyzer.extract_and_profile.calls", extract.calls, "count")
    put("analyzer.extract_and_profile.busy_s", extract.busy_s, "s")
    put("analyzer.extract_and_profile.self_s", extract.self_s, "s")
    tarball = L("registry.tarball.extract_layer_tarball")
    put("registry.tarball.extract_layer_tarball.busy_s", tarball.busy_s, "s")
    put("registry.tarball.extract_layer_tarball.bytes_out", tarball.value, "B")
    put("registry.tarball.gunzip_floor_s", floor_s, "s")
    put("registry.tarball.walk_overhead_ratio", ratio(tarball.busy_s, floor_s), "ratio")
    sha = L("util.digest.sha256_bytes")
    put("util.digest.sha256_bytes.calls", sha.calls, "count")
    put("util.digest.sha256_bytes.busy_s", sha.busy_s, "s")
    put("util.digest.sha256_bytes.bytes", sha.value, "B")
    put("filetypes.classify_bytes.calls", L("filetypes.classify_bytes").calls, "count")
    put("filetypes.classify_bytes.busy_s", L("filetypes.classify_bytes").busy_s, "s")
    put("analyzer.profile_store.add.busy_s", L("analyzer.profile_store.add").busy_s, "s")
    put(
        "analyzer.profile_store.to_dataset.busy_s",
        L("analyzer.profile_store.to_dataset").busy_s,
        "s",
    )

    put(
        "synth.streamgen.iter_dataset_chunks.busy_s",
        L("synth.streamgen.iter_dataset_chunks", setup=True).busy_s,
        "s",
    )
    spill = L("synth.streamgen.spill_chunks", setup=True)
    put("synth.streamgen.spill_chunks.busy_s", spill.busy_s, "s")
    put("synth.streamgen.spill_chunks.bytes", spill.value, "B")
    load = L("synth.streamgen.chunk_load")
    put("synth.streamgen.chunk_load.calls", load.calls, "count")
    put("synth.streamgen.chunk_load.busy_s", load.busy_s, "s")
    put("synth.streamgen.chunk_load.bytes", load.value, "B")
    partial = L("core.colstream.partial_from_chunk")
    put("core.colstream.partial_from_chunk.calls", partial.calls, "count")
    put("core.colstream.partial_from_chunk.busy_s", partial.busy_s, "s")
    put("core.colstream.merge_partials.busy_s", L("core.colstream.merge_partials").busy_s, "s")
    put("core.colstream.finalize_report.busy_s", L("core.colstream.finalize_report").busy_s, "s")
    report = L("core.colstream.streaming_report")
    put("core.colstream.streaming_report.busy_s", report.busy_s, "s")
    put("core.colstream.streaming_report.self_s", report.self_s, "s")

    # serve-pull starts its server once, in set-up; serve-push before every pass
    start = L("registry.http.server_start", setup=True).busy_s or L("registry.http.server_start").busy_s
    put("registry.http.server_start.busy_s", start, "s")
    client_s = 0.0
    for call in CLIENT_CALLS:
        stats = L(f"registry.http.{call}")
        client_s += stats.top_level_s
        put(f"registry.http.{call}.calls", stats.calls, "count")
        put(f"registry.http.{call}.busy_s", stats.busy_s, "s")
        put(f"registry.http.{call}.p50_ms", stats.percentile_ms(0.50), "ms")
        put(f"registry.http.{call}.p99_ms", stats.percentile_ms(0.99), "ms")
        if call in ("get_blob", "push_blob"):
            put(f"registry.http.{call}.bytes", stats.value, "B")
    put("registry.http.failed", failed_ops, "count")
    registry_s = 0.0
    for call in REGISTRY_CALLS:
        stats = L(f"registry.registry.{call}")
        registry_s += stats.busy_s
        put(f"registry.registry.{call}.busy_s", stats.busy_s, "s")
    put("registry.http.server_requests", server_requests, "count")
    put("registry.http.server_handler_s", server_handler_s, "s")
    put("registry.http.transport_s", client_s - server_handler_s, "s")
    put("registry.http.overhead_ratio", ratio(client_s, registry_s), "ratio")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out
