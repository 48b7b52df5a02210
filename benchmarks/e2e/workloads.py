"""Corpora and the five workloads of the end-to-end benchmark.

Everything here is input generation and calls into the public functions of
``repro``; nothing under ``src/`` knows the benchmark exists. A workload is
an object with

* ``setup(env)``      -> state, built from scratch from ``env.seed`` (timed as
  ``setup_s``, repeated K times by the harness),
* ``before_pass``     -> untimed preparation of one pass (empty the cache,
  start a fresh server),
* ``run_pass``        -> the timed, fixed amount of work; returns a
  :class:`PassResult`,
* ``after_pass``      -> untimed per-pass checks (hash the bodies received),
* ``verify``          -> correctness checks after the timed phase,
* ``teardown``        -> stop servers, drop directories.

Why the corpora are cut to a *budget*: the driver (and ``run.py --aa``) gives
every run another ``--seed``, and the calibrated generator is heavy-tailed —
thirty ``tiny`` images hold 2 435 files at one seed and 6 723 at another. A
metric that moves 2.7x with the seed cannot hold a 10 % bound, so each corpus
draws more candidates than it needs from the seed and keeps a subset whose
totals (files, layers, images; calls and bytes; occurrences) land within
about a percent of a fixed budget. The seed still decides every byte, name,
digest and sharing pattern; it no longer decides how much work a pass is.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import time
import urllib.request
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.analyzer.analyzer import AnalysisResult, Analyzer
from repro.analyzer.cache import ProfileCache
from repro.core.colstream import (
    report_from_chunks,
    report_from_dataset,
    streaming_report,
)
from repro.crawler.crawler import HubCrawler
from repro.downloader.downloader import DownloadedImage, Downloader
from repro.downloader.session import SimulatedSession, TransientNetworkError
from repro.model.dataset import HubDataset
from repro.model.manifest import Manifest
from repro.parallel.pool import ParallelConfig
from repro.registry.blobstore import BlobStore, MemoryBlobStore
from repro.registry.errors import RegistryError
from repro.registry.http import HTTPSession, RegistryHTTPServer
from repro.registry.registry import Registry
from repro.registry.search import HubSearchEngine
from repro.synth.config import SyntheticHubConfig
from repro.synth.hubgen import generate_dataset
from repro.synth.materialize import GroundTruth, materialize_registry
from repro.synth.streamgen import (
    ChunkSpec,
    DatasetChunk,
    chunks_from_dataset,
    iter_dataset_chunks,
    open_chunk_store,
    spill_chunks,
)
from repro.util.rng import derive_seed

SERIAL = ParallelConfig(mode="serial", chunk_size=8, min_parallel_items=0)


@dataclass(frozen=True)
class Env:
    """What a workload may know about the run."""

    seed: int
    smoke: bool
    workdir: Path


@dataclass
class PassResult:
    """One timed pass: how much it did and what it produced."""

    items: int
    attempted: int
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    #: what the pass produced; the harness keeps it for the latest pass only
    output: object = None
    #: a digest of ``output``, kept for every pass (set by ``after_pass``)
    identity: str = ""
    #: per-client-call latencies in seconds (``serve-*`` only)
    latencies: list[float] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)


class Workload:
    """The hooks a workload need not have."""

    name: str
    item: str

    def before_pass(self, state) -> None:
        pass

    def after_pass(self, state, result: PassResult) -> None:
        pass

    def teardown(self, state) -> None:
        pass

    def floor(self, state) -> float:
        """Seconds of the bare decompression under a pass (``analyze-*``)."""
        return 0.0

    def server_metrics(self, state) -> dict[str, float] | None:
        """The server's ``/metrics`` sums by name (``serve-*``)."""
        return None


# -- budgeted selection ----------------------------------------------------------


def pick_to_budget(
    n: int,
    totals: Callable[[list[int]], tuple[float, ...]],
    budget: tuple[float, ...],
    rng: random.Random,
    *,
    rounds: int = 4000,
    tolerance: float = 0.01,
) -> list[int]:
    """A subset of ``range(n)`` whose ``totals`` land on *budget*.

    ``totals(kept)`` is evaluated on whole subsets because layer sharing makes
    an image's cost depend on what else is kept. Greedy fill in candidate
    order, then seeded local search (drop up to two, add up to two) on the
    worst relative miss over all dimensions, until every dimension is within
    *tolerance* or the rounds run out. Returns the kept candidates in order.
    """

    def miss(kept: list[int]) -> float:
        return max(abs(t / b - 1.0) for t, b in zip(totals(kept), budget))

    kept: list[int] = []
    for candidate in range(n):
        if all(t <= b for t, b in zip(totals(kept + [candidate]), budget)):
            kept.append(candidate)
    best = miss(kept)
    for _ in range(rounds):
        if best <= tolerance:
            break
        trial = list(kept)
        for _ in range(min(len(trial), rng.randrange(3))):
            trial.pop(rng.randrange(len(trial)))
        for _ in range(rng.randrange(3)):
            candidate = rng.randrange(n)
            if candidate not in trial:
                trial.append(candidate)
        if trial and (score := miss(trial)) < best:
            kept, best = trial, score
    return sorted(kept)


# -- hub corpus (real tarballs) ----------------------------------------------------

#: budget of the materialized corpus: raw file bytes, file occurrences,
#: unique layers, images (26.7 KB a file and 17 files a layer, as
#: ``SyntheticHubConfig.tiny(2017)`` has them)
HUB_BUDGET = (64e6, 2400.0, 144.0, 21.0)
HUB_BUDGET_SMOKE = (12e6, 480.0, 32.0, 8.0)
#: images drawn from the seed before the cut, ~7x what the budget keeps
HUB_CANDIDATES = 150
#: images holding a layer above this many raw bytes are not candidates: peak
#: RSS follows the largest layer (about 1.8 bytes a byte), not the totals
HUB_LARGEST_LAYER = 8e6


def hub_dataset(seed: int, smoke: bool) -> HubDataset:
    """The seeded ``tiny``-shape hub, cut to the budget."""
    full = generate_dataset(
        replace(SyntheticHubConfig.tiny(seed), n_images=HUB_CANDIDATES)
    )
    layer_bytes = full.layer_fls.tolist()
    layer_files = full.layer_file_counts.tolist()
    layers_of = [
        full.image_layer_ids[lo:hi].tolist()
        for lo, hi in zip(full.image_layer_offsets[:-1], full.image_layer_offsets[1:])
    ]
    eligible = [
        i
        for i, layers in enumerate(layers_of)
        if all(layer_bytes[l] <= HUB_LARGEST_LAYER for l in layers)
    ]

    def totals(kept: list[int]) -> tuple[float, float, float, float]:
        layers = {l for k in kept for l in layers_of[eligible[k]]}
        return (
            sum(layer_bytes[l] for l in layers),
            sum(layer_files[l] for l in layers),
            len(layers),
            len(kept),
        )

    kept = pick_to_budget(
        len(eligible),
        totals,
        HUB_BUDGET_SMOKE if smoke else HUB_BUDGET,
        random.Random(seed),
    )
    images = [eligible[k] for k in kept]
    new_id: dict[int, int] = {}  # kept layer: id in *full* -> id in the cut
    for i in images:
        for layer in layers_of[i]:
            new_id.setdefault(layer, len(new_id))
    cut = full.layer_subset(np.fromiter(new_id, dtype=np.int64, count=len(new_id)))
    offsets = np.zeros(len(images) + 1, dtype=np.int64)
    np.cumsum([len(layers_of[i]) for i in images], out=offsets[1:])
    cut = replace(
        cut,
        image_layer_offsets=offsets,
        image_layer_ids=np.asarray(
            [new_id[l] for i in images for l in layers_of[i]], dtype=np.int64
        ),
        repo_names=[full.repo_names[i] for i in images],
        pull_counts=full.pull_counts[images],
    )
    cut.validate()
    return cut


@dataclass
class Hub:
    """A materialized corpus: the registry, and what went into it."""

    dataset: HubDataset
    registry: Registry
    truth: GroundTruth

    def sizes(self) -> dict[str, int]:
        layers = self.truth.layers.values()
        return {
            "images": self.truth.n_images,
            "unique_layers": self.truth.n_unique_layers,
            "file_occurrences": sum(len(l.entries) for l in layers),
            "compressed_bytes": sum(l.compressed_size for l in layers),
            "raw_bytes": sum(e.size for l in layers for e in l.entries),
        }


def build_hub(env: Env) -> Hub:
    dataset = hub_dataset(env.seed, env.smoke)
    # fail_share=0: every repository downloads, so no operation fails by design
    registry, truth = materialize_registry(dataset, fail_share=0.0, seed=env.seed)
    return Hub(dataset, registry, truth)


def _sha256(data: bytes) -> str:
    # not ``repro.util.digest.sha256_bytes``: that one is traced, and the
    # benchmark's own checking must not show up as the repository's hashing
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _fingerprint(analysis: AnalysisResult) -> str:
    """Order-sensitive dataset identity, as ``core.bench._fingerprint``."""
    dataset = analysis.dataset
    parts = (
        analysis.n_layers,
        analysis.n_images,
        dataset.layer_fls.tolist(),
        dataset.file_sizes.tolist(),
        sorted(analysis.failed_layers),
    )
    return _sha256(repr(parts).encode())


# -- analyze-cold / analyze-warm -----------------------------------------------------


@dataclass
class AnalyzeState:
    hub: Hub
    dest: BlobStore
    images: list[DownloadedImage]
    pull_counts: dict[str, int]
    n_files: int
    n_layers: int
    #: what backs the profile cache; see ``AnalyzeCold`` for why it is memory
    cache_store: BlobStore = field(default_factory=MemoryBlobStore)

    def analyze(self, *, cached: bool = True) -> AnalysisResult:
        cache = ProfileCache(self.cache_store) if cached else None
        analyzer = Analyzer(self.dest, parallel=SERIAL, cache=cache)
        return analyzer.analyze(self.images, self.pull_counts)


class AnalyzeCold(Workload):
    """Crawl + download in set-up; each pass profiles every layer from its
    tarball into an empty profile cache.

    The cache is backed by a ``MemoryBlobStore``, not a directory: on this
    box's ext4 a small-file create costs 0.9-1.6 ms and swings by 40 % from
    one second to the next, which made 144 cache writes 10-25 % of a pass and
    pure noise no calibration sees. Framing, codec and keying are measured;
    the file system is not.
    """

    name = "analyze-cold"
    item = "file occurrences profiled"

    def setup(self, env: Env) -> AnalyzeState:
        hub = build_hub(env)
        crawl = HubCrawler(HubSearchEngine(hub.registry, seed=env.seed)).crawl()
        downloader = Downloader(
            SimulatedSession(hub.registry, seed=env.seed), parallel=SERIAL
        )
        images = downloader.download_all(crawl.repositories)
        sizes = hub.sizes()
        return AnalyzeState(
            hub=hub,
            dest=downloader.dest,
            images=images,
            pull_counts={r.name: r.pull_count for r in hub.registry.repositories()},
            n_files=sizes["file_occurrences"],
            n_layers=sizes["unique_layers"],
        )

    def sizes(self, state: AnalyzeState) -> dict[str, int]:
        return state.hub.sizes()

    def before_pass(self, state: AnalyzeState) -> None:
        state.cache_store = MemoryBlobStore()

    def run_pass(self, state: AnalyzeState) -> PassResult:
        analysis = state.analyze()
        result = PassResult(
            items=state.n_files, attempted=state.n_layers, output=analysis
        )
        for digest, why in analysis.failed_layers.items():
            result.fail(f"layer {digest[:19]} failed: {why}")
        return result

    def after_pass(self, state: AnalyzeState, result: PassResult) -> None:
        result.identity = _fingerprint(result.output)

    def verify(self, state: AnalyzeState, results: list[PassResult]) -> list[str]:
        problems: list[str] = []
        prints = {r.identity for r in results}
        if len(prints) != 1:
            problems.append(f"dataset fingerprint differs between passes: {len(prints)} values")
        problems += _check_against_truth(results[-1].output, state.hub.truth)
        if _fingerprint(self.other_temperature(state)) not in prints:
            problems.append("warm and cold analyses disagree")
        return problems

    def other_temperature(self, state: AnalyzeState) -> AnalysisResult:
        # the last cold pass left the cache full: this one is warm
        return state.analyze()

    def floor(self, state: AnalyzeState) -> float:
        """Seconds of a bare ``zlib`` decompress of the same layer blobs."""
        blobs = [state.dest.get(d) for d in state.hub.truth.layers]
        start = time.perf_counter()
        for blob in blobs:
            zlib.decompress(blob, wbits=31)
        return time.perf_counter() - start


class AnalyzeWarm(AnalyzeCold):
    """Same corpus and call; set-up also fills the profile cache, so every
    pass is served from it and extracts nothing."""

    name = "analyze-warm"

    def setup(self, env: Env) -> AnalyzeState:
        state = super().setup(env)
        state.analyze()
        return state

    def before_pass(self, state: AnalyzeState) -> None:
        pass

    def run_pass(self, state: AnalyzeState) -> PassResult:
        result = super().run_pass(state)
        stats = result.output.cache_stats
        if stats["hits"] != state.n_layers or stats["misses"] != 0:
            result.fail(f"cache not warm: {stats} for {state.n_layers} layers")
        return result

    def other_temperature(self, state: AnalyzeState) -> AnalysisResult:
        return state.analyze(cached=False)


def _check_against_truth(analysis: AnalysisResult, truth: GroundTruth) -> list[str]:
    problems: list[str] = []
    if analysis.failed_layers:
        problems.append(f"{len(analysis.failed_layers)} layers failed to extract")
    if analysis.n_layers != truth.n_unique_layers:
        problems.append(
            f"profiled {analysis.n_layers} layers, materialized {truth.n_unique_layers}"
        )
    for digest, layer in truth.layers.items():
        if not analysis.store.has_layer(digest):
            problems.append(f"layer {digest[:19]} was never profiled")
            break
        profile = analysis.store.layer(digest)
        want = (len(layer.entries), sum(e.size for e in layer.entries))
        if (profile.file_count, profile.files_size) != want:
            problems.append(
                f"layer {digest[:19]}: profiled (files, bytes) = "
                f"{(profile.file_count, profile.files_size)}, truth {want}"
            )
            break
    return problems


# -- columnar -----------------------------------------------------------------------

#: occurrences analysed per pass, and per chunk
COL_OCCURRENCES = 3_000_000
COL_CHUNK = 250_000
COL_OCCURRENCES_SMOKE = 3_000
COL_CHUNK_SMOKE = 400
#: images per generated hub. One ``bench`` hub big enough for the budget holds
#: 4.2-5.9 M occurrences depending on the seed, and peak RSS (174-247 MB)
#: followed the generator, not the engine. Hubs of 20 images (~150 k
#: occurrences) are generated one after the other until the budget is full:
#: set-up stays under 85 MB and the passes' 85-99 MB are the peak.
COL_IMAGES = 20
#: added to the file ids of the k-th hub, k times, to keep the hubs' files apart
COL_FILE_ID_STRIDE = 1 << 40


def _leading_layers(chunk: DatasetChunk, occurrences: int) -> DatasetChunk:
    """The leading whole layers of *chunk* that hold at most *occurrences*."""
    n = int(np.searchsorted(chunk.file_offsets, occurrences, side="right")) - 1
    end = int(chunk.file_offsets[n])
    return replace(
        chunk,
        layer_end=chunk.layer_start + n,
        file_offsets=chunk.file_offsets[: n + 1],
        file_ids=chunk.file_ids[:end],
        occ_sizes=chunk.occ_sizes[:end],
        occ_types=chunk.occ_types[:end],
        layer_cls=chunk.layer_cls[:n],
        layer_dir_counts=chunk.layer_dir_counts[:n],
        layer_max_depths=chunk.layer_max_depths[:n],
        layer_ref_counts=chunk.layer_ref_counts[:n],
    )


def columnar_chunks(seed: int, smoke: bool) -> Iterator[DatasetChunk]:
    """Chunks of seeded hubs, renumbered as one store, cut at the budget."""
    if smoke:
        shape, budget, per_chunk = SyntheticHubConfig.tiny(), COL_OCCURRENCES_SMOKE, COL_CHUNK_SMOKE
    else:
        shape = replace(SyntheticHubConfig.bench(), n_images=COL_IMAGES)
        budget, per_chunk = COL_OCCURRENCES, COL_CHUNK
    index = layer = taken = 0
    for hub in itertools.count():
        config = replace(shape, seed=derive_seed(seed, "columnar", hub))
        for chunk in iter_dataset_chunks(config, chunk_occurrences=per_chunk):
            full = taken + chunk.n_occurrences >= budget
            if full:
                chunk = _leading_layers(chunk, budget - taken)
            if chunk.n_occurrences:
                yield replace(
                    chunk,
                    index=index,
                    layer_start=layer,
                    layer_end=layer + chunk.n_layers,
                    file_ids=chunk.file_ids + hub * COL_FILE_ID_STRIDE,
                )
                index, layer, taken = index + 1, layer + chunk.n_layers, taken + chunk.n_occurrences
            if full:  # short of the budget by less than one layer
                return


@dataclass
class ColumnarState:
    store: Path
    specs: list[ChunkSpec]
    n_occurrences: int


class Columnar(Workload):
    """Spill a chunked synthetic hub in set-up; each pass streams the store
    through the columnar engine and serializes the report."""

    name = "columnar"
    item = "file occurrences analysed"

    def setup(self, env: Env) -> ColumnarState:
        store = env.workdir / "chunks"
        shutil.rmtree(store, ignore_errors=True)
        spill_chunks(columnar_chunks(env.seed, env.smoke), store)
        specs = open_chunk_store(store)
        return ColumnarState(store, specs, sum(s.n_occurrences for s in specs))

    def sizes(self, state: ColumnarState) -> dict[str, int]:
        return {
            "chunks": len(state.specs),
            "layers": sum(s.layer_end - s.layer_start for s in state.specs),
            "file_occurrences": state.n_occurrences,
            "store_bytes": sum(p.stat().st_size for p in state.store.iterdir()),
        }

    def run_pass(self, state: ColumnarState) -> PassResult:
        result = PassResult(items=state.n_occurrences, attempted=len(state.specs))
        try:
            result.output = streaming_report(state.specs, parallel=SERIAL).to_json()
        except RuntimeError as exc:  # streaming_report's failed-shard report
            result.failed = len(state.specs)
            result.reasons.append(str(exc))
        return result

    def after_pass(self, state: ColumnarState, result: PassResult) -> None:
        result.identity = _sha256((result.output or "").encode())

    def verify(self, state: ColumnarState, results: list[PassResult]) -> list[str]:
        problems: list[str] = []
        if len({r.identity for r in results}) != 1:
            problems.append("report JSON differs between passes")
        sizes = self.sizes(state)
        totals = json.loads(results[-1].output or "{}").get("totals", {})
        for key, want in (("occurrences", "file_occurrences"), ("layers", "layers")):
            if totals.get(key) != sizes[want]:
                problems.append(
                    f"report totals.{key} = {totals.get(key)}, chunk specs sum to {sizes[want]}"
                )
        # the streaming engine is a pure refactor of the monolithic one
        mid = generate_dataset(
            replace(SyntheticHubConfig.tiny(7), n_images=120, n_rare_types=40)
        )
        whole = report_from_dataset(mid).to_json()
        chunked = report_from_chunks(
            chunks_from_dataset(mid, chunk_occurrences=2_000)
        ).to_json()
        if whole != chunked:
            problems.append("chunked report differs from report_from_dataset at mid scale")
        return problems

    def teardown(self, state: ColumnarState) -> None:
        shutil.rmtree(state.store, ignore_errors=True)


# -- serve-pull ---------------------------------------------------------------------

#: client calls and body bytes of one pull pass
PULL_BUDGET = (400.0, 64e6)
PULL_BUDGET_SMOKE = (60.0, 8e6)
#: popularity-weighted draws the pull list is picked from
PULL_DRAWS = 300


def _timed(latencies: list[float], call: Callable, *args):
    start = time.perf_counter()
    value = call(*args)
    latencies.append(time.perf_counter() - start)
    return value


def _server_metrics(base_url: str) -> dict[str, float]:
    """Sum the server's public ``/metrics`` samples by metric name."""
    with urllib.request.urlopen(base_url + "/metrics", timeout=10.0) as response:
        text = response.read().decode()
    sums: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            name = name.split("{", 1)[0]
            sums[name] = sums.get(name, 0.0) + float(value)
    return sums


@dataclass
class PullState:
    hub: Hub
    server: RegistryHTTPServer
    session: HTTPSession
    pulls: list[str]
    calls_per_pass: int
    bytes_per_pass: int
    calls_sent: int = 0


class ServePull(Workload):
    """One closed-loop HTTP client pulls a popularity-skewed list of images:
    tag, manifest, every blob, no layer cache."""

    name = "serve-pull"
    item = "client calls"

    def setup(self, env: Env) -> PullState:
        hub = build_hub(env)
        names = hub.dataset.repo_names
        # §IV-B skew: a few repositories take most pulls. Raw pull counts
        # (650 M against a few hundred) would draw four images only, so the
        # skew is Zipf over the pull-count rank.
        by_pulls = sorted(range(len(names)), key=lambda i: -int(hub.dataset.pull_counts[i]))
        weights = [0.0] * len(names)
        for rank, i in enumerate(by_pulls, start=1):
            weights[i] = 1.0 / rank
        rng = random.Random(env.seed)
        draws = rng.choices(range(len(names)), weights, k=PULL_DRAWS)
        cost = []  # per image: (client calls, body bytes) of one pull
        for name in names:
            digests = hub.registry.get_manifest(name, "latest").layer_digests
            nbytes = sum(hub.truth.layers[d].compressed_size for d in digests)
            cost.append((2.0 + len(digests), float(nbytes)))

        def totals(kept: list[int]) -> tuple[float, float]:
            return (
                sum(cost[draws[k]][0] for k in kept),
                sum(cost[draws[k]][1] for k in kept),
            )

        budget = PULL_BUDGET_SMOKE if env.smoke else PULL_BUDGET
        kept = pick_to_budget(len(draws), totals, budget, rng)
        calls, nbytes = totals(kept)
        server = RegistryHTTPServer(hub.registry).start()
        return PullState(
            hub=hub,
            server=server,
            session=HTTPSession(server.base_url),
            pulls=[names[draws[k]] for k in kept],
            calls_per_pass=int(calls),
            bytes_per_pass=int(nbytes),
        )

    def sizes(self, state: PullState) -> dict[str, int]:
        return {
            **state.hub.sizes(),
            "pulls_per_pass": len(state.pulls),
            "distinct_images_pulled": len(set(state.pulls)),
            "calls_per_pass": state.calls_per_pass,
            "bytes_per_pass": state.bytes_per_pass,
        }

    def run_pass(self, state: PullState) -> PassResult:
        session = state.session
        result = PassResult(items=0, attempted=0)
        bodies: list[tuple[str, bytes]] = []
        latencies = result.latencies
        for repo in state.pulls:
            result.attempted += 2
            try:
                digest = _timed(latencies, session.resolve_tag, repo, "latest")
                manifest = _timed(latencies, session.get_manifest, repo, digest)
            except (RegistryError, TransientNetworkError) as exc:
                result.fail(f"pull {repo}: {type(exc).__name__}: {exc}")
                continue
            for layer in manifest.layer_digests:
                result.attempted += 1
                try:
                    bodies.append((layer, _timed(latencies, session.get_blob, layer)))
                except (RegistryError, TransientNetworkError) as exc:
                    result.fail(f"blob {layer[:19]}: {type(exc).__name__}: {exc}")
        result.items = len(latencies)
        result.output = bodies
        state.calls_sent += result.items
        return result

    def after_pass(self, state: PullState, result: PassResult) -> None:
        for digest, body in result.output:
            if _sha256(body) != digest:
                result.fail(f"blob {digest[:19]}: body does not hash to its digest")
        result.output = None  # ~64 MB of bodies

    def verify(self, state: PullState, results: list[PassResult]) -> list[str]:
        problems: list[str] = []
        if results[-1].items != state.calls_per_pass:
            problems.append(
                f"pass made {results[-1].items} calls, plan says {state.calls_per_pass}"
            )
        served = self.server_metrics(state)["registry_http_requests_total"]
        if served != state.calls_sent:
            problems.append(
                f"server counted {served:.0f} requests, client made {state.calls_sent} calls"
            )
        return problems

    def server_metrics(self, state: PullState) -> dict[str, float]:
        state.calls_sent += 1  # the server counts this request too, on receipt
        return _server_metrics(state.server.base_url)

    def requests_per_pass(self, state: PullState) -> int:
        return state.calls_per_pass

    def teardown(self, state: PullState) -> None:
        state.server.stop()


# -- serve-push ---------------------------------------------------------------------


@dataclass
class PushState:
    hub: Hub
    #: per image: repository, manifest, the blobs no earlier image pushed
    plan: list[tuple[str, Manifest, list[tuple[str, bytes]]]]
    n_calls: int
    server: RegistryHTTPServer | None = None
    session: HTTPSession | None = None


class ServePush(Workload):
    """Each pass pushes the whole corpus — every unique layer blob, then each
    manifest — into a fresh registry behind a fresh server."""

    name = "serve-push"
    item = "client calls"

    def setup(self, env: Env) -> PushState:
        hub = build_hub(env)
        plan = []
        pushed: set[str] = set()
        for name in hub.dataset.repo_names:
            manifest = hub.registry.get_manifest(name, "latest")
            fresh = [d for d in dict.fromkeys(manifest.layer_digests) if d not in pushed]
            pushed.update(fresh)
            plan.append((name, manifest, [(d, hub.registry.get_blob(d)) for d in fresh]))
        return PushState(hub, plan, n_calls=len(pushed) + len(plan))

    def sizes(self, state: PushState) -> dict[str, int]:
        return {**state.hub.sizes(), "calls_per_pass": state.n_calls}

    def before_pass(self, state: PushState) -> None:
        self.teardown(state)
        state.server = RegistryHTTPServer(Registry()).start()
        state.session = HTTPSession(state.server.base_url)

    def run_pass(self, state: PushState) -> PassResult:
        session = state.session
        result = PassResult(items=0, attempted=state.n_calls)
        latencies = result.latencies
        for name, manifest, blobs in state.plan:
            try:
                for digest, blob in blobs:
                    if _timed(latencies, session.push_blob, blob) != digest:
                        result.fail(f"push blob {digest[:19]}: stored under another digest")
                _timed(latencies, session.push_manifest, name, "latest", manifest)
            except (RegistryError, TransientNetworkError) as exc:
                # the manifest cannot land without its blobs: the image fails
                result.fail(f"push {name}: {type(exc).__name__}: {exc}")
        result.items = len(latencies)
        return result

    def after_pass(self, state: PushState, result: PassResult) -> None:
        registry = state.server.registry
        want = {d for _, manifest, _ in state.plan for d in manifest.layer_digests}
        if registry.unique_layer_digests() != want:
            result.fail("registry's layer digests differ from the push plan")
        if registry.manifest_count() != len({m.digest() for _, m, _ in state.plan}):
            result.fail(
                f"registry holds {registry.manifest_count()} manifests, "
                f"plan pushed {len(state.plan)}"
            )

    def verify(self, state: PushState, results: list[PassResult]) -> list[str]:
        if results[-1].items != state.n_calls:
            return [f"pass made {results[-1].items} calls, plan says {state.n_calls}"]
        return []

    def server_metrics(self, state: PushState) -> dict[str, float]:
        return _server_metrics(state.server.base_url)

    def requests_per_pass(self, state: PushState) -> int:
        # a blob push is two requests: POST opens the upload, PUT finishes it
        return state.n_calls + sum(len(blobs) for _, _, blobs in state.plan)

    def teardown(self, state: PushState) -> None:
        if state.server is not None:
            state.server.stop()
            state.server = state.session = None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (AnalyzeCold(), AnalyzeWarm(), Columnar(), ServePull(), ServePush())
}
