"""Generate docs/API.md from the package's docstrings.

Run:  python tools/gen_api_docs.py [--out docs/API.md]

Walks every ``repro`` module, collecting module docstrings plus the public
classes/functions named in ``__all__`` (or all public names when ``__all__``
is absent), and renders a single markdown reference. No dependencies beyond
the standard library — the same offline constraint as the rest of the repo.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro


def iter_modules() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*undocumented*"
    return inspect.cleandoc(doc).split("\n\n")[0].strip()


def signature_of(obj) -> str:
    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(…)"
    # a function default renders with its id(), which changes every run
    return re.sub(r" at 0x[0-9a-f]+>", ">", signature)


def public_members(module) -> list[tuple[str, object]]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        defined_in = getattr(obj, "__module__", None)
        if defined_in != module.__name__:
            continue  # re-exports documented at their home
        out.append((name, obj))
    return out


def render_member(name: str, obj) -> list[str]:
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"#### class `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(obj.__doc__))
        lines.append("")
        for method_name, method in sorted(vars(obj).items()):
            if method_name.startswith("_"):
                continue
            if isinstance(method, (classmethod, staticmethod)):
                method = method.__func__
            if inspect.isfunction(method):
                lines.append(
                    f"- `{method_name}{signature_of(method)}` — "
                    + first_paragraph(method.__doc__).replace("\n", " ")
                )
            elif isinstance(method, property):
                lines.append(
                    f"- `{method_name}` *(property)* — "
                    + first_paragraph(method.__doc__).replace("\n", " ")
                )
        lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"#### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(obj.__doc__))
        lines.append("")
    return lines


#: hand-maintained narrative sections rendered ahead of the module listing
_GUIDES = [
    (
        "Observability & load testing",
        """\
The serving stack reports into one metrics core, `repro.obs`: `Counter`,
`Gauge`, log-bucketed `Histogram` (p50/p90/p99/max), and a labeled
`MetricsRegistry` with dict/JSON export and Prometheus text rendering.
`RegistryHTTPServer` counts and times every request per endpoint and
exports the result at `/metrics`; `Downloader` counts fetches and retries;
`CachingProxySession` counts hits, misses, coalesced requests, and
evictions.

`repro.loadgen` turns a `PullTrace` into the request stream a registry
would see (manifest GET + cold-client layer GETs via
`requests_from_trace`) and drives it with `LoadGenerator` — closed-loop
worker fleets or open-loop Poisson arrivals, against `SimulatedSession`,
`CachingProxySession`, or `HTTPSession`. Sessions with a `NetworkModel`
run under a deterministic virtual-time executor (same seed, same
`LoadReport`); HTTP sessions are measured on the wall clock. Entry points:
`repro loadtest --seed 3 [--proxy] [--open] [--http]`,
`examples/loadtest_study.py`, and the `serve-pull` workload of
`benchmarks/e2e`.""",
    ),
    (
        "Fault injection & resilience",
        """\
`repro.faults` injects deterministic failures into any session or the live
HTTP registry. A `FaultInjector` evaluates an ordered list of `FaultRule`s
per request; every draw is a pure function of (seed, rule, op, key, visit
count), so the same seed produces the same weather regardless of thread
interleaving. Rule kinds: `server_error` (503), `rate_limit` (429 with a
`Retry-After` header), `flap` (connection drop mid-request), `latency`
(seeded delay up to `latency_s`), `truncate` and `corrupt` (payload
mutation that must fail digest verification). Each rule fires at a `rate`,
optionally only for some ops (`manifest`, `blob`, `tags`, `ping`), and
under a `Schedule` — `always()`, one `burst(start, length)`, or periodic
`flapping(period, active)`. Wrap a client with `FaultInjectingSession`
(errors raised before the upstream is touched) or hand the injector to
`RegistryHTTPServer(fault_injector=...)` to fault real HTTP responses;
`/metrics` is never faulted. `build_plan("smoke")` bundles a mixed-weather
plan; `plan_names()` lists the rest.

The pull pipeline is hardened to survive that weather. `Downloader`
verifies every blob digest and quarantines-and-refetches mismatches
(`corrupt_blobs` in its stats; zero corrupted bytes are ever accepted),
honors `Retry-After` on `RateLimitedError`, retries transient errors with
seeded exponential backoff (`RetryPolicy`), enforces an optional
per-image `deadline_s` budget, and routes attempts through a per-host
`CircuitBreaker` — closed → open after `failure_threshold` consecutive
failures, open → half-open after `cooldown_s` (a probe quota admits test
requests; a probe success closes, a failure reopens). An open circuit
consumes a retry attempt *without* touching the upstream and counts
`breaker_fast_failures`.

Long runs checkpoint through `JournalFile`, an atomic (tmp + rename) JSON
journal. `HubCrawler.crawl(checkpoint=CrawlCheckpoint(...))` saves after
every page (`repositories`, `raw_result_count`, `duplicate_count`,
`pages_fetched`, `official_count`, `next_page`, `done`), so a killed crawl
resumes at the exact page with no double-counted §III-A accounting.
`download_with_checkpoint(...)` journals per-repo `outcomes`, the stats
snapshot, the `fetched` digest list, and a `finished` bit; on resume it
restores stats wholesale and marks fetched digests as already-have, so a
layer pulled before the kill counts as a duplicate hit afterwards —
kill + resume yields the same final summary as an uninterrupted run.

`repro chaos --seed 7 --plan smoke` drives the whole stack — synthetic
hub → checkpointed crawl → fault-injected checkpointed pull → loadgen —
and asserts invariants (no corrupt blob accepted, accounting reconciles,
every repo pulled, metrics agree); the exit code is 1 on any violation.
`--kill-after N --journal DIR` simulates a crash; rerunning resumes and
must converge to the uninterrupted report. The whole run is virtual-time
deterministic: same seed, byte-identical report across processes.""",
    ),
    (
        "Operating a replicated registry",
        """\
`repro.ha` turns the single registry server into a small highly-available
deployment. `RegistryReplicaSet.from_source(registry, n)` stamps out *n*
`RegistryHTTPServer` replicas over **independent** blob stores (separate
failure domains), fans writes out to every live replica, and reconciles
divergence with `sync()` — a pairwise anti-entropy pass that unions
metadata and copies missing blobs only through digest-verified donors, so
a rotted copy is never propagated (`corrupt_donors_skipped`).

Clients talk to one address: `FailoverFrontend`, an HTTP load balancer
that round-robins reads across live replicas and retries idempotent GETs
on the next replica when one answers with a connection error or a hard
5xx (404s and auth errors are authoritative and forwarded as-is). The
frontend re-hashes every blob body against the digest in the URL before
forwarding — a corrupt copy is blocked at the edge, counted
(`frontend_corrupt_blocked_total`), and fetched from a healthy peer
instead; zero corrupt bytes ever reach a client. Writes stick to one
primary, because upload sessions are per-server state. Liveness is
tracked by a `HealthMonitor`: active probes (`/v2/` + `/healthz`) and
passive data-path failures both count toward ejection after
`eject_after` consecutive strikes, but an ejected replica is reinstated
*only* by `reinstate_after` consecutive **probe** successes — passive
evidence can't vouch for a replica that receives no traffic.

Each replica protects itself under overload. `ServerLimits` bundles an
`AdmissionGate` (bounded concurrency + bounded wait queue; excess sheds
`503` with an honest `Retry-After`), a per-client `TokenBucketLimiter`
(`429`, keyed on `X-Client-Id` or source address), a `max_body_bytes`
cap (`411` without a `Content-Length`, `413` past the cap, refused
before the body is read), and a TTL that garbage-collects abandoned
upload sessions. `stop()` drains gracefully: readiness (`/healthz`)
flips to 503 so the frontend routes away, in-flight requests finish,
then the socket closes. `/metrics` and `/healthz` bypass every limit.

At-rest rot is the scrubber's job: `BlobScrubber.scrub_replica_set(...)`
re-hashes every stored blob, quarantines mismatches (the bad bytes stop
being addressable), and repairs each from a digest-verified peer copy,
reporting `scanned/corrupt/repaired/unrepairable`. Inject the fault it
exists for with `repro.faults.corrupt_at_rest` /
`corrupt_some_at_rest` (deterministic single-bit flips).

`repro cluster --replicas 3 --seed 7` exercises the whole story: phase A
serves healthy traffic, then one replica is killed and blobs on another
are rotted at rest; phase B must keep answering through failover with
the corruption blocked at the edge; the scrubber repairs the rot, the
killed replica restarts, anti-entropy converges it, probes reinstate it;
phase C verifies the healed cluster (including a blob written during the
outage). The run asserts invariants — zero corrupt blobs served, ≥99%
GET success after retries, rot detected *and* repaired, replicas
converged, the dead replica reinstated — and exits 1 on any violation;
the seeded core of the report is byte-identical across runs. Add
`--overload` for the second exercise: open-loop arrivals far past
capacity against a limits-protected server, asserting the server sheds
rather than melts and the p99 of handled requests stays bounded.""",
    ),
    (
        "Sharding the digest space",
        """\
Full replication buys availability at N× the storage bill. The Docker
Hub corpus is ~1 PB *deduplicated* — no single box holds it — so
`repro.ha.ring` + `repro.ha.sharded` place each blob on **k of N**
replicas instead of all of them, keeping the failover story while the
cluster's unique capacity grows like N/k.

`HashRing(members, seed=...)` hashes `vnodes` virtual tokens per member
(`derive_seed(seed, "vnode", name, i)`) onto a ring; a blob's point is
`derive_seed(seed, "blob", digest)` and its **owner set** is the first k
distinct members walking clockwise. The ring is a pure function of
`(seed, members)`: every process that knows both computes identical
placement, no coordination service needed. `compute_placement` bounds
the load the walk alone can't: blobs above a size cutoff are placed
largest-first onto the least-loaded of their walk candidates, which is
what holds the measured `capacity_ratio` (unique bytes over the largest
per-replica footprint) near the N/k ideal instead of letting one hot
token eat the gain. `placement_diff(old, new)` returns exactly the blobs
whose owner set changed — the contract live rebalancing is audited
against.

`ShardedReplicaSet.from_source(registry, n, k=2, seed=...)` stamps out
the servers and copies each blob to its k owners only. Writes go through
`put_blob`: attempt all k owners, succeed at quorum (`k//2 + 1`), and
park a **hinted handoff** on the ring successor for any dead owner —
`deliver_hints()` repatriates the bytes (digest-verified) when the owner
returns, and `sync()` runs shard-aware anti-entropy: every blob's owner
set converges, strays (copies on non-owners that aren't parked hints)
are collected, corrupt donors are skipped. `join(name)` / `leave(name)`
rebalance live: recompute the ring, move only the `placement_diff`
blobs, verify every move by digest (leave refuses to drop below k
holders — it hands off first, then retires). `audit_placement()` checks
the disk against the ring and is asserted in the exercise.

The `FailoverFrontend` stays the single client address: constructed with
`route=cluster.route`, blob GETs try the k owners in ring order (spares
— ring successor, hint holders — after), and a routed 404 is
failover-worthy rather than authoritative, because any single owner may
legitimately lack the blob mid-rebalance. Reads stay uniform via a
seeded per-request offset (`derive_seed(seed, "read", n)`), which also
keeps replay runs byte-identical. The scrubber gains the same awareness:
`scrub_sharded_set` repairs a rotted copy from the blob's *co-owners*
(falling back to any holder), not from replicas that never stored it.

`repro cluster --sharded --replicas 6 --k 2 --seed 7` runs the sharded
exercise: phase A healthy traffic; phase B kills one replica and rots
blobs on another — served through surviving owners, a degraded write
parks a hint; phase C flaps a third replica under traffic; phase D joins
a fresh replica and retires another while pulls continue. On top of the
six full-replication invariants it asserts: every blob stays readable
while ≥1 owner lives; placement matches the ring after rebalancing;
join/leave moved only the owner-set diff; and the capacity ratio clears
`0.83 × N/k` (measured ≈2.86 at N=6, k=2 — against 1.0 for full
replication). Exit 1 on any violation; the seeded report core is
byte-identical across runs.""",
    ),
    (
        "Churn and garbage collection",
        """\
A registry that only ever grows never faces its hardest problem:
deletion in a replicated system that actively resurrects missing data.
`repro.synth.churn` supplies the forcing function — `ChurnEngine`
evolves a materialized hub over simulated epochs as a pure function of
`(seed, epochs, params)`: version pushes that archive `latest` under the
next `v<n>` tag, retargets, tag deletions, and community leaf-repo
death, each epoch emitting a `ChurnDelta` (tags added/removed/
retargeted, repos dropped, blobs/manifests newly orphaned with byte
totals). The engine owns its view of the hub and never reads back from
the written registry, so the op stream is identical no matter what
faults the target suffers. `DELETE /v2/<name>/manifests/<ref>` and
`DELETE /v2/<name>/tags/<tag>` expose tag removal over HTTP (202: the
mapping is gone now, the bytes await GC), with per-endpoint metrics like
every other verb.

Reclamation is `repro.registry.gc`. `GarbageCollector` runs a two-phase
grace-window mark-and-sweep: mark snapshots live manifests (every tag
target) and live blobs (every layer of a live manifest) and stamps
everything else with the time it was *first observed dead*; sweep
deletes candidates only once they have been dead — and un-pushed —
longer than `grace_s`, with a liveness re-check immediately before each
delete. A just-finalized upload no manifest references yet survives
(`protected_young`), as do digests pinned by an in-flight upload
session's `protected` callback (`protected_inflight`). Every deletion is
journaled through `JournalFile` *before* the next one starts, so a crash
mid-sweep resumes idempotently: bytes are accounted from mark-time
sizes, and `GCReport.core()` of a killed-then-resumed pass is
byte-identical to an uninterrupted run. Each swept digest leaves a TTL'd
`Tombstones` marker; anti-entropy merges markers newest-wins, replicas
refuse to copy back a digest whose tombstone dominates its push stamp
(deletion wins over resurrection; a genuinely newer push wins over the
deletion), and `expire_tombstones()` bounds the marker set.
`ClusterGCTarget` sweeps every copy the live replicas hold and forgets
swept digests from the sharded placement map.

`repro churn --seed 7 --epochs 6 [--sharded] [--kill-after 3]` runs the
whole story on a live cluster: a hub is materialized, replicated (or
sharded k-of-N), and churned for N epochs on a shared virtual clock
while a cluster-wide GC pass runs each epoch, anti-entropy syncs after
it, and a frontend availability sweep reads tagged manifests and their
blobs (digest-verified) throughout. `--kill-after N` interrupts the
sweep mid-flight at the crash epoch *and* kills a replica; a fresh
collector must resume from the journal to a byte-identical report.
Invariants asserted (exit 1 on violation): tagged blobs always readable,
zero live-blob deletions, zero post-sync resurrections, reclaimed bytes
equal to the engine's orphan accounting, orphaned manifests reclaimed,
the grace window protecting the in-flight upload until release,
idempotence after convergence, every replica's metadata converged to the
engine's surviving state, tombstones expiring, and (sharded) placement
conformance after sweeps.""",
    ),
    (
        "Parallel analysis & the profile cache",
        """\
Layer profiling — gunzip, tar walk, per-file hashing and typing — is the
pipeline's CPU cost, and it is sharded by one engine,
`repro.analyzer.shard`, that the vulnerability scanner runs on too.
`map_layers(worker, store, digests, config, context)` partitions the
digests into size-balanced batches (`build_shards`, weighted by compressed
blob size via `partition_work`), dispatches them through
`repro.parallel.map_shards` to a module-level worker, and returns values
and failure reasons by digest. A worker is one call of
`run_shard(shard, per_layer)`, the loop that applies
`per_layer(digest, blob, context)` to every layer: `profile_shard` runs
`extract_and_profile` (context: a non-default `TypeCatalog`, else `None`),
`repro.scan.scan_shard` runs `extract_packages` (context: the
`PackageModel`). `Analyzer` and `DedupScanner` keep their own cache lookup,
cache write and metric names around that call and merge in first-seen
digest order — so `serial`, `thread`, and `process` runs produce
byte-identical datasets and reports. Everything crossing the pool boundary
is plain picklable data (`LayerShard` in, `ShardResult` out): a
`DiskBlobStore` ships only its root path and each worker reads its own
shard locally; in-memory stores ship the compressed bytes. Failures stay
data too — a blob missing before dispatch is reported by `build_shards`,
a corrupt layer lands in `ShardResult.failures`, a dead shard comes back
as `ShardOutcome.error` and every digest it carried is recorded as
`shard failed: …` — so the caller accounts each affected digest in
`failed_layers` instead of losing the run.

Picking a mode: `serial` for anything tiny (and the automatic fallback
below `min_parallel_items` or when one worker would be started);
`thread` for I/O-heavy paths — it is the `Downloader`'s mode, which
coerces `mode="process"` to threads with a `RuntimeWarning` because its
stats and dedup cache are per-process state; `process` for CPU-bound
extraction at scale, where the pickling rules above are what make it
actually work. `ParallelConfig.effective_workers(n_tasks)` caps workers
at the number of dispatched chunks. With a `MetricsRegistry`,
`map_shards` records shards dispatched/completed/failed, items
processed, per-shard busy seconds, worker utilization, and items/sec.

`ProfileCache` makes re-analysis nearly free: a disk-backed,
content-addressed map of `(layer digest, catalog version) →
LayerProfile` under any `BlobStore` (crash-safe tmp+rename on disk by
default). Entries are self-verifying (magic + checksum + embedded
digest); a corrupt entry is discarded, counted, deleted, and simply
re-profiled — inject that rot with `repro.faults.corrupt_at_rest` on
`cache.store`. Bumping the type catalog changes
`TypeCatalog.version()`, so every stale entry silently misses rather
than serving profiles typed under a dead taxonomy. Wire it in with
`Analyzer(cache=ProfileCache(dir))`, `run_materialized_pipeline(...,
cache_dir=...)`, or `repro pipeline --cache DIR`; a warm run over an
unchanged corpus skips every extraction (`analysis.cache_stats`).

`repro bench` (`repro.core.bench`) gates all of it without timing any
of it: `check_pipeline` analyzes one downloaded hub in every
{serial, thread, process} × {cold, warm cache} cell and requires the
serial, uncached dataset fingerprint in each, zero
`analyzer_cache_misses_total` on a warm cell and two started workers
(`parallel_pool_workers`) on a cold thread/process cell. The pool size
is fixed at `WORKERS = 2`, since a pool of one takes `map_shards`'
serial path and would compare serial with serial. Each cell is a frozen
`Check(family, scale, cell, ok, detail)`; the command writes no file and
exits 1 on any failed check. `--scales tiny` is the CI form.""",
    ),
    (
        "Lineage & dedup-aware vulnerability scanning",
        """\
`repro.synth.lineage` models what the hub generator alone does not: that
images *descend* from base images. `generate_lineage(names, pulls)` builds
a seeded parent/child DAG over the materialized repositories — nodes are
ranked by "basicness" (official images first, then by popularity; an
official repo has no `/` in its name), every image's parent is drawn from
the strictly-more-basic prefix of that ranking (acyclic by construction,
biased toward officials by `LineageConfig.official_parent_bias`), and
`ImageLineage` answers `parent_of` / `ancestors` / `children_of` /
`topological`. Alongside it live `PackageModel` — a per-layer synthetic
package inventory, a pure function of the layer digest — and
`SyntheticCveDatabase`, a closed-form CVE feed: `vulnerabilities(pkg,
version)` is a pure function of (seed, revision, package, version), so
the feed needs no storage and `version()` is a stable string that changes
whenever `revision` (or any parameter) does. Every draw anywhere in the
model goes through `derive_seed`/`seeded_uniform`, so results are
independent of evaluation order and process count.

`repro.scan` applies the paper's layer-sharing result to security
scanning. A naive scanner extracts every layer of every image —
O(images × layers); `DedupScanner` collects the *unique* digests in
first-seen order and extracts each exactly once through the analyzer's
layer-work engine (`repro.analyzer.map_layers` with the worker
`scan_shard`: sharded, size-balanced, failures come back as data, a dead
shard accounts all its digests); only `extract_packages`, the per-layer
function, and the CVE matching are the scanner's own.
Results are memoized in `ScanCache`, a disk-backed content-addressed map
keyed by `(layer digest, CVE-feed version)` — the same self-verifying
entry framing as `ProfileCache` (both sit on
`repro.util.entrycache.SelfVerifyingCache`: magic + checksum + embedded
digest; corrupt entries are discarded, counted, deleted, and re-scanned),
so a warm rerun over an unchanged corpus performs **zero** extractions,
while a CVE-feed `revision` bump misses cleanly and rescans.

Exposure then aggregates up the lineage DAG: an image is exposed to its
own layers' vulnerabilities plus everything its ancestors ship —
`ImageExposure` splits `n_inherited` from `n_introduced`, and the
`ScanReport` rolls exposure up by severity, by official/community, and
by popularity decile, alongside the headline dedup block:
`unique_layer_scans` (== number of unique digests), `naive_layer_scans`,
and `savings_ratio = naive / unique`. Reports are deterministic —
serial, thread, and process scans of the same seed are byte-identical
(`findings_json()` additionally strips the per-run cache-work counters,
so cold and warm runs compare equal too).

`repro scan --scale tiny --cache DIR` runs it; `--db-revision` bumps the
feed; `--selfcheck` runs the invariant exercise (all modes cold, then a
warm rerun) and exits 1 on any violation — that is the CI `scan-smoke`
job, and `repro bench` checks a cold/warm pair (`check_scan`: same
findings, no layer extracted warm).""",
    ),
    (
        "Streaming columnar analysis",
        """\
The in-memory `HubDataset` tops out where RAM does. `repro.synth.streamgen`
+ `repro.core.colstream` reproduce the §IV/§V statistics over 10⁷+ file
occurrences in bounded-memory chunks instead: generation yields
layer-range `DatasetChunk`s (local file CSR, occurrence sizes and type
codes, per-layer CLS/dirs/depths/image-ref counts) cut by
`plan_layer_chunks` — greedy whole-layer ranges under an occurrence
budget — and `iter_dataset_chunks(config)` replays the exact same
staged RNG streams as `generate_dataset`, so the chunk stream
concatenates **byte-identically** to the monolithic arrays at any chunk
size (`tests/synth/test_streamgen.py` pins this). `spill_chunks` /
`open_chunk_store` park a chunk stream on disk as `.npz` files plus a
manifest, giving analysis a picklable `ChunkSpec` handle per chunk.

`colstream` folds each chunk into a `ColumnarPartial` — occurrence/type
tallies, log-bucketed `repro.stats.Histogram`s (mergeable bucket-wise
via `Histogram.merge`, which refuses mismatched bases), a
`FileDedupState` (sorted unique file ids + counts + first-sighting
sizes: a bincount factorize for a dense id span, `np.unique` for a sparse
one; merged by `np.searchsorted` + `np.insert`), and
layer-sharing tallies — and
`merge_partials` folds partials in a balanced tree. Every merged
quantity is an int64 integer, so merging is bit-exact under any
grouping; floats are derived only in `finalize_report`, from the same
merged integers, by the same expressions. The consequence is the
engine's contract: serial, thread, and process runs over any chunking
produce a byte-identical `ColumnarReport.to_json()` — equal to the
single-partial in-memory result from `report_from_dataset` — because
the report document deliberately carries no engine metadata (no chunk
count, no worker count). `streaming_report(specs, parallel=...)`
dispatches specs through the same `repro.parallel.map_shards` as the
analyzer; a failed shard raises instead of silently dropping a chunk.

`repro bench --columnar` checks it (`check_columnar`): per scale the hub
is spilled into at least `MIN_CHUNKS = 8` chunks, thread and process
reports must equal the serial one on two workers each, and the serial
report must equal `report_from_dataset` over the same hub. The `10m`
scale (~10.2 M occurrences, ~204 MB spilled) is the ≥10⁷ acceptance
point; `full` (~38 M) is the paper-shaped run. Speed is the e2e
`columnar` workload's to measure. Related but separate:
`ProfileStore.to_dataset` deliberately keeps a fused single-pass dict
factorize (NumPy string `np.unique` measured ~5x slower;
`tools/colstream_cells.py` keeps the comparison executable), while
`extract_insights` runs on integer codes + `bincount` with lazy
basename tallies, ~3x over the per-record `Counter` walk.""",
    ),
    (
        "Tiered serving",
        """\
The paper's pull traffic is the product of ~10⁶ distinct clients, each
behind Docker's no-GC local store, reaching the registry through shared
infrastructure. `repro.tiers` simulates that full hierarchy in seeded
virtual time: a **client tier** of one fill-until-full, no-eviction cache
per client (vectorized as a first-occurrence + per-client prefix-sum
admission rule, so 10⁶ clients are one numpy pass), an **edge tier** of
pull-through proxies running the real `repro.cache.policies` replacement
policies with each client pinned to an edge by a seeded region hash, and
the **sharded origin** placed by the `repro.ha.ring` consistent-hash
ring. `simulate_tiers(dataset, TiersConfig(...))` sweeps edge capacity ×
policy and reports per-tier hit ratio, origin offload, per-shard residual
load, and exact order-statistic p99 virtual latency per cell, with the
§VI single-tier hit ratio as the baseline column; the same config is
byte-identical on rerun.

The cheap-revalidation protocol the simulation assumes is implemented in
the real HTTP layer. `RegistryHTTPServer` stamps every manifest response
with an `ETag` (the content digest) and answers a matching
`If-None-Match` with `304` and zero payload bytes; blob GETs honor
single-range `Range` headers (`206` + `Content-Range`, `416` past the
end, full `200` for malformed forms). `HTTPSession.get_manifest_conditional`
and `get_blob_range` are the client side, `SimulatedSession` mirrors the
conditional API in virtual time, and `CachingProxySession.get_manifest`
uses it automatically — a cached tag costs one round trip to refresh.
Proxy blob accounting is precise: `ProxyStats.hit_ratio` counts only
requests served from already-held bytes, `offload_ratio` adds coalesced
joins, `upstream_bytes_saved` is the byte-weighted view, and payloads are
reconciled against the policy's eviction counter so an evicted key never
strands bytes.

`repro tiers` runs the sweep (defaults: 10⁶ clients, 1.2 M pulls);
`--smoke` runs the reduced sweep plus the invariant exercise —
determinism, offload monotone in edge capacity, live HTTP 304/206 —
and exits 1 on any violation (the CI `tiers-smoke` job); `--out`
writes the sweep as JSON.""",
    ),
]


def render() -> str:
    out = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py`; edit docstrings, not this file.",
        "",
    ]
    for title, body in _GUIDES:
        out.append(f"## {title}")
        out.append("")
        out.append(body)
        out.append("")
    for module_name in iter_modules():
        module = importlib.import_module(module_name)
        members = public_members(module)
        doc = first_paragraph(module.__doc__)
        if not members and doc == "*undocumented*":
            continue
        out.append(f"## `{module_name}`")
        out.append("")
        out.append(doc)
        out.append("")
        for name, obj in members:
            out.extend(render_member(name, obj))
    return "\n".join(out) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("docs/API.md"))
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(render())
    print(f"wrote {args.out} ({args.out.stat().st_size:,} bytes)")


if __name__ == "__main__":
    main()
