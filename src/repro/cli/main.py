"""The ``repro`` command-line tool.

Subcommands::

    repro generate    --scale small --out hub.npz       # synthesize a dataset
    repro info        hub.npz                           # headline totals
    repro figures     hub.npz [--figure fig24] [--markdown]
    repro dedup       hub.npz                           # the §V study
    repro ablate      hub.npz [--experiment a1|a2]
    repro pipeline    --scale tiny [--dataset out.npz] [--profiles out.jsonl]
    repro experiments --out EXPERIMENTS.md              # full paper-vs-measured
    repro bench       [--scales tiny,mid] [--columnar]  # serial-identity gate
    repro loadtest    --seed 3 [--proxy] [--http]       # serving load test
    repro chaos       --seed 7 --plan smoke             # fault-injected pipeline
    repro cluster     --replicas 3 --seed 7 [--overload]  # HA serving exercise
    repro churn       --epochs 6 [--sharded] [--kill-after 3]  # GC-under-churn
    repro scan        --scale tiny [--cache DIR] [--selfcheck]  # dedup CVE scan
    repro tiers       [--smoke] [--out tiers.json]             # tiered cache sweep
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.util.units import format_size


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2017, help="generation seed")


def _add_scale(
    parser: argparse.ArgumentParser, default: str = "small", *, bench: bool = True
) -> None:
    """``bench`` is offered only where the hub stays columnar: materialized,
    every one of its layers would be built as a real tarball."""
    parser.add_argument(
        "--scale",
        choices=["tiny", "small", "bench"] if bench else ["tiny", "small"],
        default=default,
        help="population preset (see SyntheticHubConfig)",
    )


#: flags the exercise subcommands (chaos / cluster / churn) repeat, and the
#: ``--json`` every report-printing subcommand takes: flag -> add_argument()
_SHARED_FLAGS: dict[str, dict] = {
    "--seed": dict(type=int, default=7, help="exercise seed"),
    "--json": dict(action="store_true", help="emit the report as JSON"),
    "--replicas": dict(
        type=int, default=None,
        help="replica count (default 3; with --sharded, 6 for cluster and 4 "
        "for churn)",
    ),
    "--sharded": dict(
        action="store_true",
        help="run over the consistent-hash sharded cluster (k-of-N placement, "
        "hinted handoff; cluster also rebalances through a live join and "
        "leave) instead of full replication, adding the shard invariants",
    ),
    "--k": dict(
        type=int, default=2,
        help="replication factor per blob (with --sharded; k < replicas)",
    ),
    "--vnodes": dict(
        type=int, default=32,
        help="virtual nodes per replica on the hash ring (with --sharded)",
    ),
    "--kill-after": dict(
        type=int,
        help="simulate a crash after N units of work. chaos: N pulls (rerun "
        "with the same --journal to resume). churn: N deletions into the "
        "crash epoch's GC sweep; a replica crashes with it and the resumed "
        "report must be byte-identical to the uninterrupted reference",
    ),
    "--kill-index": dict(
        type=int, default=1, help="which replica is killed mid-run",
    ),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Large-Scale Analysis of the Docker Hub "
        "Dataset' (CLUSTER 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a calibrated dataset")
    _add_scale(p)
    _add_seed(p)
    p.add_argument("--out", type=Path, required=True, help="output .npz path")

    p = sub.add_parser("info", help="print a dataset's headline totals")
    p.add_argument("dataset", type=Path)

    p = sub.add_parser("figures", help="compute paper figures on a dataset")
    p.add_argument("dataset", type=Path)
    p.add_argument("--figure", action="append", help="figure id (repeatable)")
    p.add_argument("--markdown", action="store_true", help="emit markdown tables")
    p.add_argument(
        "--charts", action="store_true", help="render ASCII charts of the series"
    )

    p = sub.add_parser("dedup", help="run the §V deduplication study")
    p.add_argument("dataset", type=Path)

    p = sub.add_parser("ablate", help="run the A1/A2 ablation experiments")
    p.add_argument("dataset", type=Path)
    p.add_argument("--experiment", choices=["a1", "a2", "all"], default="all")

    p = sub.add_parser(
        "pipeline", help="run crawl->download->analyze on a materialized registry"
    )
    _add_seed(p)
    _add_scale(p, "tiny", bench=False)
    p.add_argument("--dataset", type=Path, help="write the measured dataset (.npz)")
    p.add_argument("--profiles", type=Path, help="write layer/image profiles (.jsonl)")
    p.add_argument(
        "--cache", type=Path,
        help="profile-cache directory: reruns over an unchanged corpus skip "
        "layer extraction entirely",
    )

    p = sub.add_parser("experiments", help="regenerate the EXPERIMENTS.md record")
    _add_seed(p)
    p.add_argument("--out", type=Path, default=Path("EXPERIMENTS.md"))
    _add_scale(p, "bench")

    p = sub.add_parser("cache", help="simulate cache policies on a pull trace")
    p.add_argument("dataset", type=Path)
    p.add_argument("--requests", type=int, default=20_000)
    p.add_argument("--granularity", choices=["image", "layer"], default="image")
    _add_seed(p)

    p = sub.add_parser("restructure", help="carve shared layers from co-occurrence")
    p.add_argument("dataset", type=Path)
    p.add_argument("--min-group-kb", type=int, default=16)
    p.add_argument("--max-layers", type=int, default=100)

    p = sub.add_parser("project", help="project registry growth (§I, 1,241 repos/day)")
    p.add_argument("dataset", type=Path)
    p.add_argument("--days", type=int, default=365)
    _add_seed(p)

    p = sub.add_parser(
        "serve", help="serve a materialized hub over the Docker Registry v2 HTTP API"
    )
    _add_seed(p)
    _add_scale(p, "tiny", bench=False)
    p.add_argument("--port", type=int, default=5000)
    p.add_argument(
        "--print-and-exit",
        action="store_true",
        help="start, print the endpoint summary, and shut down (for scripts/tests)",
    )

    p = sub.add_parser(
        "bench",
        help="check that every parallel mode and cache state gives the "
        "serial answer; exit 1 on any failed check",
    )
    _add_seed(p)
    p.add_argument(
        "--scales", default="tiny,mid",
        help="comma-separated hub scales (tiny,mid,small; with --columnar "
        "also 10m,full)",
    )
    p.add_argument(
        "--columnar", action="store_true",
        help="check the streaming columnar engine over a spilled chunk "
        "store instead of the materialized analyzer and scanner",
    )
    _add_flags(p, "--json")

    p = sub.add_parser(
        "loadtest",
        help="drive a synthetic pull workload against a materialized registry",
    )
    _add_seed(p)
    _add_scale(p, "tiny", bench=False)
    p.add_argument("--requests", type=int, default=2_000, help="trace length")
    p.add_argument("--granularity", choices=["image", "layer"], default="image")
    p.add_argument("--mode", choices=["closed", "open"], default="closed")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument(
        "--arrival-rate", type=float, default=200.0,
        help="open-loop mean arrival rate (requests/s)",
    )
    p.add_argument(
        "--proxy", action="store_true",
        help="interpose a GDSF pull-through proxy in front of the registry",
    )
    p.add_argument(
        "--proxy-capacity", type=float, default=0.2,
        help="proxy cache capacity as a fraction of total registry bytes",
    )
    p.add_argument(
        "--http", action="store_true",
        help="serve over a real localhost HTTP server (wall-clock timing)",
    )
    _add_flags(p, "--json")
    p.add_argument(
        "--metrics", action="store_true",
        help="also dump server metrics in Prometheus text format",
    )

    p = sub.add_parser(
        "chaos",
        help="run crawl->pull->loadgen under a fault plan and check the "
        "resilience invariants (exit 1 on violation)",
    )
    _add_flags(p, "--seed")
    p.add_argument(
        "--plan", default="smoke",
        help="fault plan name (none, smoke, storm)",
    )
    _add_scale(p, "tiny", bench=False)
    p.add_argument(
        "--requests", type=int, default=400, help="loadgen trace length"
    )
    p.add_argument(
        "--journal", type=Path,
        help="checkpoint directory: the crawl and pull journal here, and a "
        "rerun resumes instead of restarting",
    )
    _add_flags(p, "--kill-after", "--json")

    p = sub.add_parser(
        "cluster",
        help="replicated serving exercise: kill a replica, rot blobs at "
        "rest, heal, and check the HA invariants (exit 1 on violation)",
    )
    _add_flags(p, "--seed", "--replicas")
    _add_scale(p, "tiny", bench=False)
    p.add_argument(
        "--requests", type=int, default=120, help="pull-trace length (image pulls)"
    )
    _add_flags(p, "--kill-index")
    p.add_argument(
        "--corrupt-count", type=int, default=2,
        help="blobs to bit-flip at rest on a surviving replica",
    )
    _add_flags(p, "--sharded", "--k", "--vnodes")
    p.add_argument(
        "--overload", action="store_true",
        help="also run the open-loop overload exercise against a "
        "limits-protected server",
    )
    _add_flags(p, "--json")

    p = sub.add_parser(
        "churn",
        help="evolve a replicated hub under seeded churn with journaled "
        "crash-resumable garbage collection; check the GC invariants "
        "(exit 1 on violation)",
    )
    _add_flags(p, "--seed")
    p.add_argument("--epochs", type=int, default=6, help="churn epochs to run")
    _add_flags(p, "--replicas")
    _add_scale(p, "tiny", bench=False)
    _add_flags(p, "--sharded", "--k", "--vnodes")
    _add_flags(p, "--kill-after", "--kill-index", "--json")

    p = sub.add_parser(
        "scan",
        help="dedup-aware vulnerability scan: extract each unique layer "
        "once, aggregate exposure up the lineage DAG",
    )
    _add_seed(p)
    _add_scale(p, "tiny", bench=False)
    p.add_argument(
        "--mode", choices=["serial", "thread", "process"], default="thread",
        help="parallel mode for layer extraction",
    )
    p.add_argument("--workers", type=int, help="pool workers (default: cpu count)")
    p.add_argument(
        "--cache", type=Path,
        help="scan-cache directory: reruns under the same CVE feed version "
        "perform zero extractions",
    )
    p.add_argument(
        "--db-revision", type=int, default=1,
        help="synthetic CVE feed revision; bumping it invalidates the cache",
    )
    _add_flags(p, "--json")
    p.add_argument("--out", type=Path, help="also write the JSON report here")
    p.add_argument(
        "--selfcheck", action="store_true",
        help="run the invariant exercise (all modes, cold+warm) and exit 1 "
        "on any violation — the CI scan-smoke job",
    )

    p = sub.add_parser(
        "tiers",
        help="sweep the tiered cache hierarchy (per-client caches -> edge "
        "proxy fleet -> sharded origin) in virtual time",
    )
    _add_seed(p)
    _add_scale(p)
    p.add_argument(
        "--clients", type=int, default=1_000_000,
        help="distinct clients (each appears at least once)",
    )
    p.add_argument(
        "--requests", type=int, default=1_200_000, help="total image pulls"
    )
    p.add_argument("--edges", type=int, default=32, help="edge proxy count")
    p.add_argument("--shards", type=int, default=4, help="origin shard count")
    p.add_argument(
        "--client-gb", type=float, default=2.0,
        help="per-client cache capacity in GiB (no-eviction local store)",
    )
    p.add_argument(
        "--fracs", default="0.01,0.05,0.20",
        help="edge cache sizes as comma-separated fractions of the working set",
    )
    p.add_argument(
        "--policies", default="lru,lfu,gdsf,static-top",
        help="comma-separated edge replacement policies",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="run the reduced sweep + invariant exercise (determinism, "
        "offload monotonicity, live HTTP 304/206) and exit 1 on any "
        "violation — the CI tiers-smoke job",
    )
    _add_flags(p, "--json")
    p.add_argument("--out", type=Path, help="also write the JSON report here")

    return parser


# -- subcommand implementations -------------------------------------------------


def _emit(report, args: argparse.Namespace) -> int:
    """Print an exercise report (``--json`` or rendered); exit status 1
    if any of its invariants failed."""
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.exercise import seeded_hub
    from repro.model.io import save_dataset

    dataset = seeded_hub(args.scale, args.seed).dataset
    save_dataset(dataset, args.out)
    totals = dataset.totals()
    print(
        f"wrote {args.out}: {totals.n_images:,} images, "
        f"{totals.n_layers:,} layers, {totals.n_file_occurrences:,} file occurrences"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.model.io import load_dataset

    totals = load_dataset(args.dataset).totals()
    print(f"images            {totals.n_images:,}")
    print(f"unique layers     {totals.n_layers:,}")
    print(f"file occurrences  {totals.n_file_occurrences:,}")
    print(f"unique files      {totals.n_unique_files:,}")
    print(f"uncompressed      {format_size(totals.uncompressed_bytes)}")
    print(f"compressed        {format_size(totals.compressed_bytes)}")
    print(f"deduplicated      {format_size(totals.unique_file_bytes)}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.core.figures import FIGURES, compute_figure
    from repro.core.report import render_experiments_markdown, render_report
    from repro.model.io import load_dataset

    dataset = load_dataset(args.dataset)
    figure_ids = args.figure or list(FIGURES)
    unknown = [f for f in figure_ids if f not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(FIGURES)}", file=sys.stderr)
        return 2
    results = [compute_figure(dataset, fid) for fid in figure_ids]
    if args.markdown:
        print(render_experiments_markdown(results))
    else:
        print(render_report(results))
    if args.charts:
        from repro.core.characterization import Breakdown
        from repro.core.plots import render_cdf, render_histogram, render_share_bars
        from repro.stats.cdf import EmpiricalCDF
        from repro.stats.histogram import Histogram

        for result in results:
            for name, series in result.series.items():
                as_bytes = any(tok in name for tok in ("cls", "fls", "cis", "fis"))
                if isinstance(series, EmpiricalCDF):
                    print()
                    print(
                        render_cdf(
                            series,
                            title=f"{result.figure_id} {name}",
                            as_bytes=as_bytes,
                        )
                    )
                elif isinstance(series, Histogram):
                    print()
                    print(
                        render_histogram(
                            series, title=f"{result.figure_id} {name}", as_bytes=as_bytes
                        )
                    )
                elif isinstance(series, Breakdown):
                    print()
                    print(
                        render_share_bars(
                            series, title=f"{result.figure_id} {name} (count share)"
                        )
                    )
    return 0


def _cmd_dedup(args: argparse.Namespace) -> int:
    from repro.dedup import (
        cross_duplicate_report,
        dedup_by_group,
        dedup_growth,
        file_dedup_report,
        layer_sharing_report,
    )
    from repro.model.io import load_dataset

    dataset = load_dataset(args.dataset)
    sharing = layer_sharing_report(dataset)
    print(
        f"layer sharing: {sharing.single_ref_fraction:.1%} single-ref, "
        f"saves {sharing.sharing_ratio:.2f}x (paper 1.8x)"
    )
    dedup = file_dedup_report(dataset)
    print(
        f"file dedup: {dedup.unique_fraction:.1%} unique, "
        f"{dedup.count_ratio:.1f}x count / {dedup.capacity_ratio:.1f}x capacity "
        f"(paper 3.2% / 31.5x / 6.9x)"
    )
    print("growth:")
    for point in dedup_growth(dataset):
        print(
            f"  {point.n_layers:>8,} layers -> count {point.count_ratio:5.1f}x, "
            f"capacity {point.capacity_ratio:4.1f}x"
        )
    cross = cross_duplicate_report(dataset)
    print(
        f"cross duplicates: layer p10 {cross.layer_p10:.1%} (paper 97.6%), "
        f"image p10 {cross.image_p10:.1%} (paper 99.4%)"
    )
    print("by group (capacity eliminated):")
    for row in dedup_by_group(dataset):
        print(f"  {row.label:<6} {row.eliminated_capacity_fraction:6.1%}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.core.ablation import popularity_cache, uncompressed_small_layers
    from repro.model.io import load_dataset

    dataset = load_dataset(args.dataset)
    if args.experiment in ("a1", "all"):
        print("A1: store small layers uncompressed")
        for p in uncompressed_small_layers(dataset):
            label = "none" if p.threshold_bytes == 0 else format_size(p.threshold_bytes)
            print(
                f"  T={label:>9}: mean pull {p.mean_pull_latency_s:7.3f}s, "
                f"storage {p.registry_blowup:.2f}x"
            )
    if args.experiment in ("a2", "all"):
        print("A2: popularity cache")
        for p in popularity_cache(dataset):
            print(
                f"  cache {p.cached_fraction:6.1%}: hit ratio {p.hit_ratio:6.1%}, "
                f"pinned {format_size(p.cache_bytes)}"
            )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.core.pipeline import run_materialized_pipeline
    from repro.exercise import seeded_hub
    from repro.model.io import save_dataset, save_profiles_jsonl

    config = seeded_hub(args.scale, args.seed).config
    result = run_materialized_pipeline(
        config, compute_figures=False, cache_dir=args.cache
    )
    crawl = result.crawl.summary()
    stats = result.download_stats
    print(
        f"crawl: {crawl['distinct_repositories']:,} repos "
        f"({crawl['duplicates_removed']:,} duplicate rows removed)"
    )
    print(
        f"download: {stats.succeeded:,}/{stats.attempted:,} ok, "
        f"{stats.failed_auth} auth / {stats.failed_no_latest} no-latest failures, "
        f"{stats.unique_layers_fetched:,} unique layers "
        f"({format_size(stats.layer_bytes_fetched)})"
    )
    totals = result.totals()
    print(
        f"analyze: {totals.n_images:,} images, {totals.n_layers:,} layers, "
        f"{totals.n_file_occurrences:,} files, "
        f"{format_size(totals.uncompressed_bytes)} uncompressed"
    )
    if args.cache:
        stats = result.analysis.cache_stats
        print(
            f"cache: {stats['hits']:,} hits / {stats['misses']:,} misses "
            f"({stats['discarded']} discarded) at {args.cache}"
        )
    if args.dataset:
        save_dataset(result.dataset, args.dataset)
        print(f"wrote dataset: {args.dataset}")
    if args.profiles:
        save_profiles_jsonl(
            args.profiles,
            result.analysis.store.layers(),
            result.analysis.store.images(),
        )
        print(f"wrote profiles: {args.profiles}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.core.experiments import write_experiments

    out = write_experiments(args.out, seed=args.seed, scale=args.scale)
    print(f"wrote {out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import generate_trace, sweep
    from repro.model.io import load_dataset

    dataset = load_dataset(args.dataset)
    trace = generate_trace(
        dataset, args.requests, granularity=args.granularity,
        locality=0.2, seed=args.seed,
    )
    ws = trace.working_set_bytes()
    capacities = [int(0.01 * ws), int(0.05 * ws), int(0.20 * ws)]
    print(
        f"{trace.n_requests:,} {args.granularity} requests, "
        f"working set {format_size(ws)}"
    )
    for result in sweep(trace, ["fifo", "lru", "lfu", "gdsf"], capacities):
        print(
            f"  {result.policy:>10} @ {format_size(result.capacity_bytes):>9}: "
            f"hit {result.hit_ratio:6.1%}  byte-hit {result.byte_hit_ratio:6.1%}"
        )
    return 0


def _cmd_restructure(args: argparse.Namespace) -> int:
    from repro.model.io import load_dataset
    from repro.restructure import CarveConfig, restructure

    dataset = load_dataset(args.dataset)
    result = restructure(
        dataset,
        CarveConfig(
            min_group_bytes=args.min_group_kb * 1024,
            max_layers_per_image=args.max_layers,
        ),
    )
    print(f"today's layout     {format_size(result.original_layer_bytes)}")
    print(
        f"carved layout      {format_size(result.restructured_bytes)} "
        f"({result.savings_vs_original:.1%} saved, "
        f"{result.n_shared_layers:,} shared layers, "
        f"max {result.layers_per_image_max} layers/image)"
    )
    print(f"file-dedup floor   {format_size(result.perfect_dedup_bytes)}")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from repro.core.growth_projection import project_growth
    from repro.model.io import load_dataset

    dataset = load_dataset(args.dataset)
    projection = project_growth(dataset, days=args.days, n_points=9, seed=args.seed)
    print(f"{'day':>6} {'repos':>12} {'no sharing':>12} {'shared':>12} {'+dedup':>12}")
    for p in projection.points:
        print(
            f"{p.day:>6.0f} {p.repositories:>12,.0f} "
            f"{format_size(p.no_sharing_bytes):>12} "
            f"{format_size(p.shared_layers_bytes):>12} "
            f"{format_size(p.file_dedup_bytes):>12}"
        )
    print(f"final dedup saving: {projection.final_savings():.1%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exercise import seeded_hub
    from repro.registry.http import RegistryHTTPServer
    from repro.registry.search import HubSearchEngine

    hub = seeded_hub(args.scale, args.seed, failures=True)
    truth = hub.truth
    search = HubSearchEngine(hub.registry, seed=args.seed)
    server = RegistryHTTPServer(hub.registry, search, port=args.port).start()
    try:
        print(f"registry:   {server.base_url}/v2/")
        print(f"catalog:    {server.base_url}/v2/_catalog")
        print(f"search:     {server.base_url}/search?q=/&page=1")
        example = next(iter(truth.images))
        print(f"manifest:   {server.base_url}/v2/{example}/manifests/latest")
        print(
            f"{truth.n_images} images, {truth.n_unique_layers} unique layers, "
            f"{len(truth.auth_repos)} auth-gated repos"
        )
        if args.print_and_exit:
            return 0
        print("Ctrl+C to stop")
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        server.stop()


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.core.bench import COLUMNAR_SCALES, SCALES, render_checks, run_bench

    scales = tuple(s.strip() for s in args.scales.split(",") if s.strip())
    known = COLUMNAR_SCALES if args.columnar else SCALES
    if not scales or any(scale not in known for scale in scales):
        print(
            f"unknown scale in {args.scales!r}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    checks = run_bench(scales, columnar=args.columnar, seed=args.seed)
    ok = all(check.ok for check in checks)
    if args.json:
        doc = {"checks": [check.to_dict() for check in checks], "ok": ok}
        print(json_module.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_checks(checks))
    return 0 if ok else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.cache import generate_trace
    from repro.cache.policies import GDSFCache
    from repro.downloader import CachingProxySession, SimulatedSession
    from repro.exercise import seeded_hub
    from repro.loadgen import LoadConfig, LoadGenerator, requests_from_trace

    hub = seeded_hub(args.scale, args.seed)
    registry = hub.registry
    trace = generate_trace(
        hub.dataset, args.requests, granularity=args.granularity,
        locality=0.2, seed=args.seed,
    )
    ops = requests_from_trace(trace, hub.dataset, hub.truth)

    session = SimulatedSession(registry, seed=args.seed)
    if args.proxy:
        capacity = max(1, int(registry.blobs.total_bytes() * args.proxy_capacity))
        session = CachingProxySession(session, GDSFCache(capacity))

    server = None
    if args.http:
        from repro.registry.http import HTTPSession, RegistryHTTPServer

        server = RegistryHTTPServer(registry).start()
        session = HTTPSession(server.base_url)
    try:
        report = LoadGenerator(session).run(
            ops,
            LoadConfig(
                workers=args.workers,
                mode=args.mode,
                arrival_rate_rps=args.arrival_rate,
                seed=args.seed,
            ),
        )
        print(
            f"workload: {trace.n_requests:,} {args.granularity} pulls -> "
            f"{len(ops):,} registry requests "
            f"({format_size(trace.total_bytes_requested())} requested)"
        )
        if args.json:
            print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        if args.metrics and server is not None:
            print(server.metrics.render_prometheus(), end="")
    finally:
        if server is not None:
            session.close()
            server.stop()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import plan_names, run_chaos

    if args.plan not in plan_names():
        print(
            f"unknown plan {args.plan!r}; known: {', '.join(plan_names())}",
            file=sys.stderr,
        )
        return 2
    report = run_chaos(
        seed=args.seed,
        plan=args.plan,
        scale=args.scale,
        requests=args.requests,
        journal_dir=args.journal,
        kill_after=args.kill_after,
    )
    code = _emit(report, args)
    if args.kill_after is not None and report.partial:
        return 0  # a simulated crash is not a violation; rerun to resume
    return code


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.ha import run_cluster, run_overload, run_sharded_cluster

    replicas = args.replicas if args.replicas is not None else (
        6 if args.sharded else 3
    )
    if args.sharded:
        report = run_sharded_cluster(
            seed=args.seed,
            replicas=replicas,
            k=args.k,
            vnodes=args.vnodes,
            scale=args.scale,
            requests=args.requests,
            corrupt_count=args.corrupt_count,
        )
    else:
        report = run_cluster(
            seed=args.seed,
            replicas=replicas,
            scale=args.scale,
            requests=args.requests,
            kill_index=args.kill_index,
            corrupt_count=args.corrupt_count,
        )
    code = _emit(report, args)
    if args.overload:
        code = max(code, _emit(run_overload(seed=args.seed), args))
    return code


def _cmd_churn(args: argparse.Namespace) -> int:
    from repro.ha import run_churn

    report = run_churn(
        seed=args.seed,
        epochs=args.epochs,
        replicas=args.replicas,
        sharded=args.sharded,
        k=args.k,
        vnodes=args.vnodes,
        scale=args.scale,
        kill_after=args.kill_after,
        kill_index=args.kill_index,
    )
    return _emit(report, args)


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.exercise import seeded_hub
    from repro.parallel.pool import ParallelConfig
    from repro.scan import DedupScanner, ScanCache, run_scan_exercise, targets_from_truth
    from repro.synth import (
        LineageConfig,
        PackageModel,
        SyntheticCveDatabase,
        generate_lineage,
    )

    if args.selfcheck:
        report = run_scan_exercise(seed=args.seed, scale=args.scale,
                                   workers=args.workers)
        return _emit(report, args)

    hub = seeded_hub(args.scale, args.seed, failures=True)
    registry = hub.registry
    targets = targets_from_truth(registry, hub.truth)
    lineage = generate_lineage(
        [t.name for t in targets],
        [t.pull_count for t in targets],
        LineageConfig(seed=args.seed),
    )
    db = SyntheticCveDatabase(seed=args.seed, revision=args.db_revision)
    cache = ScanCache(args.cache, db_version=db.version()) if args.cache else None
    scanner = DedupScanner(
        registry.blobs,
        db,
        PackageModel(seed=args.seed),
        parallel=ParallelConfig(
            mode=args.mode, workers=args.workers, chunk_size=8, min_parallel_items=0
        ),
        cache=cache,
        metrics=None,
    )
    report = scanner.scan(targets, lineage)
    print(report.to_json() if args.json else report.render())
    if args.out:
        args.out.write_text(report.to_json() + "\n")
        print(f"wrote {args.out}")
    if cache is not None:
        stats = cache.stats
        print(
            f"cache: {stats.hits:,} hits / {stats.misses:,} misses "
            f"({stats.discarded} discarded) at {args.cache}"
        )
    return 0


def _cmd_tiers(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.exercise import seeded_hub
    from repro.tiers import TiersConfig, run_tiers_exercise, simulate_tiers
    from repro.tiers.exercise import smoke_config
    from repro.tiers.sim import render_report

    dataset = seeded_hub(args.scale, args.seed).dataset
    if args.smoke:
        exercise = run_tiers_exercise(dataset, smoke_config(seed=args.seed))
        report = exercise.report
    else:
        exercise = None
        config = TiersConfig(
            n_clients=args.clients,
            n_requests=args.requests,
            n_edges=args.edges,
            n_shards=args.shards,
            client_capacity_bytes=int(args.client_gb * (1 << 30)),
            edge_capacity_fracs=tuple(float(x) for x in args.fracs.split(",")),
            policies=tuple(p for p in args.policies.split(",") if p),
            seed=args.seed,
        )
        report = simulate_tiers(dataset, config)
    if args.json:
        doc = exercise.to_dict() if exercise is not None else report.to_dict()
        print(json_module.dumps(doc, indent=2, sort_keys=True))
    else:
        # the sweep table, then (smoke only) the shared verdict lines
        print(exercise.render() if exercise is not None else render_report(report))
    if args.out:
        args.out.write_text(report.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0 if exercise is None or exercise.ok else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "figures": _cmd_figures,
    "dedup": _cmd_dedup,
    "ablate": _cmd_ablate,
    "pipeline": _cmd_pipeline,
    "experiments": _cmd_experiments,
    "cache": _cmd_cache,
    "restructure": _cmd_restructure,
    "project": _cmd_project,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "loadtest": _cmd_loadtest,
    "chaos": _cmd_chaos,
    "cluster": _cmd_cluster,
    "churn": _cmd_churn,
    "scan": _cmd_scan,
    "tiers": _cmd_tiers,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
