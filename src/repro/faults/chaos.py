"""The chaos harness: a seeded end-to-end run under a named fault plan.

One :func:`run_chaos` call replays the paper's pipeline — materialize a
synthetic hub, crawl it (§III-A), pull every repository (§III-B), then
drive a loadgen workload — with a :class:`~repro.faults.injector.
FaultInjector` between the pull pipeline and the registry, and asserts
the stack's resilience **invariants**:

* no corrupted blob is ever accepted into the destination store (every
  stored payload re-hashes to its digest; mangled transfers land in the
  quarantine log instead);
* every pull completes or is reported (auth / no-latest are accounted
  outcomes; nothing vanishes into ``failed_other``);
* the crawl and pull accounting reconcile (distinct repositories ==
  pulls attempted == sum of outcomes);
* the metrics core agrees with the in-band stats (retries, injected
  fault totals);
* the plan actually bit: at least four distinct fault kinds injected.

Everything runs serially on a virtual clock, so a fixed ``--seed``
produces a byte-identical report — chaos as a regression artifact, not a
dice roll. Journals make the run kill-safe: ``kill_after`` simulates a
crash after N pulls, and re-running with the same journal directory
resumes to the same final report an uninterrupted run produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.crawler import CrawlCheckpoint, HubCrawler
from repro.downloader import (
    CircuitBreaker,
    Downloader,
    RetryPolicy,
    SimulatedSession,
    download_with_checkpoint,
)
from repro.downloader.downloader import DownloadStats
from repro.exercise import ExerciseReport, Invariant, VirtualClock, pull_ops, seeded_hub
from repro.faults.injector import FaultInjector
from repro.faults.plans import build_plan
from repro.faults.session import FaultInjectingSession
from repro.loadgen import LoadConfig, LoadGenerator
from repro.obs import MetricsRegistry, counter_total
from repro.parallel.pool import ParallelConfig
from repro.registry.search import HubSearchEngine
from repro.util.digest import sha256_bytes
from repro.util.journal import JournalFile


@dataclass
class ChaosReport(ExerciseReport):
    """Everything a chaos run measured, JSON-stable for seeded diffing."""

    seed: int
    plan: str
    scale: str
    partial: bool = False
    resumed: bool = False
    crawl: dict = field(default_factory=dict)
    pull: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    quarantined: int = 0
    breaker: dict = field(default_factory=dict)
    virtual_seconds: float = 0.0
    loadgen: dict = field(default_factory=dict)

    def computed(self) -> dict:
        return {"virtual_seconds": round(self.virtual_seconds, 6)}

    def lines(self) -> list[str]:
        lines = [
            f"chaos run: plan={self.plan} seed={self.seed} scale={self.scale}"
            + (" [partial]" if self.partial else "")
            + (" [resumed]" if self.resumed else ""),
            f"  crawl    {self.crawl.get('distinct_repositories', 0):,} repos, "
            f"{self.crawl.get('duplicates_removed', 0):,} dup rows removed",
            f"  pull     {self.pull.get('succeeded', 0):,}/{self.pull.get('attempted', 0):,} ok, "
            f"{self.pull.get('failed_auth', 0)} auth / "
            f"{self.pull.get('failed_no_latest', 0)} no-latest, "
            f"{self.pull.get('retries', 0)} retries, "
            f"{self.pull.get('rate_limited', 0)} rate-limited, "
            f"{self.quarantined} quarantined",
            "  faults   "
            + (
                ", ".join(f"{kind}={count}" for kind, count in self.faults.items())
                or "(none injected)"
            ),
            f"  breaker  {self.breaker.get('fast_failures', 0)} fast-failures, "
            f"state {self.breaker.get('state', '-')}",
            f"  clock    {self.virtual_seconds:.3f} virtual seconds",
        ]
        if self.loadgen:
            lines.append(
                f"  loadgen  {self.loadgen.get('requests', 0):,} requests, "
                f"{self.loadgen.get('errors', 0)} errors, "
                f"{self.loadgen.get('duration_s', 0.0):.3f} virtual s"
            )
        return lines


def run_chaos(
    *,
    seed: int = 7,
    plan: str = "smoke",
    scale: str = "tiny",
    requests: int = 400,
    journal_dir: str | Path | None = None,
    kill_after: int | None = None,
    max_retries: int = 8,
) -> ChaosReport:
    """Run the crawl → pull → loadgen pipeline under the named fault plan
    and check the resilience invariants. Deterministic for a fixed seed.

    With *journal_dir*, the crawl and the pull both checkpoint there
    (``crawl.json`` / ``pull.json``); *kill_after* aborts the pull after
    that many newly-processed repositories — rerun with the same journal
    directory to resume. A partial (killed) run skips the loadgen phase
    and the completion invariants.
    """
    hub = seeded_hub(scale, seed, failures=True)
    registry = hub.registry
    search = HubSearchEngine(registry, seed=seed)
    report = ChaosReport(seed=seed, plan=plan, scale=scale)

    crawl_journal = pull_journal = None
    if journal_dir is not None:
        journal_dir = Path(journal_dir)
        crawl_journal = CrawlCheckpoint(JournalFile(journal_dir / "crawl.json"))
        pull_journal = JournalFile(journal_dir / "pull.json")
        report.resumed = pull_journal.exists or crawl_journal.journal.exists

    # -- §III-A: crawl (checkpointed when journaled) ---------------------------
    crawl = HubCrawler(search).crawl(checkpoint=crawl_journal)
    report.crawl = crawl.summary()

    # -- §III-B: pull everything through the fault injector --------------------
    clock = VirtualClock()
    metrics = MetricsRegistry()
    injector = FaultInjector(build_plan(plan), seed=seed, metrics=metrics)
    session = FaultInjectingSession(
        SimulatedSession(registry, seed=seed), injector, sleep=clock.sleep
    )
    breaker = CircuitBreaker(
        failure_threshold=5, cooldown_s=0.2, clock=clock.now, metrics=metrics
    )
    downloader = Downloader(
        session,
        parallel=ParallelConfig(mode="serial"),
        max_retries=max_retries,
        retry_policy=RetryPolicy(base_delay_s=0.02, max_delay_s=0.2),
        sleep=clock.sleep,
        seed=seed,
        metrics=metrics,
        breaker=breaker,
        clock=clock.now,
    )
    pull = download_with_checkpoint(
        downloader, crawl.repositories, pull_journal, stop_after=kill_after
    )
    report.partial = not pull.finished
    stats = downloader.stats
    report.pull = stats.summary()
    counts: dict[str, int] = {}
    for outcome in pull.outcomes.values():
        counts[outcome] = counts.get(outcome, 0) + 1
    report.outcomes = {key: counts[key] for key in sorted(counts)}
    report.faults = injector.stats()
    report.quarantined = sum(len(v) for v in downloader.quarantine.values())
    report.breaker = breaker.stats()
    report.virtual_seconds = clock.t

    # -- loadgen under a fresh injector (virtual time, closed loop) ------------
    if not report.partial:
        trace_ops = pull_ops(hub, requests)
        # own metrics registry: the pull phase's faults_injected_total must
        # keep reconciling against the pull injector's stats alone
        lg_injector = FaultInjector(build_plan(plan), seed=seed + 1)
        lg_session = FaultInjectingSession(
            SimulatedSession(registry, seed=seed), lg_injector
        )
        lg_report = LoadGenerator(lg_session).run(
            trace_ops,
            LoadConfig(workers=4, mode="closed", seed=seed, timing="virtual"),
        )
        report.loadgen = {
            "requests": lg_report.requests,
            "errors": lg_report.errors,
            "bytes_total": lg_report.bytes_total,
            "duration_s": round(lg_report.duration_s, 6),
            "ops": len(trace_ops),
            "faults": lg_injector.stats(),
        }

    report.invariants = _check_invariants(report, downloader, metrics, stats)
    return report


def _metric_total(metrics: MetricsRegistry, name: str) -> int:
    return int(counter_total(metrics, name))


def _check_invariants(
    report: ChaosReport,
    downloader: Downloader,
    metrics: MetricsRegistry,
    stats: DownloadStats,
) -> list[Invariant]:
    out: list[Invariant] = []

    bad = [
        digest
        for digest in downloader.dest.digests()
        if sha256_bytes(downloader.dest.get(digest)) != digest
    ]
    out.append(
        Invariant(
            "no_corrupt_blob_accepted",
            not bad,
            f"{downloader.dest.count()} stored blobs verified, "
            f"{report.quarantined} corrupt transfers quarantined"
            + (f"; CORRUPT STORED: {bad[:3]}" if bad else ""),
        )
    )

    accounted = sum(report.outcomes.values())
    out.append(
        Invariant(
            "pull_accounting_reconciles",
            stats.attempted == accounted
            and stats.attempted
            == stats.succeeded + stats.failed_auth + stats.failed_no_latest + stats.failed_other,
            f"attempted={stats.attempted} == outcomes={accounted} == "
            f"ok+auth+no_latest+other="
            f"{stats.succeeded}+{stats.failed_auth}+{stats.failed_no_latest}+{stats.failed_other}",
        )
    )

    if not report.partial:
        distinct = report.crawl.get("distinct_repositories", 0)
        out.append(
            Invariant(
                "every_crawled_repo_pulled",
                stats.attempted == distinct,
                f"crawled {distinct}, pulled {stats.attempted}",
            )
        )
        out.append(
            Invariant(
                "every_pull_completed_or_reported",
                stats.failed_other == 0 and stats.deadline_exceeded == 0,
                f"failed_other={stats.failed_other}, "
                f"deadline_exceeded={stats.deadline_exceeded} "
                f"(auth/no-latest are reported outcomes)",
            )
        )
        ops = report.loadgen.get("ops", 0)
        # the virtual executor records every op (failed ones at overhead
        # cost), so completion means requests == ops, errors a subset
        out.append(
            Invariant(
                "loadgen_accounting_reconciles",
                report.loadgen.get("requests", 0) == ops
                and report.loadgen.get("errors", 0) <= ops,
                f"requests={report.loadgen.get('requests', 0)} == ops={ops}, "
                f"errors={report.loadgen.get('errors', 0)} (reported, not lost)",
            )
        )
        kinds = set(report.faults)
        requests_made = downloader.session.injector.request_count
        # a finished-journal rerun makes no requests; nothing to assert then
        out.append(
            Invariant(
                "fault_plan_bit",
                report.plan == "none" or requests_made == 0 or len(kinds) >= 4,
                f"{len(kinds)} distinct fault kinds injected over "
                f"{requests_made} requests: " + (", ".join(sorted(kinds)) or "none"),
            )
        )

    out.append(
        Invariant(
            "metrics_reconcile",
            _metric_total(metrics, "downloader_corrupt_blobs_total") == report.quarantined
            and _metric_total(metrics, "faults_injected_total")
            == sum(report.faults.values()),
            f"corrupt_blobs metric={_metric_total(metrics, 'downloader_corrupt_blobs_total')} "
            f"== quarantined={report.quarantined}; "
            f"faults metric={_metric_total(metrics, 'faults_injected_total')} "
            f"== injected={sum(report.faults.values())}",
        )
    )
    return out
