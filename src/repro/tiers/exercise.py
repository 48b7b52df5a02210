"""The ``tiers-smoke`` exercise: a reduced sweep plus invariant gating.

Runs a small tiered simulation twice and a real-HTTP revalidation loop, and
checks the invariants the CI job gates on:

* **determinism** — the seeded report is byte-identical across reruns;
* **coverage** — the simulation really saw the configured distinct-client
  population, and shard counts add up;
* **monotonicity** — for every policy, origin offload does not *decrease*
  when every edge cache grows from the smallest to the largest swept size;
* **revalidation** — the live HTTP layer actually serves ``304`` manifest
  revalidations and ``206`` ranged blob reads, observed from both the
  server's metrics and the client's accounting.

Each of the four is one :class:`~repro.exercise.Invariant` whose ``detail``
lists what it found wrong; the CLI exits non-zero if any failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exercise import ExerciseReport, Invariant, seeded_hub
from repro.obs.metrics import counter_total
from repro.registry.errors import AuthRequiredError
from repro.tiers.sim import TiersConfig, TiersReport, render_report, simulate_tiers


@dataclass
class TiersExerciseReport(ExerciseReport):
    """The reduced sweep, the live-HTTP counters, and the verdicts on both."""

    report: TiersReport
    http_counters: dict[str, float] = field(default_factory=dict)

    def computed(self) -> dict:
        return {"report": self.report.to_dict()}

    def lines(self) -> list[str]:
        return render_report(self.report).split("\n")


def _invariant(name: str, violations: list[str], checked: str) -> Invariant:
    return Invariant(name, not violations, "; ".join(violations) or checked)


def _check_monotone_offload(report: TiersReport) -> Invariant:
    violations: list[str] = []
    n = report.config.n_requests
    fracs = sorted(report.config.edge_capacity_fracs)
    # one swept size leaves nothing to compare
    policies = report.config.policies if len(fracs) >= 2 else ()
    for policy in policies:
        by_frac = {
            cell.edge_capacity_frac: cell.origin_offload(n)
            for cell in report.cells
            if cell.policy == policy
        }
        smallest, largest = by_frac[fracs[0]], by_frac[fracs[-1]]
        if largest + 1e-12 < smallest:
            violations.append(
                f"origin offload shrank as {policy} edge caches grew: "
                f"{smallest:.4f} @ {fracs[0]:.0%} -> {largest:.4f} @ {fracs[-1]:.0%}"
            )
    return _invariant(
        "monotonicity", violations,
        f"no policy's origin offload shrank from the smallest to the largest "
        f"of {len(fracs)} edge cache sizes",
    )


def _check_report(report: TiersReport, rerun: TiersReport) -> list[Invariant]:
    violations: list[str] = []
    if report.n_distinct_clients != report.config.n_clients:
        violations.append(
            f"expected {report.config.n_clients} distinct clients, "
            f"saw {report.n_distinct_clients}"
        )
    if report.manifest_revalidations_304 <= 0:
        violations.append("no manifest 304 revalidations in the workload")
    for cell in report.cells:
        if sum(cell.origin_shard_requests) != cell.origin_requests:
            violations.append(
                f"shard counts disagree with origin total in cell "
                f"({cell.policy}, {cell.edge_capacity_frac:.0%})"
            )
    return [
        Invariant(
            "determinism", report.to_json() == rerun.to_json(),
            "the seeded rerun's report, compared byte for byte as JSON",
        ),
        _invariant(
            "coverage", violations,
            f"all {report.n_distinct_clients} clients seen, shard counts add up "
            f"in {len(report.cells)} cells, "
            f"{report.manifest_revalidations_304} manifest 304s in the workload",
        ),
        _check_monotone_offload(report),
    ]


def _exercise_http() -> tuple[dict[str, float], Invariant]:
    """Drive the real 304/206 paths: a caching proxy revalidating a
    manifest over HTTP, and a ranged blob read, verified on both ends."""
    from repro.downloader.proxy import CachingProxySession
    from repro.registry.http import HTTPSession, RegistryHTTPServer

    violations: list[str] = []
    registry = seeded_hub("tiny", 5).registry
    with RegistryHTTPServer(registry) as server:
        session = HTTPSession(server.base_url)
        repo = tag = None
        for candidate in registry.catalog():
            try:
                tags = session.list_tags(candidate)
            except AuthRequiredError:
                continue
            if tags:
                repo, tag = candidate, tags[0]
                break
        if repo is None:
            violations.append("no public repository to exercise over HTTP")
            return {}, _invariant("revalidation", violations, "")
        proxy = CachingProxySession(session)
        first = proxy.get_manifest(repo, tag)
        again = proxy.get_manifest(repo, tag)
        if again != first:
            violations.append("revalidated manifest differs from the original")
        if proxy.stats.manifest_revalidations_304 < 1:
            violations.append("proxy recorded no 304 revalidation")

        digest = first.layers[0].digest
        full = session.get_blob(digest)
        half = max(1, len(full) // 2)
        part, total = session.get_blob_range(digest, 0, half - 1)
        if part != full[:half] or total != len(full):
            violations.append("ranged blob read returned wrong bytes")

        counters = {
            "registry_http_conditional_not_modified": counter_total(
                server.metrics, "registry_http_conditional_total",
                outcome="not_modified",
            ),
            "registry_http_range_partial": counter_total(
                server.metrics, "registry_http_range_total", outcome="partial"
            ),
        }
    if counters["registry_http_conditional_not_modified"] < 1:
        violations.append("server served no 304 (conditional counter is zero)")
    if counters["registry_http_range_partial"] < 1:
        violations.append("server served no 206 (range counter is zero)")
    return counters, _invariant(
        "revalidation", violations,
        f"{repo}:{tag} revalidated via 304 and read by range via 206, seen by "
        f"client and server alike",
    )


def smoke_config(seed: int = 2017) -> TiersConfig:
    """The reduced sweep the CI job runs: small enough for seconds, large
    enough that every tier and both swept dimensions do real work."""
    return TiersConfig(
        n_clients=20_000,
        n_requests=60_000,
        n_edges=4,
        n_shards=2,
        client_capacity_bytes=1 << 30,
        edge_capacity_fracs=(0.02, 0.20),
        policies=("lru", "gdsf", "static-top"),
        seed=seed,
    )


def run_tiers_exercise(
    dataset, config: TiersConfig | None = None
) -> TiersExerciseReport:
    """Run the reduced sweep + live-HTTP checks; see the module docstring."""
    config = config if config is not None else smoke_config()
    report = simulate_tiers(dataset, config)
    rerun = simulate_tiers(dataset, config)
    http_counters, revalidation = _exercise_http()
    return TiersExerciseReport(
        report=report,
        http_counters=http_counters,
        invariants=_check_report(report, rerun) + [revalidation],
    )
