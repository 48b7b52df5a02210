"""Tiered cache hierarchy simulation tests."""

import numpy as np
import pytest

from repro.synth.config import SyntheticHubConfig
from repro.synth.hubgen import generate_dataset
from repro.tiers import TiersConfig, run_tiers_exercise, simulate_tiers
from repro.tiers.sim import _client_tier_hits, _edge_of, _first_pair_mask


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SyntheticHubConfig.tiny(seed=5))


def _config(**overrides) -> TiersConfig:
    base = dict(
        n_clients=3000,
        n_requests=9000,
        n_edges=4,
        n_shards=2,
        client_capacity_bytes=1 << 30,
        edge_capacity_fracs=(0.02, 0.20),
        policies=("lru", "gdsf", "static-top"),
        seed=7,
    )
    base.update(overrides)
    return TiersConfig(**base)


@pytest.fixture(scope="module")
def report(dataset):
    return simulate_tiers(dataset, _config())


class TestClientTier:
    def test_admission_respects_capacity(self):
        # client 0: obj 0 (size 6) admitted, obj 1 (size 6) does not fit
        clients = np.array([0, 0, 0, 0, 1], dtype=np.int64)
        objects = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        sizes = np.array([6, 6, 6, 6, 6], dtype=np.int64)
        hits = _client_tier_hits(clients, objects, sizes, 2, capacity=8)
        # re-pull of admitted obj 0 hits; obj 1 was never admitted; client 1
        # is a different cache entirely
        assert hits.tolist() == [False, False, True, False, False]

    def test_no_eviction_means_unadmitted_forever(self):
        clients = np.zeros(6, dtype=np.int64)
        objects = np.array([0, 1, 1, 1, 0, 1], dtype=np.int64)
        sizes = np.array([5, 10, 10, 10, 5, 10], dtype=np.int64)
        hits = _client_tier_hits(clients, objects, sizes, 2, capacity=7)
        assert hits.tolist() == [False, False, False, False, True, False]

    def test_generous_capacity_hits_every_rereference(self):
        rng = np.random.default_rng(0)
        clients = rng.integers(0, 50, size=500).astype(np.int64)
        objects = rng.integers(0, 20, size=500).astype(np.int64)
        sizes = np.full(500, 3, dtype=np.int64)
        hits = _client_tier_hits(clients, objects, sizes, 20, capacity=1 << 20)
        pairs = clients * 20 + objects
        expected_hits = 500 - np.unique(pairs).size
        assert int(hits.sum()) == expected_hits

    def test_zero_ish_capacity_never_hits(self):
        rng = np.random.default_rng(1)
        clients = rng.integers(0, 10, size=200).astype(np.int64)
        objects = rng.integers(0, 5, size=200).astype(np.int64)
        sizes = np.full(200, 100, dtype=np.int64)
        hits = _client_tier_hits(clients, objects, sizes, 5, capacity=1)
        assert not hits.any()


class TestHelpers:
    def test_edge_assignment_is_stable_and_seeded(self):
        clients = np.arange(10_000, dtype=np.int64)
        a = _edge_of(clients, 8, seed=1)
        b = _edge_of(clients, 8, seed=1)
        c = _edge_of(clients, 8, seed=2)
        assert (a == b).all()
        assert (a != c).any()
        # every edge gets a share (region hash, not a constant)
        assert np.unique(a).size == 8

    def test_first_pair_mask(self):
        a = np.array([0, 0, 1, 0], dtype=np.int64)
        b = np.array([3, 3, 3, 4], dtype=np.int64)
        assert _first_pair_mask(a, b, 5).tolist() == [True, False, True, True]


class TestReport:
    def test_distinct_clients_is_exact(self, report):
        assert report.n_distinct_clients == 3000

    def test_byte_identical_rerun(self, dataset, report):
        again = simulate_tiers(dataset, _config())
        assert report.to_json().encode() == again.to_json().encode()

    def test_manifest_accounting_covers_every_pull(self, report):
        total = report.manifest_revalidations_304 + report.manifest_full_fetches
        assert total == report.config.n_requests
        assert report.manifest_revalidations_304 > 0

    def test_cells_cover_the_sweep(self, report):
        assert len(report.cells) == 2 * 3
        combos = {(c.policy, c.edge_capacity_frac) for c in report.cells}
        assert combos == {
            (p, f) for p in ("lru", "gdsf", "static-top") for f in (0.02, 0.20)
        }

    def test_shard_requests_sum_to_origin_requests(self, report):
        for cell in report.cells:
            assert sum(cell.origin_shard_requests) == cell.origin_requests

    def test_offload_monotone_in_edge_capacity(self, report):
        n = report.config.n_requests
        for policy in report.config.policies:
            by_frac = {
                c.edge_capacity_frac: c.origin_offload(n)
                for c in report.cells
                if c.policy == policy
            }
            assert by_frac[0.20] >= by_frac[0.02]

    def test_p99_at_least_manifest_revalidation_cost(self, report):
        from repro.tiers.sim import ORIGIN_OVERHEAD_S

        for cell in report.cells:
            assert cell.p99_virtual_s >= ORIGIN_OVERHEAD_S
            assert cell.mean_virtual_s > 0

    def test_single_tier_baseline_present(self, report):
        for cell in report.cells:
            assert 0.0 <= cell.single_tier_hit_ratio <= 1.0

    def test_report_json_schema(self, report):
        doc = report.to_dict()
        assert doc["version"] == 1
        assert doc["workload"]["n_distinct_clients"] == 3000
        assert doc["client_tier"]["hit_ratio"] == pytest.approx(
            report.client_hit_ratio
        )
        cell = doc["cells"][0]
        for key in (
            "policy", "edge_capacity_bytes", "edge_hit_ratio",
            "origin_offload", "origin_shard_requests", "p99_virtual_s",
            "single_tier_hit_ratio",
        ):
            assert key in cell


class TestConfigValidation:
    def test_more_clients_than_requests_rejected(self):
        with pytest.raises(ValueError, match="n_requests >= n_clients"):
            TiersConfig(n_clients=10, n_requests=5)

    def test_needs_an_edge_and_a_shard(self):
        with pytest.raises(ValueError, match="edge"):
            TiersConfig(n_clients=1, n_requests=1, n_edges=0)


class TestExercise:
    def test_smoke_exercise_holds_every_invariant(self, dataset):
        from repro.tiers.exercise import smoke_config

        config = smoke_config(seed=11)
        exercise = run_tiers_exercise(dataset, config)
        failed = [inv for inv in exercise.invariants if not inv.ok]
        assert exercise.ok and not failed, failed
        assert [inv.name for inv in exercise.invariants] == [
            "determinism", "coverage", "monotonicity", "revalidation",
        ]
        assert exercise.http_counters["registry_http_conditional_not_modified"] >= 1
        assert exercise.http_counters["registry_http_range_partial"] >= 1
        assert exercise.report.n_distinct_clients == config.n_clients
