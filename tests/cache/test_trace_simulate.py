"""Tests for trace generation and cache simulation."""

import numpy as np
import pytest

from repro.cache.simulate import simulate, static_top_policy, sweep
from repro.cache.trace import generate_trace
from repro.cache.policies import LRUCache


class TestTrace:
    def test_image_trace_shape(self, small_dataset):
        trace = generate_trace(small_dataset, 5_000, seed=1)
        assert trace.n_requests == 5_000
        assert trace.granularity == "image"
        assert trace.object_ids.max() < small_dataset.n_images

    def test_popularity_respected(self, small_dataset):
        trace = generate_trace(small_dataset, 20_000, seed=1)
        counts = np.bincount(trace.object_ids, minlength=small_dataset.n_images)
        nginx = small_dataset.repo_names.index("nginx")
        # nginx has 650M pulls -> it must dominate the trace
        assert counts[nginx] == counts.max()

    def test_layer_trace(self, small_dataset):
        trace = generate_trace(small_dataset, 5_000, granularity="layer", seed=1)
        assert trace.granularity == "layer"
        assert trace.object_ids.max() < small_dataset.n_layers
        # shared layers (the canonical empty layer, base stacks) are hit far
        # more often than any single private layer
        counts = np.bincount(trace.object_ids, minlength=small_dataset.n_layers)
        assert counts.max() >= 2 * np.median(counts[counts > 0])
        assert counts[0] > 0  # the canonical empty layer shows up

    def test_locality_increases_rereferences(self, small_dataset):
        flat = generate_trace(small_dataset, 5_000, seed=1)
        local = generate_trace(small_dataset, 5_000, locality=0.5, window=8, seed=1)

        def immediate_rerefs(ids):
            return int((ids[1:] == ids[:-1]).sum())

        assert immediate_rerefs(local.object_ids) > immediate_rerefs(flat.object_ids)

    def test_validation(self, small_dataset):
        with pytest.raises(ValueError):
            generate_trace(small_dataset, 0)
        with pytest.raises(ValueError):
            generate_trace(small_dataset, 10, granularity="blob")

    def test_deterministic(self, small_dataset):
        a = generate_trace(small_dataset, 1_000, seed=9)
        b = generate_trace(small_dataset, 1_000, seed=9)
        assert (a.object_ids == b.object_ids).all()

    def test_working_set(self, small_dataset):
        trace = generate_trace(small_dataset, 1_000, seed=1)
        assert 0 < trace.working_set_bytes() <= trace.object_sizes.sum()


class TestSimulate:
    def test_infinite_cache_hits_everything_after_first(self, small_dataset):
        trace = generate_trace(small_dataset, 2_000, seed=1)
        result = simulate(trace, LRUCache(int(trace.object_sizes.sum()) + 1))
        distinct = np.unique(trace.object_ids).size
        assert result.hits == trace.n_requests - distinct
        assert result.byte_hit_ratio <= 1.0

    def test_tiny_cache_mostly_misses(self, small_dataset):
        trace = generate_trace(small_dataset, 2_000, seed=1)
        result = simulate(trace, LRUCache(1))
        assert result.hit_ratio == 0.0

    def test_skew_gives_good_hit_ratio_at_small_capacity(self, small_dataset):
        """The paper's caching claim, now under an online policy: a cache
        holding ~5 % of the working set already absorbs most requests."""
        trace = generate_trace(small_dataset, 20_000, seed=1)
        capacity = int(0.05 * trace.working_set_bytes())
        result = simulate(trace, LRUCache(capacity))
        assert result.hit_ratio > 0.5

    def test_static_top_oracle(self, small_dataset):
        trace = generate_trace(small_dataset, 10_000, seed=1)
        capacity = int(0.10 * trace.working_set_bytes())
        oracle = simulate(trace, static_top_policy(trace, capacity))
        assert oracle.hit_ratio > 0.4

    def test_sweep_covers_grid(self, small_dataset):
        trace = generate_trace(small_dataset, 3_000, seed=1)
        results = sweep(trace, ["lru", "lfu"], [10_000_000, 100_000_000])
        assert len(results) == 2 * 3  # 2 capacities x (2 policies + static top)
        names = {r.policy for r in results}
        assert names == {"lru", "lfu", "static-top"}

    def test_bigger_cache_never_hurts_much(self, small_dataset):
        """LRU hit ratio should broadly improve with capacity."""
        trace = generate_trace(small_dataset, 10_000, seed=1)
        ws = trace.working_set_bytes()
        small = simulate(trace, LRUCache(max(1, int(0.01 * ws))))
        big = simulate(trace, LRUCache(int(0.5 * ws)))
        assert big.hit_ratio >= small.hit_ratio

    def test_frequency_aware_policy_keeps_up_with_fifo(self, small_dataset):
        """On the popularity-skewed image trace, LFU or GDSF is never more
        than 2 points behind FIFO, and every policy gains with capacity."""
        trace = generate_trace(small_dataset, 5_000, locality=0.2, seed=7)
        ws = trace.working_set_bytes()
        capacities = [int(0.01 * ws), int(0.05 * ws), int(0.20 * ws)]
        policies = ["fifo", "lru", "lfu", "gdsf"]
        results = sweep(trace, policies, capacities)
        hit = {(r.policy, r.capacity_bytes): r.hit_ratio for r in results}
        for capacity in capacities:
            best = max(hit[("lfu", capacity)], hit[("gdsf", capacity)])
            assert best >= hit[("fifo", capacity)] - 0.02
        for policy in policies:
            assert hit[(policy, capacities[-1])] >= hit[(policy, capacities[0])]

    def test_layer_cache_absorbs_shared_layers(self, small_dataset):
        """Layer sharing makes a cache of 5 % of the layer working set hit
        on more than 30 % of layer requests under the best policy."""
        trace = generate_trace(small_dataset, 5_000, granularity="layer", locality=0.2, seed=7)
        capacity = int(0.05 * trace.working_set_bytes())
        results = sweep(trace, ["fifo", "lru", "lfu", "gdsf"], [capacity])
        assert max(r.hit_ratio for r in results) > 0.3
