"""Load-generator engine tests: closed/open loop, virtual/wall timing."""

import pytest

from repro.cache import generate_trace
from repro.cache.policies import GDSFCache
from repro.downloader import CachingProxySession, NetworkModel, SimulatedSession
from repro.loadgen import LoadConfig, LoadGenerator, PullOp, requests_from_trace
from repro.synth import SyntheticHubConfig, generate_dataset, materialize_registry


@pytest.fixture(scope="module")
def world():
    dataset = generate_dataset(SyntheticHubConfig.tiny(seed=11))
    registry, truth = materialize_registry(dataset, fail_share=0.0, seed=11)
    trace = generate_trace(dataset, 60, locality=0.2, seed=11)
    ops = requests_from_trace(trace, dataset, truth)
    return dataset, registry, truth, ops


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(workers=0)
        with pytest.raises(ValueError):
            LoadConfig(mode="burst")
        with pytest.raises(ValueError):
            LoadConfig(timing="cpu")
        with pytest.raises(ValueError):
            LoadConfig(mode="open", arrival_rate_rps=0)


class TestClosedLoopVirtual:
    def test_report_has_throughput_and_percentiles(self, world):
        _, registry, _, ops = world
        report = LoadGenerator(SimulatedSession(registry)).run(
            ops, LoadConfig(workers=4, seed=0)
        )
        assert report.timing == "virtual"
        assert report.requests == len(ops)
        assert report.errors == 0
        assert report.requests_per_s > 0
        assert report.bytes_per_s > 0
        for kind in ("manifest", "blob"):
            q = report.latency[kind]
            assert 0 < q["p50"] <= q["p90"] <= q["p99"] <= q["max"]

    def test_deterministic_for_fixed_seed(self, world):
        _, registry, _, ops = world
        reports = [
            LoadGenerator(SimulatedSession(registry, seed=3))
            .run(ops, LoadConfig(workers=4, seed=3))
            .to_dict()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_more_workers_more_throughput(self, world):
        _, registry, _, ops = world
        solo = LoadGenerator(SimulatedSession(registry)).run(
            ops, LoadConfig(workers=1)
        )
        fleet = LoadGenerator(SimulatedSession(registry)).run(
            ops, LoadConfig(workers=8)
        )
        assert fleet.duration_s < solo.duration_s
        assert fleet.requests_per_s > solo.requests_per_s
        # same work, whatever the fleet size
        assert fleet.requests == solo.requests
        assert fleet.bytes_total == solo.bytes_total

    def test_latency_matches_network_model(self, world):
        _, registry, _, ops = world
        model = NetworkModel(request_overhead_s=0.1, bandwidth_bytes_per_s=1e9)
        report = LoadGenerator(SimulatedSession(registry, model)).run(
            ops, LoadConfig(workers=2)
        )
        # every op pays at least the request overhead
        assert report.latency["manifest"]["min"] >= 0.1
        assert report.latency["blob"]["min"] >= 0.1

    def test_errors_counted_not_fatal(self, world):
        _, registry, _, ops = world
        bad = ops + [PullOp(kind="blob", digest="sha256:" + "0" * 64)]
        report = LoadGenerator(SimulatedSession(registry)).run(
            bad, LoadConfig(workers=2)
        )
        assert report.errors == 1
        # errored requests still count as attempted
        assert report.requests == len(bad)


class TestProxyVirtual:
    def test_proxy_hits_cut_latency_and_report_ratio(self, world):
        _, registry, _, ops = world
        upstream = SimulatedSession(registry)
        proxy = CachingProxySession(
            upstream, GDSFCache(max(1, registry.blobs.total_bytes()))
        )
        doubled = ops + ops  # second pass hits the proxy
        report = LoadGenerator(proxy).run(doubled, LoadConfig(workers=4))
        assert report.timing == "virtual"
        assert report.proxy_hit_ratio is not None
        assert report.proxy_hit_ratio > 0.4
        bare = LoadGenerator(SimulatedSession(registry)).run(
            doubled, LoadConfig(workers=4)
        )
        assert report.duration_s < bare.duration_s

    def test_proxy_run_deterministic(self, world):
        _, registry, _, ops = world
        def once():
            proxy = CachingProxySession(
                SimulatedSession(registry),
                GDSFCache(max(1, registry.blobs.total_bytes() // 4)),
            )
            return LoadGenerator(proxy).run(ops + ops, LoadConfig(workers=4)).to_dict()

        assert once() == once()


class TestOpenLoopVirtual:
    def test_queueing_shows_in_latency(self, world):
        _, registry, _, ops = world
        session = SimulatedSession(registry)
        closed = LoadGenerator(session).run(ops, LoadConfig(workers=2))
        # offer load well beyond capacity: latency must exceed service time
        swamped = LoadGenerator(SimulatedSession(registry)).run(
            ops,
            LoadConfig(
                workers=2,
                mode="open",
                arrival_rate_rps=100 * closed.requests_per_s,
                seed=0,
            ),
        )
        assert swamped.latency["blob"]["p99"] > closed.latency["blob"]["p99"]

    def test_underload_keeps_latency_near_service_time(self, world):
        _, registry, _, ops = world
        closed = LoadGenerator(SimulatedSession(registry)).run(
            ops, LoadConfig(workers=4)
        )
        idle = LoadGenerator(SimulatedSession(registry)).run(
            ops,
            LoadConfig(
                workers=4,
                mode="open",
                arrival_rate_rps=closed.requests_per_s / 10,
                seed=0,
            ),
        )
        # arrival-bound, not capacity-bound: duration stretches out
        assert idle.duration_s > closed.duration_s
        assert idle.latency["blob"]["p50"] < 2 * closed.latency["blob"]["p99"]

    def test_open_loop_deterministic(self, world):
        _, registry, _, ops = world
        def once():
            return (
                LoadGenerator(SimulatedSession(registry, seed=1))
                .run(ops, LoadConfig(workers=3, mode="open",
                                     arrival_rate_rps=50.0, seed=9))
                .to_dict()
            )

        assert once() == once()


class TestWallClock:
    def test_http_session_uses_wall_timing(self, world):
        from repro.registry.http import HTTPSession, RegistryHTTPServer

        _, registry, _, ops = world
        with RegistryHTTPServer(registry) as server, HTTPSession(server.base_url) as session:
            report = LoadGenerator(session).run(ops[:30], LoadConfig(workers=4))
        assert report.timing == "wall"
        assert report.requests == 30
        assert report.duration_s > 0
        assert report.requests_per_s > 0

    def test_virtual_timing_rejected_without_model(self, world):
        from repro.registry.http import HTTPSession

        session = HTTPSession("http://127.0.0.1:9")  # never contacted
        with pytest.raises(ValueError):
            LoadGenerator(session).run([], LoadConfig(timing="virtual"))


class TestReport:
    def test_render_mentions_the_essentials(self, world):
        _, registry, _, ops = world
        report = LoadGenerator(SimulatedSession(registry)).run(
            ops, LoadConfig(workers=2)
        )
        text = report.render()
        assert "req/s" in text
        assert "p99" in text
        assert "closed-loop" in text

    def test_to_dict_round_numbers(self, world):
        _, registry, _, ops = world
        report = LoadGenerator(SimulatedSession(registry)).run(
            ops, LoadConfig(workers=2)
        )
        doc = report.to_dict()
        assert doc["requests"] == len(ops)
        assert doc["requests_per_s"] == pytest.approx(
            doc["requests"] / doc["duration_s"]
        )
