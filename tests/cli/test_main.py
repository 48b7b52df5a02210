"""CLI tests: every subcommand drives the library end to end."""

import pytest

from repro.cli.main import build_parser, main
from tests.golden import assert_identity


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "hub.npz"
    assert main(["generate", "--scale", "tiny", "--seed", "5", "--out", str(path)]) == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--out", "x.npz"],
            ["info", "x.npz"],
            ["figures", "x.npz", "--figure", "fig24"],
            ["dedup", "x.npz"],
            ["ablate", "x.npz", "--experiment", "a1"],
            ["pipeline", "--scale", "tiny"],
            ["experiments", "--out", "E.md"],
            ["bench", "--scales", "tiny"],
            ["bench", "--columnar", "--scales", "tiny,mid", "--json"],
            ["scan", "--scale", "tiny", "--cache", "C", "--db-revision", "2"],
            ["scan", "--selfcheck", "--json"],
            ["scan", "--mode", "process", "--workers", "2", "--out", "S.json"],
            ["cluster", "--replicas", "3", "--seed", "7"],
            ["cluster", "--sharded", "--k", "2", "--vnodes", "16"],
            ["churn", "--seed", "7", "--epochs", "5", "--kill-after", "3"],
            ["churn", "--sharded", "--k", "2", "--vnodes", "16", "--json"],
            ["tiers", "--smoke", "--json"],
            ["tiers", "--scale", "tiny", "--clients", "1000", "--requests", "2000"],
            ["tiers", "--fracs", "0.01,0.2", "--policies", "lru,gdsf", "--out", "T.json"],
        ],
    )
    def test_accepts_documented_forms(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--out", "B.json"],
            ["bench", "--tiny"],
            ["tiers", "--bench-out", "B.json"],
        ],
    )
    def test_rejects_removed_bench_flags(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cluster_replica_default_defers_to_handler(self):
        """--replicas defaults to None so the handler can pick 3 or 6
        depending on --sharded."""
        args = build_parser().parse_args(["cluster"])
        assert args.replicas is None
        assert args.sharded is False
        sharded = build_parser().parse_args(["cluster", "--sharded"])
        assert sharded.k == 2 and sharded.vnodes == 32

    def test_churn_defaults(self):
        args = build_parser().parse_args(["churn"])
        assert args.replicas is None and args.kill_after is None
        assert args.epochs == 6 and args.seed == 7 and args.kill_index == 1


class TestGenerateInfo:
    def test_generate_writes_npz(self, dataset_file, capsys):
        assert dataset_file.exists()

    def test_info_prints_totals(self, dataset_file, capsys):
        assert main(["info", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "images" in out and "unique layers" in out
        assert "30" in out  # tiny scale


class TestFigures:
    def test_single_figure(self, dataset_file, capsys):
        assert main(["figures", str(dataset_file), "--figure", "fig24"]) == 0
        out = capsys.readouterr().out
        assert "fig24" in out and "count_ratio" in out

    def test_markdown_output(self, dataset_file, capsys):
        assert main(
            ["figures", str(dataset_file), "--figure", "fig5", "--markdown"]
        ) == 0
        out = capsys.readouterr().out
        assert "| metric | measured | paper" in out

    def test_unknown_figure_fails(self, dataset_file, capsys):
        assert main(["figures", str(dataset_file), "--figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_all_figures_default(self, dataset_file, capsys):
        assert main(["figures", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "fig29" in out


class TestDedupAblate:
    def test_dedup_study(self, dataset_file, capsys):
        assert main(["dedup", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "file dedup" in out and "layer sharing" in out

    def test_ablate_a1_only(self, dataset_file, capsys):
        assert main(["ablate", str(dataset_file), "--experiment", "a1"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "A2" not in out

    def test_ablate_all(self, dataset_file, capsys):
        assert main(["ablate", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "A2" in out


class TestStudySubcommands:
    def test_cache(self, dataset_file, capsys):
        assert main(
            ["cache", str(dataset_file), "--requests", "2000", "--seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "gdsf" in out and "hit" in out

    def test_cache_layer_granularity(self, dataset_file, capsys):
        assert main(
            ["cache", str(dataset_file), "--requests", "2000",
             "--granularity", "layer", "--seed", "5"]
        ) == 0
        assert "layer requests" in capsys.readouterr().out

    def test_restructure(self, dataset_file, capsys):
        assert main(["restructure", str(dataset_file), "--min-group-kb", "1"]) == 0
        out = capsys.readouterr().out
        assert "carved layout" in out and "file-dedup floor" in out

    def test_project(self, dataset_file, capsys):
        assert main(["project", str(dataset_file), "--days", "90"]) == 0
        out = capsys.readouterr().out
        assert "final dedup saving" in out

    def test_serve_print_and_exit(self, capsys):
        assert main(
            ["serve", "--scale", "tiny", "--seed", "5", "--port", "0",
             "--print-and-exit"]
        ) == 0
        out = capsys.readouterr().out
        assert "/v2/" in out and "search" in out

    def test_serve_endpoints_live(self, capsys):
        """While serving, the v2 endpoints actually answer."""
        import json
        import threading
        import urllib.request

        from repro.registry.http import RegistryHTTPServer
        from repro.registry.registry import Registry

        with RegistryHTTPServer(Registry()) as server:
            with urllib.request.urlopen(server.base_url + "/v2/") as response:
                assert json.loads(response.read()) == {}


class TestPipeline:
    def test_pipeline_with_outputs(self, tmp_path, capsys):
        ds_out = tmp_path / "measured.npz"
        profiles_out = tmp_path / "profiles.jsonl"
        assert main(
            [
                "pipeline", "--scale", "tiny", "--seed", "5",
                "--dataset", str(ds_out), "--profiles", str(profiles_out),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "crawl:" in out and "download:" in out and "analyze:" in out
        assert ds_out.exists() and profiles_out.exists()

        # the written dataset is loadable and consistent
        from repro.model.io import load_dataset, load_profiles_jsonl

        dataset = load_dataset(ds_out)
        layers, images = load_profiles_jsonl(profiles_out)
        assert dataset.n_layers == len(layers)
        assert dataset.n_images == len(images)


class TestBench:
    def test_bench_tiny_passes_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--scales", "tiny"]) == 0
        assert "7/7 checks ok" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_bench_unknown_scale_errors(self, capsys):
        assert main(["bench", "--scales", "galactic"]) == 2
        assert "unknown scale" in capsys.readouterr().err


class TestScan:
    def test_scan_cold_then_warm_same_findings(self, tmp_path, capsys):
        import json

        cache = tmp_path / "scans"
        out = tmp_path / "scan.json"
        argv = ["scan", "--scale", "tiny", "--seed", "5", "--mode", "serial",
                "--cache", str(cache), "--out", str(out)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "dedup savings" in cold and "0 served from cache" in cold
        doc = json.loads(out.read_text())
        assert doc["dedup_savings"]["unique_layer_scans"] == doc["n_unique_layers"]
        assert doc["dedup_savings"]["savings_ratio"] >= 1.0

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 extracted" in warm  # the cache answered every layer
        warm_doc = json.loads(out.read_text())
        del doc["cache"], warm_doc["cache"]
        assert warm_doc == doc

    def test_scan_selfcheck_passes(self, capsys):
        assert main(["scan", "--selfcheck", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck: PASS" in out


class TestChaos:
    def test_chaos_smoke_passes_and_is_deterministic(self, capsys):
        argv = ["chaos", "--seed", "7", "--plan", "smoke"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "all invariants hold" in first
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert_identity("chaos_smoke", first.encode())

    def test_chaos_json_output(self, capsys):
        import json

        assert main(
            ["chaos", "--seed", "7", "--plan", "none", "--scale", "tiny",
             "--requests", "40", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["faults"] == {}

    def test_chaos_unknown_plan_errors(self, capsys):
        assert main(["chaos", "--plan", "hurricane"]) == 2
        assert "unknown plan" in capsys.readouterr().err

    def test_chaos_kill_and_resume(self, tmp_path, capsys):
        argv = ["chaos", "--seed", "7", "--plan", "smoke", "--scale", "tiny",
                "--requests", "80", "--journal", str(tmp_path)]
        assert main(argv + ["--kill-after", "5"]) == 0
        assert "[partial]" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[resumed]" in out and "all invariants hold" in out


class TestTiers:
    def test_tiers_reduced_run_writes_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "tiers.json"
        argv = [
            "tiers", "--scale", "tiny", "--seed", "5",
            "--clients", "2000", "--requests", "6000",
            "--edges", "4", "--shards", "2",
            "--fracs", "0.02,0.2", "--policies", "lru,gdsf",
            "--out", str(out),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "distinct" in printed
        doc = json.loads(out.read_text())
        assert doc["workload"]["n_distinct_clients"] == 2000
        assert len(doc["cells"]) == 4

    def test_tiers_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "tiers", "--scale", "tiny", "--seed", "5",
            "--clients", "1500", "--requests", "4000",
            "--edges", "2", "--shards", "2",
            "--fracs", "0.05", "--policies", "lru",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
