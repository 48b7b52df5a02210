"""Documentation health checks."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class TestApiDocs:
    def test_generator_runs_and_covers_api(self, tmp_path):
        out = tmp_path / "API.md"
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools/gen_api_docs.py"), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        body = out.read_text()
        for symbol in [
            "class `HubDataset", "class `Registry", "`generate_dataset",
            "class `Downloader", "`compute_all_figures", "class `DiskBlobStore",
            "class `LRUCache", "`restructure",
        ]:
            assert symbol in body, f"API.md missing {symbol}"

    def test_checked_in_copy_exists(self):
        api = ROOT / "docs" / "API.md"
        assert api.exists()
        assert api.stat().st_size > 20_000


class TestNarrativeDocs:
    def test_readme_mentions_core_surfaces(self):
        readme = (ROOT / "README.md").read_text()
        for token in ["pip install -e .", "pytest tests/", "benchmarks", "EXPERIMENTS.md"]:
            assert token in readme

    def test_design_covers_every_figure(self):
        design = (ROOT / "DESIGN.md").read_text()
        for i in range(3, 30):
            assert re.search(rf"\bF{i}\b|\bFig\.? ?{i}\b", design), f"figure {i} missing"

    def test_experiments_record_is_fresh_format(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        assert "## fig29" in experiments
        assert "Curve anchors" in experiments
        assert "## A2" in experiments

    def test_every_module_has_docstring(self):
        import importlib
        import pkgutil

        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"
