"""Paired end-to-end runs: a change against its parent, the ROADMAP protocol.

Run:  python tools/pairbench.py PARENT CHANGE --workload serve-push
          [--seed 2017] [--pairs 10] [--seconds 8] [--log runs.jsonl]
      python tools/pairbench.py --summarize runs.jsonl

PARENT and CHANGE are two checkouts of the repository, e.g. this tree and
``git worktree add ../parent HEAD~1``. Each pair runs
``benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0`` once
from each checkout, one after the other, the order flipping from pair to
pair so that a drift of the box does not favour either side. Every run's
last stdout line (the JSON object ``run.py`` ends with) is appended to the
log, tagged with its side and pair, so a summary can be recomputed later
(start a fresh log for each invocation: pairs are matched by number).

The summary prints, per end-to-end metric of ``BENCHMARK.json``: the
median [min-max] of each side, the parent's interquartile range, the
change's median over the parent's, and in how many pairs the change was
ahead (better in its metric's direction). A claim holds when the change is
ahead in at least nine pairs of ten and its median is farther from the
parent's than the parent's own IQR.

Allocator control. A timed pass can be moved by what its untimed set-up
left in the allocator: glibc raises its mmap threshold when a large
chunk is freed, so a set-up that frees a buffer of many megabytes makes
every later blob-sized allocation a heap hit, and one that does not
leaves them to fresh mmaps and page faults. To tell such a shift from a
change in the timed code, run the pairs again with the threshold pinned:

      MALLOC_MMAP_THRESHOLD_=33554432 python tools/pairbench.py ...

Each run inherits this process's environment, and ``run.py`` hands its
environment on to the workload child it starts, so the pinned threshold
reaches both sides alike; nothing in either checkout needs a flag. If a
gap closes under the pin, the set-up's allocator state made it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def metric_directions() -> dict[str, str]:
    """End-to-end metric name -> ``"lower"`` or ``"higher"`` is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One full ``run.py`` run from *checkout*: its final JSON object."""
    with tempfile.TemporaryDirectory(prefix="pairbench-") as out:
        command = [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", out,
        ]  # fmt: skip
        done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"no result line from {checkout}:\n{done.stdout}{done.stderr}")


@dataclass(frozen=True)
class Row:
    metric: str
    better: str
    parent: list[float]
    change: list[float]

    @property
    def parent_iqr(self) -> float:
        if len(self.parent) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.parent, n=4)
        return q3 - q1

    @property
    def ratio(self) -> float:
        return statistics.median(self.change) / statistics.median(self.parent)

    @property
    def ahead(self) -> int:
        """Pairs in which the change beat the parent."""
        sign = 1 if self.better == "higher" else -1
        return sum(sign * (c - p) > 0 for p, c in zip(self.parent, self.change))

    @property
    def beyond_iqr(self) -> bool:
        gap = abs(statistics.median(self.change) - statistics.median(self.parent))
        return gap > self.parent_iqr


def summarize(records: list[dict]) -> tuple[list[Row], int]:
    """Rows from logged runs (``side``, ``pair``, ``failed``, ``metrics``)
    plus the number of failed operations over all runs. Only complete
    pairs count; runs are matched by their pair number."""
    by_pair: dict[int, dict[str, dict]] = {}
    for record in records:
        by_pair.setdefault(record["pair"], {})[record["side"]] = record
    pairs = [by_pair[k] for k in sorted(by_pair) if len(by_pair[k]) == len(SIDES)]
    rows = [
        Row(
            metric=name,
            better=better,
            parent=[pair["parent"]["metrics"][name]["value"] for pair in pairs],
            change=[pair["change"]["metrics"][name]["value"] for pair in pairs],
        )
        for name, better in metric_directions().items()
        if pairs and name in pairs[0]["parent"]["metrics"]
    ]
    failed = sum(record.get("failed", 0) for record in records)
    return rows, failed


def _spread(values: list[float]) -> str:
    return f"{statistics.median(values):.4g} [{min(values):.4g}-{max(values):.4g}]"


def render(rows: list[Row], failed: int) -> str:
    n = len(rows[0].parent) if rows else 0
    lines = [
        f"{n} pairs; failed ops over all runs: {failed}",
        f"{'metric':16s} {'parent median [min-max]':>30s} {'change median [min-max]':>30s} "
        f"{'parent IQR':>11s} {'ratio':>7s} {'ahead':>7s}",
    ]
    for row in rows:
        lines.append(
            f"{row.metric:16s} {_spread(row.parent):>30s} {_spread(row.change):>30s} "
            f"{row.parent_iqr:11.4g} {row.ratio:7.3f} {row.ahead:>3d}/{n:<3d}"
            + ("  (gap > IQR)" if row.beyond_iqr else "")
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", nargs="?", type=Path, help="checkout of the change")
    parser.add_argument("--workload", help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--log", type=Path, help="append every run's result line here")
    parser.add_argument("--summarize", type=Path, metavar="LOG", help="only summarize a log")
    args = parser.parse_args(argv)

    if args.summarize is not None:
        records = [json.loads(line) for line in args.summarize.read_text().splitlines() if line]
    else:
        if args.parent is None or args.change is None or args.workload is None:
            parser.error("PARENT, CHANGE and --workload are required unless --summarize")
        checkouts = {"parent": args.parent, "change": args.change}
        records = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], args.workload, args.seed, args.seconds)
                record = {"side": side, "pair": pair, "workload": args.workload,
                          "seed": args.seed, **result}  # fmt: skip
                records.append(record)
                if args.log is not None:
                    with args.log.open("a") as log:
                        log.write(json.dumps(record) + "\n")
                print(f"pair {pair} {side}: " + " ".join(
                    f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                ), flush=True)  # fmt: skip
    rows, failed = summarize(records)
    print(render(rows, failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
