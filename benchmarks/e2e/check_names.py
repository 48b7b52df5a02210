#!/usr/bin/env python3
"""Check that what ``run.py`` prints is what ``BENCHMARK.json`` declares.

Runs ``run.py --smoke`` once untraced and once traced (under 20 s each) and
checks that every workload and metric name matches ``[A-Za-z0-9_.-]+``, that
the names and units in each workload's result line equal the declared
end-to-end (untraced) and per-layer (traced) metrics, and that the counts stay
within 8 workloads / 16 end-to-end / 128 per-layer. Exits non-zero, naming the
difference, on the first one found.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def require(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"check_names: {message}")


def printed(trace: int) -> list[dict]:
    """The result line of every workload of one smoke run."""
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=False,
    )
    require(run.returncode == 0, f"run.py --smoke --trace {trace} exited {run.returncode}:\n{run.stderr}")
    return [json.loads(line) for line in run.stdout.splitlines() if line.startswith('{"correct"')]


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    declared = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for limit, names in ((8, workloads), (16, declared[0]), (128, declared[1])):
        require(len(names) <= limit, f"{len(names)} names where at most {limit} are allowed")
    every = workloads + [m["name"] for m in declared[0] + declared[1]]
    for name in every:
        require(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    require(len(set(every)) == len(every), "a name is used twice")

    for trace, metrics in declared.items():
        want = {m["name"]: m["unit"] for m in metrics}
        results = printed(trace)
        require(
            len(results) == len(workloads),
            f"--trace {trace}: {len(results)} result lines for {len(workloads)} workloads",
        )
        for workload, result in zip(workloads, results):
            require(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{workload}: result line has keys {sorted(result)}",
            )
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(
                got == want,
                f"{workload} --trace {trace}: printed and declared metrics differ: "
                f"{sorted(set(got.items()) ^ set(want.items()))}",
            )
            require(result["correct"] and result["failed"] == 0, f"{workload}: {result['failed']} failed")
    print(
        f"ok: {len(workloads)} workloads, {len(declared[0])} end-to-end and "
        f"{len(declared[1])} per-layer metrics printed as declared"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
