#!/usr/bin/env python3
"""The repo's end-to-end benchmark: five workloads, one command.

    python benchmarks/e2e/run.py --seed S [--workload W] [--trace] [--smoke]
    python benchmarks/e2e/run.py --aa R          # A/A check of the bounds

Every workload runs in its own child process (``PYTHONHASHSEED=0``, serial
mode, one load-generating thread). A child sets up K times, warms up, runs
timed passes of fixed work until ``--seconds`` have passed (at least N),
checks its outputs, prints every metric by name with its unit and, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. It exits non-zero when any operation or check failed. See
README.md beside this file for the protocol and the reasons behind it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: set-up repetitions and least number of timed passes of a full run
K_SETUPS = 5
N_PASSES = 15
#: a traced run: one set-up, then at least this many untraced passes (for a
#: quarter of ``--seconds``) and as many traced ones
TRACE_PASSES = 3
#: seconds between two runs of the calibration kernel during the timed phase
CALIBRATE_EVERY_S = 0.25
#: what the calibration kernel takes on the box the bounds were set on; time
#: metrics are reported as if the box ran the kernel in exactly this long
KERNEL_NOMINAL_S = 0.025

#: names of the two server-side samples read from ``/metrics``
REQUESTS = "registry_http_requests_total"
HANDLER_S = "registry_http_request_seconds_sum"

END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


# -- the calibration kernel ------------------------------------------------------------


class Kernel:
    """A fixed stdlib-only piece of work, timed between passes.

    The shared box speeds up and slows down by 15-25 % in episodes of seconds
    to minutes, wall and CPU time together. The kernel (gunzip + sha256 + JSON
    + a bytecode loop, the same kinds of work the workloads do, none of it
    code of this repository) measures how fast the box is *right now*; every
    timed interval is scaled by ``nominal / (kernel time around it)``. A
    change to the repository cannot move the kernel, so it cannot hide in the
    scaling; a slow minute of the box moves both and cancels.
    """

    def __init__(self) -> None:
        noise = hashlib.sha256(b"kernel").digest() * 2048
        self._blob = zlib.compress(noise + b"another layer of files; " * 8192, 6)
        self._doc = json.dumps(
            [{"path": f"usr/lib/f{i:06d}.so", "digest": f"sha256:{i:064x}", "size": i} for i in range(400)]
        )
        #: (when, seconds the kernel took)
        self.samples: list[tuple[float, float]] = []

    def _half(self) -> float:
        start = time.perf_counter()
        for _ in range(8):
            hashlib.sha256(zlib.decompress(self._blob)).digest()
            json.loads(self._doc)
        total = 0
        for i in range(150_000):
            total += i * i % 7
        return time.perf_counter() - start

    def run(self) -> None:
        """Time the kernel now: twice the faster of two halves, so that a
        burst of a few milliseconds in one half does not read as a slow box."""
        start = time.perf_counter()
        self.samples.append((start, 2.0 * min(self._half(), self._half())))

    def speed(self, start: float, end: float) -> float:
        """Kernel time around [start, end] over nominal: >1 on a slow box."""
        before = [took for when, took in self.samples if when <= start]
        after = [took for when, took in self.samples if when >= end]
        around = before[-1:] + after[:1]
        return statistics.fmean(around) / KERNEL_NOMINAL_S


# -- one workload, in this process ---------------------------------------------------------


def _environment() -> dict:
    import numpy

    try:
        model = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        model = platform.processor() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


class Child:
    """Runs one workload and accounts for what it did."""

    def __init__(self, args: argparse.Namespace):
        sys.path.insert(0, str(ROOT / "src"))
        import repro

        if ROOT not in Path(repro.__file__).resolve().parents:
            raise SystemExit(f"repro was imported from {repro.__file__}, not this checkout")
        import workloads

        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
        self.env = workloads.Env(seed=args.seed, smoke=args.smoke, workdir=self.workdir)
        self.kernel = Kernel()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.state = None

    # -- phases ------------------------------------------------------------------------

    def prepare(self, tracer=None, pass_id: int = 0) -> None:
        """The untimed part of a pass: empty the cache, start a fresh server."""
        if tracer is not None:
            tracer.current_pass = pass_id
        with tracer.span("prepare") if tracer else nullcontext():
            self.workload.before_pass(self.state)
        gc.collect()

    def timed(self, tracer=None):
        """The timed part: (result, start, end, cpu seconds)."""
        with tracer.span("pass") if tracer else nullcontext():
            start, cpu = time.perf_counter(), time.process_time()
            result = self.workload.run_pass(self.state)
            return result, start, time.perf_counter(), time.process_time() - cpu

    def one_pass(self):
        self.prepare()
        return self.timed()

    def account(self, result) -> None:
        self.workload.after_pass(self.state, result)
        self.attempted += result.attempted
        self.failed += result.failed
        self.reasons += result.reasons[: max(0, 16 - len(self.reasons))]

    def setup_once(self) -> tuple[float, float]:
        """Set up from scratch, the previous state freed first: (start, end)."""
        if self.state is not None:
            self.workload.teardown(self.state)
            self.state = None
        gc.collect()
        self.kernel.run()
        start = time.perf_counter()
        self.state = self.workload.setup(self.env)
        end = time.perf_counter()
        self.kernel.run()
        return start, end

    def verify(self, results) -> None:
        problems = self.workload.verify(self.state, results)
        self.attempted += 1 + len(problems)
        self.failed += len(problems)
        self.reasons += [f"check failed: {p}" for p in problems]

    # -- the untraced run: every end-to-end metric -----------------------------------------

    def measure(self) -> dict:
        args, kernel, workload = self.args, self.kernel, self.workload
        k_setups, n_passes = (1, 2) if args.smoke else (K_SETUPS, N_PASSES)
        setups = []
        for _ in range(k_setups):
            start, end = self.setup_once()
            setups.append({"raw_s": end - start, "speed": kernel.speed(start, end)})

        result, *_ = self.one_pass()  # warm-up, discarded
        self.account(result)
        gc.collect()
        gc.freeze()

        passes, results = [], []
        kernel.run()
        deadline = time.perf_counter() + args.seconds
        while len(passes) < n_passes or time.perf_counter() < deadline:
            result, start, end, cpu = self.one_pass()
            if end - kernel.samples[-1][0] >= CALIBRATE_EVERY_S:
                kernel.run()
            self.account(result)
            if results:
                results[-1].output = None  # every pass keeps its identity only
            results.append(result)
            passes.append({"start": start, "end": end, "cpu_s": cpu, "items": result.items})
        kernel.run()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.unfreeze()

        for timed, result in zip(passes, results):
            speed = kernel.speed(timed["start"], timed["end"])
            timed.update(
                speed=speed,
                wall_s=(timed["end"] - timed["start"]) / speed,
                raw_wall_s=timed["end"] - timed["start"],
                cpu_s=timed["cpu_s"] / speed,
            )
        # a serve-* call's latency is scaled like the pass it belongs to
        latencies = [
            1e3 * latency / timed["speed"]
            for timed, result in zip(passes, results)
            for latency in result.latencies
        ]
        self.verify(results)

        median_pass = statistics.median(t["wall_s"] / t["items"] for t in passes)
        median_cpu = statistics.median(t["cpu_s"] / t["items"] for t in passes)
        metrics = {
            "setup_s": statistics.median(s["raw_s"] / s["speed"] for s in setups),
            "items_per_s": 1.0 / median_pass,
            "cpu_us_per_item": 1e6 * median_cpu,
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": (
                statistics.median(latencies)
                if latencies
                else 1e3 * statistics.median(t["wall_s"] for t in passes)
            ),
        }
        return {
            "k_setups": k_setups,
            "n_passes": len(passes),
            "metrics": {n: {"value": v, "unit": END_TO_END[n]["unit"]} for n, v in metrics.items()},
            "raw": {
                "setup_s": statistics.median(s["raw_s"] for s in setups),
                "pass_s": statistics.median(t["raw_wall_s"] for t in passes),
                "kernel_s": statistics.median(took for _, took in kernel.samples),
                "kernel_nominal_s": KERNEL_NOMINAL_S,
            },
            "setups": setups,
            "passes": [
                {k: t[k] for k in ("wall_s", "raw_wall_s", "cpu_s", "speed", "items")} for t in passes
            ],
            "pass_wall_s": _quartiles([t["wall_s"] for t in passes]),
            "pass_cpu_s": _quartiles([t["cpu_s"] for t in passes]),
            "op_latency_ms": _quartiles(latencies),
        }

    # -- the traced run: every per-layer metric ----------------------------------------------

    def trace(self) -> dict:
        import trace as tracing

        args, workload = self.args, self.workload
        tracer = tracing.Tracer(rebind_in=("repro", "workloads"))
        tracer.install()
        with tracer.span("setup"):
            self.setup_once()
        tracer.uninstall()

        result, *_ = self.one_pass()  # warm-up
        self.account(result)
        untraced, results = [], []
        deadline = time.perf_counter() + args.seconds / 4.0
        while len(untraced) < (2 if args.smoke else TRACE_PASSES) or time.perf_counter() < deadline:
            result, start, end, _ = self.one_pass()
            self.account(result)
            untraced.append(end - start)
        n_passes = len(untraced)

        tracer.install()
        traced, server_requests, server_handler_s, failed_ops = [], 0.0, 0.0, 0
        for pass_id in range(n_passes):
            self.prepare(tracer, pass_id)
            before = workload.server_metrics(self.state)
            result, start, end, _ = self.timed(tracer)
            if before is not None:
                after = workload.server_metrics(self.state)
                # the second snapshot counts its own /metrics request
                requests = after[REQUESTS] - before[REQUESTS] - 1
                server_requests += requests
                server_handler_s += after[HANDLER_S] - before.get(HANDLER_S, 0.0)
                if requests != workload.requests_per_pass(self.state):
                    result.fail(
                        f"server counted {requests:.0f} requests in a pass that "
                        f"sends {workload.requests_per_pass(self.state)}"
                    )
            self.account(result)
            failed_ops += result.failed
            if results:
                results[-1].output = None
            results.append(result)
            traced.append(end - start)
        floor_s = workload.floor(self.state)
        tracer.uninstall()
        self.verify(results)

        spans = Path(args.out) / f"{workload.name}.seed{args.seed}.spans.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        metrics = tracing.per_layer_metrics(
            tracer,
            floor_s=floor_s,
            server_requests=server_requests / n_passes,
            server_handler_s=server_handler_s / n_passes,
            failed_ops=failed_ops / n_passes,
            overhead_ratio=statistics.median(traced) / statistics.median(untraced),
        )
        analyze = tracer.layer("analyzer.analyze")
        if analyze.busy_s and analyze.self_s > 0.10 * analyze.busy_s:
            print(
                f"warning: analyzer.analyze.self_s is {analyze.self_s / analyze.busy_s:.0%} "
                "of busy_s: the spans no longer account for the pass",
                file=sys.stderr,
            )
        for target in tracer.missing:
            print(f"warning: {target} no longer exists; its metrics read 0", file=sys.stderr)
        return {
            "n_passes": n_passes,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            "missing_callables": tracer.missing,
            "spans_file": spans.name,
            "untraced_pass_s": untraced,
            "traced_pass_s": traced,
        }

    # -- the whole run ---------------------------------------------------------------------

    def run(self) -> int:
        args = self.args
        environment = _environment()
        load_start = os.getloadavg()
        if load_start[0] > 0.5 * environment["nproc"]:
            print(
                f"warning: 1-minute load average {load_start[0]:.2f} exceeds half of "
                f"{environment['nproc']} processors; timings will be noisy",
                file=sys.stderr,
            )
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            body = self.trace() if args.trace else self.measure()
            sizes = self.workload.sizes(self.state)
        finally:
            if self.state is not None:
                self.workload.teardown(self.state)
            shutil.rmtree(self.workdir, ignore_errors=True)
        document = {
            "workload": args.workload,
            "item": self.workload.item,
            "seed": args.seed,
            "smoke": args.smoke,
            "traced": bool(args.trace),
            "seconds": args.seconds,
            "environment": {**environment, "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
            "corpus": sizes,
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "reasons": self.reasons,
            **body,
        }
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        kind = "trace" if args.trace else "e2e"
        (out / f"{args.workload}.seed{args.seed}.{kind}.json").write_text(
            json.dumps(document, indent=1) + "\n"
        )

        print(f"== {args.workload}  seed {args.seed}  {kind}  corpus {sizes}")
        for name, metric in body["metrics"].items():
            print(f"{name:52s} {metric['value']:16.6f} {metric['unit']}")
        print(f"{'ops_attempted':52s} {self.attempted:16d} count")
        print(f"{'ops_failed':52s} {self.failed:16d} count")
        for reason in self.reasons:
            print(f"FAILED: {reason}")
        print(
            json.dumps(
                {
                    "correct": self.failed == 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": body["metrics"],
                }
            )
        )
        return 1 if self.failed else 0


# -- the parent: one child per workload ------------------------------------------------------


def spawn(args: argparse.Namespace, workload: str, out: Path, seed: int) -> int:
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    child = subprocess.run(command, env={**os.environ, "PYTHONHASHSEED": "0"}, check=False)
    return child.returncode


def run_all(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    codes = [spawn(args, workload, Path(args.out), args.seed) for workload in workloads]
    return max(codes)


# -- A/A: do two sets of runs of the same code agree within the bounds? -----------------------


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_aa(args: argparse.Namespace) -> int:
    """Two interleaved sets (A B A B ...) of R full runs; run i of either set
    uses seed + i, as the driver gives every run another seed."""
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    base = Path(args.out) / "aa"
    shutil.rmtree(base, ignore_errors=True)
    values: dict[tuple[str, str, str], list[float]] = {}
    for i in range(args.aa):
        for side in "AB":
            out = base / f"{side}{i}"
            for workload in workloads:
                if spawn(args, workload, out, args.seed + i) != 0:
                    print(f"A/A: {workload} failed in run {side}{i}", file=sys.stderr)
                    return 1
                doc = json.loads((out / f"{workload}.seed{args.seed + i}.e2e.json").read_text())
                for name, metric in doc["metrics"].items():
                    values.setdefault((workload, name, side), []).append(metric["value"])
    rows, ok = [], True
    print(f"\n{'workload':14s} {'metric':16s} {'median A':>12s} {'median B':>12s} "
          f"{'B vs A':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")  # fmt: skip
    for workload in workloads:
        for name, metric in END_TO_END.items():
            a, b = values[workload, name, "A"], values[workload, name, "B"]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a * (1 if metric["better"] == "lower" else -1)
            spreads = (_spread(a), _spread(b)) if len(a) > 1 else (0.0, 0.0)
            held = abs(worse) <= metric["bound"] and (
                name == "setup_s" or max(spreads) <= metric["bound"]
            )
            ok &= held
            rows.append(
                {
                    "workload": workload, "metric": name, "unit": metric["unit"],
                    "median_a": median_a, "median_b": median_b, "b_worse_by": worse,
                    "spread_a": spreads[0], "spread_b": spreads[1],
                    "bound": metric["bound"], "held": held, "a": a, "b": b,
                }  # fmt: skip
            )
            print(f"{workload:14s} {name:16s} {median_a:12.4f} {median_b:12.4f} {worse:+8.3f} "
                  f"{spreads[0]:9.3f} {spreads[1]:9.3f} {metric['bound']:6.2f}"
                  f"{'' if held else '  <-- not held'}")  # fmt: skip
    result = {"runs_per_set": args.aa, "first_seed": args.seed, "seconds": args.seconds, "held": ok, "rows": rows}
    # only a run of all five workloads replaces the committed result
    written = (base if args.workload else HERE) / "AA_RESULT.json"
    written.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nA/A {'held' if ok else 'NOT held'}; written to {written}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all five")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="K=1, N=2, small corpora")
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=None, metavar="R")
    parser.add_argument("--out", default=str(HERE / "results"), help="directory of result files")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(SPEC["run_seconds"])
    if args.child:
        return Child(args).run()
    if args.aa is not None:
        return run_aa(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
