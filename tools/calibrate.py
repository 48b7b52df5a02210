"""Calibration harness: every figure measured against the paper, then the
band verdict.

Run:  PYTHONPATH=src python tools/calibrate.py [--scale bench|small|tiny] [--seed N]

Prints each figure's paper-vs-measured block, then every row of
``repro.core.paper_targets.PAPER_BANDS`` that falls outside its band at the
chosen preset and a ``verdict:`` line; exits 1 when a row is out of band.
``tiny`` has no bands, so its verdict says only that. Not part of the
installed package; this is the tool used to fit ``repro/synth/typeprofiles.py``
and ``repro/synth/config.py`` to the paper's published numbers.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.figures import compute_all_figures
from repro.core.paper_targets import BAND_SEEDS, PAPER_BANDS, out_of_band
from repro.core.report import render_report
from repro.synth import SyntheticHubConfig, generate_dataset


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="bench", choices=["bench", "small", "tiny"])
    parser.add_argument("--seed", type=int, default=2017)
    args = parser.parse_args()

    t0 = time.time()
    ds = generate_dataset(getattr(SyntheticHubConfig, args.scale)(seed=args.seed))
    results = compute_all_figures(ds)
    print(
        f"{args.scale} seed {args.seed}: {ds.n_images} images, {ds.n_layers} layers, "
        f"{ds.n_file_occurrences / 1e6:.1f}M refs, generated and measured in "
        f"{time.time() - t0:.1f}s\n"
    )
    print(render_report(results))
    print()
    seeds = BAND_SEEDS.get(args.scale)
    if seeds is None:
        print(f"verdict: no bands at {args.scale} (bands hold at {', '.join(BAND_SEEDS)})")
        return 0
    misses = out_of_band(results, args.scale)
    for miss in misses:
        print(f"[out] {miss}")
    n_rows = sum(len(rows) for rows in PAPER_BANDS.values())
    note = "" if args.seed in seeds else f" (the bands are held at seeds {seeds})"
    print(
        f"verdict: {n_rows - len(misses)}/{n_rows} banded metrics in band at "
        f"{args.scale} seed {args.seed}{note}"
    )
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
