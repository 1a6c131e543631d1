#!/usr/bin/env python3
"""Run the six desk-scale validation experiments and write CSV + SVG per experiment.

Default settings mirror the standard heavy-tail setup (p=20, d=3, complex
Toeplitz scatter, rank-5 factor model). Use --quick for a fast smoke pass.
"""

import argparse
import sys
import time
from pathlib import Path

from cesevd.experiments import EXPERIMENTS, ExperimentConfig, render_svg, run_experiment, write_csv

TRIALS = {
    "eigenvalues": 1000,
    "eigenvectors": 1000,
    "projector": 1000,
    "intrinsic_bias": 2000,
    "crlb": 1000,
    "snr_loss": 5000,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory (default: results/)")
    parser.add_argument("--seed", type=int, default=20080)
    parser.add_argument("--quick", action="store_true", help="50 trials per point, 4-point grid")
    parser.add_argument("--experiments", nargs="*", default=list(EXPERIMENTS), choices=EXPERIMENTS)
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n_grid = (40, 147, 543, 2000) if args.quick else (40, 62, 95, 147, 228, 352, 543, 838, 1295, 2000)

    for name in args.experiments:
        trials = 50 if args.quick else TRIALS[name]
        config = ExperimentConfig(experiment=name, n_grid=n_grid, trials=trials, seed=args.seed)
        t0 = time.perf_counter()
        result = run_experiment(config)
        csv_path = outdir / f"{name}.csv"
        svg_path = outdir / f"{name}.svg"
        write_csv(result, csv_path)
        render_svg(result, svg_path)
        print(f"{name}: {trials} trials/point, {time.perf_counter() - t0:.1f}s -> {csv_path}, {svg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
