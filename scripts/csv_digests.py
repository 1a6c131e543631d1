#!/usr/bin/env python3
"""Print one sha256 per campaign CSV for a fixed list of configurations.

Run from any directory; the campaigns use the `cesevd` source of the checkout
this script sits in:

    OPENBLAS_NUM_THREADS=1 python3 scripts/csv_digests.py > digests.txt

A refactor that claims byte-identical CSVs runs this on the old and the new
checkout and compares the two outputs with `diff`. Both runs need the same
OPENBLAS_NUM_THREADS: some grid points' bits follow the BLAS thread count.

The configurations are the 12 experiment x estimator cases of the golden
payload test (`tests/test_experiments.py`), one long-solve campaign and the
three perfbench workloads at the benchmark's default and held-out seeds.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cesevd.experiments import EXPERIMENTS, ExperimentConfig, run_experiment, write_csv  # noqa: E402
import workloads  # noqa: E402

# The golden payload test's configuration; `scm` runs at d = 6, where its coefficients exist.
GOLDEN = dict(p=6, n_grid=(50, 100), trials=10, seed=1, r=2, lambda_r=(60.0, 30.0))
# A campaign near n = p, on the Newton side of the solver's crossover. Its trial 19 needs 225 Anderson sweeps,
# past the public default of 200 (`tests/test_experiments.py` checks the campaign budget on it).
LONG_SOLVE = dict(experiment="projector", p=20, n_grid=(21,), trials=20, seed=1)


def configurations():
    """(name, ExperimentConfig) for every configuration digested, in a fixed order."""
    for experiment in EXPERIMENTS:
        for estimator, d in (("student", 3.0), ("scm", 6.0)):
            yield f"golden/{experiment}_{estimator}", ExperimentConfig(
                experiment=experiment, estimator=estimator, d=d, **GOLDEN)
    yield "long_solve/projector", ExperimentConfig(**LONG_SOLVE)
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for name in workloads.WORKLOADS:
            yield f"perfbench/{name}@{seed}", ExperimentConfig(**workloads.config_kwargs(name, seed))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.csv"
        for name, config in configurations():
            write_csv(run_experiment(config), path)
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
