"""Regenerate the reference CSVs the benchmark compares against.

    python3 perfbench/make_reference.py

Writes perfbench/reference/<workload>.csv: one campaign per workload at the
benchmark's default seed. Run it only when a change moves the numbers on
purpose, and state the drift where the change is recorded.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cesevd import ExperimentConfig, run_experiment, write_csv  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in workloads.WORKLOADS:
        config = ExperimentConfig(**workloads.config_kwargs(name, workloads.DEFAULT_SEED))
        path = os.path.join(HERE, "reference", f"{name}.csv")
        write_csv(run_experiment(config), path)
        print(f"{name} -> {path}")
