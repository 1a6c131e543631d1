#!/usr/bin/env python3
"""Print the tracemalloc peaks (MiB) of the perfbench workloads' set-up and trial blocks, and of `coeffs_numeric`.

Run from any directory; it measures the `cesevd` source of the checkout this
script sits in:

    python3 scripts/peak_memory.py

For each workload at the benchmark's default seed it prints the peak of the
campaign set-up (`_Campaign`) and of one block of trials per n, then the
peak of `coeffs_numeric` at its default 1e6 draws for the Student weight and
for the unit weight. tracemalloc counts what Python and numpy allocate, so
these numbers do not depend on the allocator's state or on what the process
ran before, as a resident-set peak does.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import cesevd.experiments as exp  # noqa: E402
from cesevd import CesDistribution, RandomStream, coeffs_numeric, gaussian_spec, student_spec  # noqa: E402
from cesevd.estimators import unit_weight_sigma  # noqa: E402
import workloads  # noqa: E402


def peak_mib(fn, *args):
    """fn(*args) and the tracemalloc peak of the call in MiB."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def main() -> int:
    for name in workloads.WORKLOADS:
        config = exp.ExperimentConfig(**workloads.config_kwargs(name, workloads.DEFAULT_SEED))
        camp, peak = peak_mib(exp._Campaign, config)
        print(f"{name:12s} set-up                      {peak:7.2f}", flush=True)
        for i, n in enumerate(config.n_grid):
            size = min(exp._block_trials(config.p, n), config.trials)
            streams = [RandomStream(config.seed, (i << 32) | k) for k in range(size)]
            _, peak = peak_mib(camp.block, n, streams)
            print(f"{name:12s} block n={n:<5d} ({size} trials)     {peak:7.2f}", flush=True)
    p, d = 20, 3.0
    _, peak = peak_mib(coeffs_numeric, student_spec(p, d), CesDistribution.student_t(d), p)
    print(f"coeffs_numeric student p={p} d={d:g}        {peak:7.2f}")
    dist = CesDistribution.student_t(6.0)
    spec = gaussian_spec().with_sigma(unit_weight_sigma(dist, p))
    _, peak = peak_mib(coeffs_numeric, spec, dist, p)
    print(f"coeffs_numeric unit p={p} d=6             {peak:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
