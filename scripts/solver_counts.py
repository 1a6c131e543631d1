#!/usr/bin/env python3
"""Print the solver's path and its whitenings, weight evaluations and psi passes per solve on the benchmark workloads.

Run from any directory; the campaigns use the `cesevd` source of the checkout
this script sits in:

    python3 scripts/solver_counts.py

For each workload whose estimator is solved by `fixed_point_solve_stack`, at
the benchmark's default and held-out seeds, it runs the campaign with one
trial per block, so that every solve is a stack of one, and counts per solve
the whitenings (calls of `estimators._whiten`), the weight evaluations (calls
of the spec's u) and the psi passes (calls of the spec's psi, one per chunk
of each step of the scale root). Each line gives the path the solver takes
at that (p, n), how many solves Newton's method handed to the Anderson
sweeps, and the median and maximum of the three counts. A trial's solve does
not depend on its block, so the counts are those of the campaign itself, and
deterministic.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import cesevd.estimators as est  # noqa: E402
import cesevd.experiments as exp  # noqa: E402
import workloads  # noqa: E402


class Counter:
    """Counts of the solve in progress, and one (whitenings, weight evals, psi passes, fell back) record per solve."""

    def __init__(self):
        self.whitenings = self.weights = self.psi = 0
        self.fell_back = False
        self.solves: list[tuple[int, int, int, bool]] = []

    def wrap(self, fn, field):
        def counted(*args, **kwargs):
            setattr(self, field, getattr(self, field) + 1)
            return fn(*args, **kwargs)

        return counted

    def solve(self, fn):
        def recorded(*args, **kwargs):
            self.whitenings = self.weights = self.psi = 0
            self.fell_back = False
            result = fn(*args, **kwargs)
            self.solves.append((self.whitenings, self.weights, self.psi, self.fell_back))
            return result

        return recorded


def _counted_campaign(config, counter: Counter) -> None:
    """Run `config` with every solve recorded by `counter`, restoring the patched names afterwards."""
    anderson = est._anderson_solve

    def fallback(*args):
        counter.fell_back = True
        return anderson(*args)

    student_spec = exp.student_spec

    def counted_spec(*args):
        spec = student_spec(*args)
        return dataclasses.replace(spec, u=counter.wrap(spec.u, "weights"), psi=counter.wrap(spec.psi, "psi"))

    patches = [
        (exp, "_BLOCK_BYTES", 1),  # one trial per block
        (exp, "fixed_point_solve_stack", counter.solve(exp.fixed_point_solve_stack)),
        (exp, "student_spec", counted_spec),
        (est, "_whiten", counter.wrap(est._whiten, "whitenings")),
        (est, "_anderson_solve", fallback),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        exp.run_experiment(config)
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def main() -> int:
    print("workload     seed    n     path      solves  fallbacks  whitenings med/max  weight evals med/max"
          "  psi passes med/max")
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for name in workloads.WORKLOADS:
            config = exp.ExperimentConfig(**workloads.config_kwargs(name, seed))
            if config.estimator != "student":
                print(f"{name:12s} {seed:<7d} estimator {config.estimator}: computed directly, no fixed-point solve")
                continue
            counter = Counter()
            _counted_campaign(config, counter)
            for i, n in enumerate(config.n_grid):
                solves = counter.solves[i * config.trials:(i + 1) * config.trials]
                newton = est._uses_newton(config.p, n)
                fallbacks = sum(s[3] for s in solves) if newton else "-"
                whit, wts, psi = ([s[k] for s in solves] for k in range(3))
                print(f"{name:12s} {seed:<7d} {n:<5d} {'newton' if newton else 'anderson':9s} {len(solves):6d} "
                      f"{fallbacks:>10}"
                      f"  {statistics.median(whit):10g} / {max(whit):<4d}"
                      f"  {statistics.median(wts):12g} / {max(wts):<4d}  {statistics.median(psi):10g} / {max(psi)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
