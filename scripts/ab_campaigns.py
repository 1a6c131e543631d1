#!/usr/bin/env python3
"""Time campaigns of two checkouts of `cesevd` against each other in one process, after checking their CSVs match.

    python3 scripts/ab_campaigns.py OLD_CHECKOUT NEW_CHECKOUT [workload ...] [--rounds R] [--seed S]

Each checkout's `src/cesevd` is imported under its own package name
(`cesevd_old`, `cesevd_new`), so both run in the same process, on the same
heap and the same BLAS threads, and host noise falls on both alike. The
workloads are the perfbench ones (`perfbench/workloads.py` of NEW_CHECKOUT,
imported, not changed) at their configurations for benchmark seed S, and
`crlb_student`, a Student `crlb` campaign on the default grid (p = 20,
200 trials) at campaign seed S. S defaults to perfbench's held-out seed,
424242; with no workload named, all are run.

For each workload, each side first runs the campaign once, and the two CSVs
must be byte-identical (exit 1 if not). That run also fills what a process
caches, as perfbench's reference campaign does. Then R rounds (default 10)
time one campaign on each side, `run_experiment` followed by `write_csv`
as in perfbench's `campaign_s`; even rounds run the old side first, odd
rounds the new side. Printed per workload: each side's median and quartiles
(inclusive method) in seconds, how many rounds the new side won (strictly
faster), and the median of the rounds' ratios new / old.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_experiments(checkout: Path, name: str):
    """`cesevd.experiments` of `checkout`, imported with the package renamed to `name`."""
    init = checkout / "src" / "cesevd" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.experiments")


def configurations(workloads, names: list, seed: int) -> dict:
    """ExperimentConfig keyword arguments for each named workload."""
    table = {name: workloads.config_kwargs(name, seed) for name in workloads.WORKLOADS}
    table["crlb_student"] = dict(experiment="crlb", estimator="student", p=20, trials=200, seed=seed)
    unknown = [name for name in names if name not in table]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {sorted(table)}")
    return {name: table[name] for name in names or table}


def campaign(exp, kwargs: dict, path: Path) -> float:
    """Seconds to run one campaign of `kwargs` and write its CSV to `path`."""
    start = time.perf_counter()
    exp.write_csv(exp.run_experiment(exp.ExperimentConfig(**kwargs)), path)
    return time.perf_counter() - start


def quartiles(values: list) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout timed as the old side")
    parser.add_argument("new", type=Path, help="checkout timed as the new side")
    parser.add_argument("workloads", nargs="*", help="workloads to run (default: all)")
    parser.add_argument("--rounds", type=int, default=10, help="timed campaigns per side and workload")
    parser.add_argument("--seed", type=int, default=424242, help="benchmark seed (default: the held-out seed)")
    args = parser.parse_args(argv)

    sides = {"old": load_experiments(args.old.resolve(), "cesevd_old"),
             "new": load_experiments(args.new.resolve(), "cesevd_new")}
    sys.path.insert(0, str(args.new.resolve() / "perfbench"))
    import workloads

    print(f"{'workload':13s} side       q1   median       q3  (s)")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {side: Path(tmp) / f"{side}.csv" for side in sides}
        for name, kwargs in configurations(workloads, args.workloads, args.seed).items():
            for side, exp in sides.items():
                campaign(exp, kwargs, paths[side])
            if paths["old"].read_bytes() != paths["new"].read_bytes():
                print(f"{name}: the two checkouts write different CSVs", file=sys.stderr)
                return 1
            times: dict = {side: [] for side in sides}
            for r in range(args.rounds):
                for side in (("old", "new") if r % 2 == 0 else ("new", "old")):
                    times[side].append(campaign(sides[side], kwargs, paths[side]))
            for side in sides:
                q1, median, q3 = quartiles(times[side])
                print(f"{name:13s} {side:4s} {q1:8.3f} {median:8.3f} {q3:8.3f}")
            ratios = [new / old for old, new in zip(times["old"], times["new"])]
            wins = sum(new < old for old, new in zip(times["old"], times["new"]))
            print(f"{name:13s} same CSV bytes; new wins {wins} of {args.rounds}, "
                  f"median paired ratio new/old {statistics.median(ratios):.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
