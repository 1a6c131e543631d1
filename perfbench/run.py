"""Campaign benchmark for `cesevd`: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eig_small_n --seed 1 --seconds 25 --trace 0

The timed operation is a user's campaign, `run_experiment` followed by
`write_csv`, at the workload's configuration (see workloads.py), repeated
for `--seconds` seconds in this one process. Every run also checks the
outputs; see DESIGN.md for the checks, the metrics and what each should move.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; a full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_configuration": blas.get("openblas configuration"),
        "git_commit": _git_commit(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cesevd", "__init__.py")):
        print(f"perfbench: no cesevd package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cesevd

    import workloads

    if os.path.dirname(os.path.abspath(cesevd.__file__)) != os.path.join(SRC, "cesevd"):
        print(f"perfbench: cesevd imported from {cesevd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    from bench import Bench

    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        bench.reference_checks()
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "config": bench.cfg, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "checks": bench.checks, "raw": bench.raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        bench.tracer.dump(os.path.join(OUT, f"{tag}.spans.json"))

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(json.dumps({"environment": env}))
    print(json.dumps({"checks": bench.checks}, default=str))
    print(json.dumps({
        "correct": bench.correct(),
        "attempted": bench.attempted,
        "failed": bench.failed_trials(),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
