#!/usr/bin/env python3
"""Print the tracemalloc peaks (MiB) of the perfbench workloads' set-up and trial blocks, and of `coeffs_numeric`,
each workload's minor page faults in a repeated campaign, and its fresh-process peak resident set.

Run from any directory; it measures the `cesevd` source of the checkout this
script sits in:

    python3 scripts/peak_memory.py

For each workload at the benchmark's default seed it prints the peak of the
campaign set-up (`_Campaign`, with the memo of the `scm` scale cleared first,
so that the `crlb_scm` set-up still covers the streamed calibration) and of
one block of trials per n, and the minor page faults (`getrusage`) of its
second full campaign in this process, which reads the `scm` scale from the
memo and so no longer includes a calibration, and
the peak resident set (`VmHWM`, in MB of 2^20 bytes like perfbench's
`peak_rss_mb`) of a fresh process that runs one campaign, measured twice:
with `PYTHONDONTWRITEBYTECODE=1`, so that sources without cached bytecode
are compiled in the process, and from bytecode cached under a temporary
`PYTHONPYCACHEPREFIX` by an earlier run, so that nothing is written into the
checkout. The first reading follows the source bytes of the modules it
compiles and the checkout's path (a reworded comment or another directory
name can move it by a few tenths of a MB), the second does not follow the
source bytes; a rise in both is a rise in what the campaign holds. The first
compiles `cesevd` only if the checkout holds no `__pycache__` for it, as a
fresh checkout does. Then it prints the peak of `coeffs_numeric` at its
default 1e6 draws for the Student weight and for the unit weight.
tracemalloc counts what Python and numpy allocate, so these peaks do not
depend on the allocator's state or on what the process ran before, as a
resident-set peak does. The faults do: a campaign that takes tens of
thousands of them returns heap pages to the kernel and faults them back in on
every trial.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
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


# One campaign in a fresh process, which prints its peak resident set in kB.
CAMPAIGN_PROBE = """\
import json, sys
from cesevd import ExperimentConfig, run_experiment
cfg = json.loads(sys.argv[1])
cfg["n_grid"] = tuple(cfg["n_grid"])
run_experiment(ExperimentConfig(**cfg))
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def fresh_peak_mb(config_kwargs: dict, **env) -> float:
    """VmHWM in MB of a fresh process that runs one campaign of `config_kwargs` under the extra `env`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    cmd = [sys.executable, "-c", CAMPAIGN_PROBE, json.dumps(config_kwargs)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return int(proc.stdout.split()[-1]) / 1024


def main() -> int:
    for name in workloads.WORKLOADS:
        config = exp.ExperimentConfig(**workloads.config_kwargs(name, workloads.DEFAULT_SEED))
        exp._scm_sigma.cache_clear()
        camp, peak = peak_mib(exp._Campaign, config)
        print(f"{name:12s} set-up                      {peak:7.2f}", flush=True)
        for i, n in enumerate(config.n_grid):
            size = min(exp._block_trials(config.p, n), config.trials)
            streams = [RandomStream(config.seed, (i << 32) | k) for k in range(size)]
            _, peak = peak_mib(camp.block, n, streams)
            print(f"{name:12s} block n={n:<5d} ({size} trials)     {peak:7.2f}", flush=True)
        exp.run_experiment(config)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        exp.run_experiment(config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(f"{name:12s} minor faults, second campaign {faults:7d}", flush=True)
        kwargs = workloads.config_kwargs(name, workloads.DEFAULT_SEED)
        uncached = fresh_peak_mb(kwargs, PYTHONDONTWRITEBYTECODE="1")
        with tempfile.TemporaryDirectory() as cache:
            fresh_peak_mb(kwargs, PYTHONPYCACHEPREFIX=cache, PYTHONDONTWRITEBYTECODE="")
            cached = fresh_peak_mb(kwargs, PYTHONPYCACHEPREFIX=cache, PYTHONDONTWRITEBYTECODE="")
        print(f"{name:12s} fresh-process peak, no cached bytecode   {uncached:7.2f} MB", flush=True)
        print(f"{name:12s} fresh-process peak, cached bytecode      {cached:7.2f} MB", flush=True)
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
