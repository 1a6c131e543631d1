"""Workload table for the campaign benchmark.

Every workload is one `cesevd` campaign at p=20, d=3 and Toeplitz
rho = 0.9 e^{i pi/4}, run with `threads=1`. Each stresses a different layer;
the reasons and the layer predictions are in DESIGN.md.
"""

from __future__ import annotations

import hashlib
import math

# The seed the reference CSVs were made at; every run re-checks against it.
DEFAULT_SEED = 1
# Not used while the benchmark was tuned; quote it when claiming a gain.
HELD_OUT_SEED = 424242

COMMON = dict(p=20, d=3.0, rho_mod=0.9, rho_phase=math.pi / 4, threads=1)

WORKLOADS = {
    "eig_small_n": dict(experiment="eigenvalues", estimator="student", n_grid=(40, 62, 95), trials=150),
    "snr_large_n": dict(experiment="snr_loss", estimator="student", n_grid=(2000,), trials=180),
    "crlb_scm": dict(experiment="crlb", estimator="scm", n_grid=(40, 228, 2000), trials=200),
}


def config_seed(workload: str, seed: int) -> int:
    """Campaign seed derived from the benchmark seed, distinct per workload."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def config_kwargs(workload: str, seed: int) -> dict:
    """`ExperimentConfig` keyword arguments for `workload` at benchmark seed `seed`."""
    return dict(COMMON, **WORKLOADS[workload], seed=config_seed(workload, seed))
