"""Correctness checks run by the benchmark, through public `cesevd` functions only."""

from __future__ import annotations

import numpy as np

from cesevd import (
    CesDistribution,
    ConvergenceError,
    DegeneracyError,
    RandomStream,
    SolverOptions,
    fixed_point_solve,
    gaussian_spec,
    read_csv,
    sample_coupled,
    scm,
    student_spec,
    toeplitz_scatter,
)

# Payload tolerance, in dB, on every CSV column. Work that only reorders the
# solver's floating-point operations, or stops it closer to its fixed point,
# moves the columns by far less (measured: 2e-14 dB for a reordered scatter
# product, 1.4e-9 dB for tol = 1e-12). A looser stop or a moved fixed point
# moves them further (measured: 1.5e-7 dB for tol = 1e-8, 4.7e-4 dB for a
# weight scaled by 1 + 1e-6).
PAYLOAD_ATOL_DB = 1e-8
# The solver's documented default tolerance, pinned here so a change to the default cannot loosen the check.
SOLVER_TOL = 1e-10


def compare_payload(reference_csv, csv) -> dict:
    """Numeric payload of `csv` against `reference_csv`: same columns, same shape, within PAYLOAD_ATOL_DB."""
    ref_cols, ref, ref_meta = read_csv(reference_csv)
    cols, data, meta = read_csv(csv)
    same_shape = ref_cols == cols and ref.shape == data.shape
    max_diff = float(np.max(np.abs(ref - data))) if same_shape and ref.size else float("inf")
    ok = (
        same_shape
        and max_diff <= PAYLOAD_ATOL_DB
        and meta.get("excluded") == ref_meta.get("excluded") == "none"
    )
    with open(reference_csv, "rb") as a, open(csv, "rb") as b:
        identical = a.read() == b.read()
    return {"ok": bool(ok), "max_abs_diff_db": max_diff, "byte_identical": identical}


def same_payload(csv_a, csv_b) -> bool:
    """Bitwise equality of two campaigns' columns and rows."""
    cols_a, a, _ = read_csv(csv_a)
    cols_b, b, _ = read_csv(csv_b)
    return cols_a == cols_b and np.array_equal(a, b)


def _solve(spec, Z):
    """The campaign's solve: default options, then one retry from the scm start with a doubled budget."""
    opts = SolverOptions()
    try:
        return fixed_point_solve(spec, Z, opts)
    except (ConvergenceError, DegeneracyError):
        return fixed_point_solve(spec, Z, SolverOptions(tol=opts.tol, max_iter=2 * opts.max_iter, init="scm"))


def _plain_residual(spec, Z, S) -> float:
    """||(1/n) sum u(z_i^H S^{-1} z_i) z_i z_i^H - S||_F / ||S||_F, computed independently of the solver."""
    n = Z.shape[1]
    t = np.einsum("ij,ij->j", Z.conj(), np.linalg.solve(S, Z)).real
    T = (Z * spec.u(t)) @ Z.conj().T / n
    return float(np.linalg.norm(T - S) / np.linalg.norm(S))


def solver_contract(cfg: dict, trials_per_n: int) -> dict:
    """Re-check the solver contract on the first trials of each grid point of campaign `cfg`.

    Draws from the campaign's per-trial streams with the workload's Toeplitz
    scatter, solves with the default `SolverOptions` the campaigns use, then
    requires a plain-map residual of at most the pinned SOLVER_TOL for the
    campaign's estimator and a unit-weight solve bitwise equal to `scm`. The
    `snr_loss` campaign draws from a factor model instead; the Toeplitz scatter
    stands in for it, because the contract holds for any scatter.
    """
    dist = CesDistribution.student_t(cfg["d"])
    # The scm estimator's calibrated scale multiplies the solution afterwards; its fixed point is the unit-weight one.
    spec = student_spec(cfg["p"], cfg["d"]) if cfg["estimator"] == "student" else gaussian_spec()
    Sigma = toeplitz_scatter(cfg["p"], cfg["rho_mod"] * np.exp(1j * cfg["rho_phase"]))
    worst, bitwise, solves = 0.0, True, 0
    for i, n in enumerate(cfg["n_grid"]):
        for k in range(trials_per_n):
            Z = sample_coupled(dist, Sigma, n, RandomStream(cfg["seed"], (i << 32) | k)).Z
            S = _solve(spec, Z).entries
            worst = max(worst, _plain_residual(spec, Z, S))
            bitwise &= bool(np.array_equal(fixed_point_solve(gaussian_spec(), Z).entries, scm(Z).entries))
            solves += 1
    return {
        "ok": worst <= SOLVER_TOL and bitwise,
        "solves": solves,
        "max_plain_residual": worst,
        "tol": SOLVER_TOL,
        "unit_weight_equals_scm": bitwise,
    }
