"""Robust scatter estimation: weighted fixed-point solves, the SCM, and scale calibration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CalibrationError, ConvergenceError, DegeneracyError, InputError
from .linalg import HermitianMatrix
from .sampling import CesDistribution, RandomStream, modular_variate_sample

# Pinned stream for scale calibration; results must not depend on ambient RNG state.
_CALIBRATION_STREAM = RandomStream(seed=0x5CA1E, index=0)

# Anderson mixing memory: how many past sweeps each mix combines.
_ANDERSON_MEMORY = 3
# Newton/bisection steps allowed for the scale root.
_SCALE_MAX_STEPS = 60
# Entries per streamed piece of the scale root's sums: 512 KiB of float64.
_SCALE_CHUNK = 1 << 16


@dataclass(frozen=True)
class MEstimatorSpec:
    """Weight function bundle: u, Psi(t) = t*u(t), Psi', and the calibrated scale sigma.

    All three callables are vectorized over ndarray arguments. `sigma` aligns
    the estimator with the true scatter: sigma * Sigma_hat is consistent for
    Sigma once sigma solves the scale equation for the sampling distribution.
    """

    name: str
    u: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    sigma: float = 1.0

    def with_sigma(self, sigma: float) -> "MEstimatorSpec":
        return dataclasses.replace(self, sigma=float(sigma))


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 200
    init: str = "scm"

    def __post_init__(self):
        if not self.tol > 0:
            raise InputError("tol must be > 0")
        if self.max_iter < 1:
            raise InputError("max_iter must be >= 1")
        if self.init not in ("scm", "identity"):
            raise InputError(f"init must be 'scm' or 'identity', got {self.init!r}")


def gaussian_spec() -> MEstimatorSpec:
    """Constant unit weight: the fixed point is exactly the sample covariance."""
    return MEstimatorSpec(
        name="gaussian",
        u=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        psi=lambda t: np.asarray(t, dtype=float),
        psi_prime=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        sigma=1.0,
    )


def student_spec(p: int, d: float) -> MEstimatorSpec:
    """MLE weight u(x) = (2p+d)/(d+2x) for complex t data with d degrees of freedom.

    sigma is prefilled to 1, exact for matched t data of the same d.
    """
    if p < 1:
        raise InputError("dimension p must be >= 1")
    d = float(d)
    if not d > 0:
        raise InputError("degrees of freedom d must be > 0")
    num = 2 * p + d

    return MEstimatorSpec(
        name=f"student(p={p},d={d:g})",
        u=lambda t: num / (d + 2 * np.asarray(t, dtype=float)),
        psi=lambda t: num * np.asarray(t, dtype=float) / (d + 2 * np.asarray(t, dtype=float)),
        psi_prime=lambda t: num * d / (d + 2 * np.asarray(t, dtype=float)) ** 2,
        sigma=1.0,
    )


def _as_samples(Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2:
        raise InputError(f"expected a p x n sample matrix, got shape {Z.shape}")
    return Z


def _weighted_scatter(Z: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """(1/n) sum_i w_i z_i z_i^H, exactly Hermitian, with a single p x n temporary.

    The product is taken as conj(Z) diag(w) Z^T, the transpose of the scatter,
    so no conjugate copy of Z outlives the call.
    """
    n = Z.shape[1]
    Zw = Z.conj()
    if w is not None:
        Zw *= w
    S = (Zw @ Z.T).T / n
    return (S + S.conj().T) / 2


def scm(Z) -> HermitianMatrix:
    """Sample covariance matrix (1/n) sum z_i z_i^H."""
    Z = _as_samples(Z)
    if Z.shape[1] < 1:
        raise InputError("need at least one sample")
    return HermitianMatrix(_weighted_scatter(Z, None))


def _solve_weight_scale(spec: MEstimatorSpec, t: np.ndarray, p: int) -> tuple[float, float]:
    """Root y of mean(psi(t*y)) = p, and mean(psi(t*y)) - p at the last evaluation.

    In a sweep y = 1/c recalibrates the iterate scale; in `solve_sigma`, t is
    the modular-variate sample and y the calibrated scale.

    mean(psi(t*y)) is non-decreasing in y and its root is y = 1 at any fixed
    point (trace identity), so Newton steps start there. Every evaluation
    narrows a bracket on the root, and a step that leaves the bracket is
    replaced by bisection (or by doubling while no upper end is known). Each
    step is one pass over `t` in chunks of _SCALE_CHUNK entries, so no
    temporary is as large as a long `t`; a `t` within one chunk is summed in
    one piece, with the arithmetic of an unchunked evaluation. No sum goes
    through BLAS, whose threaded dot product would make the root depend on
    the BLAS thread count.
    """
    n = t.shape[0]
    target = n * p
    chunks = [t[i:i + _SCALE_CHUNK] for i in range(0, n, _SCALE_CHUNK)]
    lo, hi = 0.0, np.inf
    y = 1.0
    for _ in range(_SCALE_MAX_STEPS):
        val, slope = -target, 0.0
        for c in chunks:  # one pass per step: both sums, chunk by chunk
            cy = c * y
            val += float(spec.psi(cy).sum())
            slope += float(np.einsum("i,i->", spec.psi_prime(cy), c))
        if abs(val) <= 1e-13 * target:
            return y, val / n
        if val > 0:
            hi = y
        else:
            lo = y
        step = y - val / slope if slope > 0 else np.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if hi < np.inf else 2.0 * y
        elif abs(step - y) <= 1e-8 * y:
            return step, val / n  # Newton converges quadratically: the error left is ~1e-16 y
        y = step
    raise DegeneracyError("scale recalibration has no root; weight function unusable on this sample")


def _whitened_norms(L: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """t_i = z_i^H (L L^H)^{-1} z_i = ||L^{-1} z_i||^2.

    Summed on the real view of L^{-1} Z, so no conjugate copy is made; the
    p x n product is freed on return, before the next p x n temporary.
    """
    W = (np.linalg.inv(L) @ Z).view(np.float64)
    sq = np.einsum("ij,ij->j", W, W)
    return sq[0::2] + sq[1::2]


def _frobenius(A: np.ndarray) -> float:
    """Frobenius norm of a C-contiguous complex array, as one dot product of its real view."""
    a = A.view(np.float64).ravel()
    return float(np.sqrt(np.dot(a, a)))


def _solve_gram(G: list, b: list) -> list:
    """Solve G x = b for the Gram matrix G of the Anderson history, in place.

    G is symmetric positive semi-definite and at most _ANDERSON_MEMORY wide.
    Elimination in Python floats needs no pivoting here, costs less than a
    LAPACK call's fixed overhead and pages in no further LAPACK code. A pivot
    that is not positive means the history is (numerically) linearly
    dependent: LinAlgError.
    """
    m = len(b)
    for k in range(m):
        Gk = G[k]
        if not Gk[k] > 0:
            raise np.linalg.LinAlgError("singular Anderson system")
        for i in range(k + 1, m):
            Gi = G[i]
            r = Gi[k] / Gk[k]
            for j in range(k + 1, m):
                Gi[j] -= r * Gk[j]
            b[i] -= r * b[k]
    for k in range(m - 1, -1, -1):
        Gk = G[k]
        s = b[k]
        for j in range(k + 1, m):
            s -= Gk[j] * b[j]
        b[k] = s / Gk[k]
    return b


def _cholesky(S: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise DegeneracyError("singular iterate: Cholesky factorization failed") from None


def fixed_point_solve(spec: MEstimatorSpec, Z, opts: SolverOptions | None = None) -> HermitianMatrix:
    """Solve Sigma = (1/n) sum u(z_i^H Sigma^{-1} z_i) z_i z_i^H.

    Each sweep whitens the samples with the Cholesky factor of the iterate
    (t_i = ||L^{-1} z_i||^2), recalibrates the iterate's scale through the
    one-dimensional equation mean(Psi) = p, and applies the weighted-scatter
    map; the recalibration vanishes at any solution, so fixed points are
    unchanged, while the otherwise slowly-contracting scale mode is removed.
    The next iterate is the type-II Anderson mix of the last few images,
    with real coefficients, so it stays exactly Hermitian; a mix that is not
    positive definite is replaced by the plain image and the history is
    cleared. Returns once the plain (unrecalibrated) fixed-point residual of
    the iterate is at or below `opts.tol`. The unit weight reaches the sample
    covariance after one sweep and returns it, bitwise equal to `scm`.
    """
    opts = opts or SolverOptions()
    Z = _as_samples(Z)
    p, n = Z.shape
    if n <= p:
        raise DegeneracyError(f"need n > p samples for a full-rank solution, got n={n}, p={p}")

    if opts.init == "identity":
        S = np.eye(p, dtype=complex)
    else:
        S = _weighted_scatter(Z, None)
        S = S * (p / np.trace(S).real)
    L = _cholesky(S)

    # Anderson history: differences of successive residuals (real views) and of successive images.
    dF: list[np.ndarray] = []
    dT: list[np.ndarray] = []
    f_prev = T_prev = None
    resid = np.inf
    for _ in range(opts.max_iter):
        t = _whitened_norms(L, Z)
        y, _ = _solve_weight_scale(spec, t, p)
        T = _weighted_scatter(Z, spec.u(t * y))
        f = (T - S).view(np.float64).ravel()
        norm_S = _frobenius(S)
        resid = float(np.sqrt(np.dot(f, f))) / norm_S
        if resid <= opts.tol:
            # Certify the contract on the plain (uncorrected) map before returning.
            plain = _frobenius(_weighted_scatter(Z, spec.u(t)) - S) / norm_S
            if plain <= opts.tol:
                return HermitianMatrix(S)

        if f_prev is not None:
            dF.append(f - f_prev)
            dT.append(T - T_prev)
            if len(dF) > _ANDERSON_MEMORY:
                del dF[0], dT[0]
        f_prev, T_prev = f, T
        S, L = T, None
        if dF:
            try:
                D = np.array(dF)
                gamma = _solve_gram((D @ D.T).tolist(), (D @ f).tolist())
                mixed = T - gamma[0] * dT[0]
                for g, d in zip(gamma[1:], dT[1:]):
                    mixed -= g * d
                L = np.linalg.cholesky(mixed)
                S = mixed
            except np.linalg.LinAlgError:
                # A dependent history, or a mix outside the positive-definite cone: restart from the plain image.
                dF.clear()
                dT.clear()
                f_prev = None
        if L is None:
            L = _cholesky(S)
    raise ConvergenceError(
        f"no convergence within {opts.max_iter} iterations (last residual {resid:.3e})",
        residual=resid,
    )


def solve_sigma(
    spec: MEstimatorSpec,
    dist: CesDistribution,
    p: int,
    draws: int = 4_000_000,
    stream: RandomStream | None = None,
) -> float:
    """Scale sigma with mean(Psi(sigma * Q)) = p under the modular law of `dist`.

    The expectation is estimated once on a pinned-seed Monte Carlo sample Q,
    and the monotone scalar equation is solved on it by the safeguarded Newton
    root the solver sweeps use, started from sigma = 1. Each Newton step is
    one pass over Q in fixed-size chunks: 2 passes for the unit weight, about
    3 for the Student weight, and no temporary near the size of Q, so the
    peak memory is Q itself (8 bytes per draw). CalibrationError when there
    is no root or it lies outside [1e-3, 1e3]; the returned sigma satisfies
    |mean(Psi(sigma Q)) - p| < 1e-3 p at the last evaluation.
    For bounded Psi the result is accurate to ~1e-4 relative; for unbounded
    Psi on heavy-tailed laws (unit weight with dof <= 4) accuracy is limited
    by the slow convergence of the sample mean (~1% at the default draws).
    """
    Q = modular_variate_sample(dist, p, draws, stream or _CALIBRATION_STREAM)
    try:
        sigma, resid = _solve_weight_scale(spec, Q, p)
    except DegeneracyError:
        raise CalibrationError("the scale equation has no root") from None
    if not 1e-3 <= sigma <= 1e3:
        raise CalibrationError(f"the scale root {sigma:.3g} lies outside [1e-3, 1e3]")
    if abs(resid) >= 1e-3 * p:
        raise CalibrationError("the scale equation residual is too large")
    return sigma


__all__ = [
    "MEstimatorSpec",
    "SolverOptions",
    "gaussian_spec",
    "student_spec",
    "scm",
    "fixed_point_solve",
    "solve_sigma",
]
