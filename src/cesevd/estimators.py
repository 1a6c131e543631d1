"""Robust scatter estimation: weighted fixed-point solves, the SCM, and scale calibration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CalibrationError, ConvergenceError, DegeneracyError, InputError
from .linalg import HermitianMatrix
from .sampling import CesDistribution, RandomStream, modular_variate_chunks, modular_variate_sample

# Pinned stream for scale calibration; results must not depend on ambient RNG state.
_CALIBRATION_STREAM = RandomStream(seed=0x5CA1E, index=0)

# Anderson mixing memory: how many past sweeps each mix combines.
_ANDERSON_MEMORY = 3
# Newton/bisection steps allowed for the scale root.
_SCALE_MAX_STEPS = 60
# Entries per streamed piece of the scale root's sums: 512 KiB of float64.
_SCALE_CHUNK = 1 << 16
# The scale root is searched in [1/_SCALE_LIMIT, _SCALE_LIMIT]. A bounded psi whose sup lies
# below p sends Newton steps up about as y -> y^2; the limit stops them before psi_prime's
# square overflows, which at y = 1e30 takes a t above 1e123.
_SCALE_LIMIT = 1e30
# Pinned draws of a scale calibration.
_CALIBRATION_DRAWS = 4_000_000


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
    """(1/n) sum_i w_i z_i z_i^H of a p x n sample, or of each sample of a stack, exactly Hermitian.

    The product is taken as conj(Z) diag(w) Z^T, the transpose of the scatter,
    so no conjugate copy of Z outlives the call. A stack is multiplied slice
    by slice, with the arithmetic of a single sample's call.
    """
    n = Z.shape[-1]
    Zw = Z.conj()
    if w is not None:
        Zw *= w[..., None, :]
    S = (Zw @ Z.mT).mT / n
    return (S + S.conj().mT) / 2


def scm(Z) -> HermitianMatrix:
    """Sample covariance matrix (1/n) sum z_i z_i^H."""
    Z = _as_samples(Z)
    if Z.shape[1] < 1:
        raise InputError("need at least one sample")
    return HermitianMatrix(_weighted_scatter(Z, None))


def _add_scale_sums(spec: MEstimatorSpec, rows: np.ndarray, ys, val: list, slope: list) -> tuple[list, list]:
    """val + sum(psi(x)) and slope + sum(psi'(x) * rows) of each row, x = rows * ys, in one pass.

    The columns go in chunks of _SCALE_CHUNK, each summed in one piece and
    added to the row's running Python float, so no temporary is as large as a
    long row. No sum goes through BLAS, whose threaded dot product would make
    the sums depend on the BLAS thread count.
    """
    for i in range(0, rows.shape[-1], _SCALE_CHUNK):
        c = rows[:, i:i + _SCALE_CHUNK]
        cy = c * ys
        val = [v + s for v, s in zip(val, spec.psi(cy).sum(axis=-1).tolist())]
        slope = [v + s for v, s in zip(slope, np.einsum("ij,ij->i", spec.psi_prime(cy), c).tolist())]
    return val, slope


def _solve_weight_scale(spec: MEstimatorSpec, t: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Root y of mean(psi(t*y)) = p for each row of `t`, and mean(psi(t*y)) - p at its last evaluation.

    `t` has shape (..., n); both results have shape t.shape[:-1], and a row
    whose equation has no root gets y = nan. In a sweep y = 1/c recalibrates
    each iterate's scale; in `solve_sigma`, t is the modular-variate sample
    and y the calibrated scale.

    mean(psi(t*y)) is non-decreasing in y and its root is y = 1 at any fixed
    point (trace identity), so Newton steps start there. Every evaluation
    narrows a bracket on the root, and a step that leaves the bracket is
    replaced by bisection (or by doubling while no upper end is known). A
    step that would leave [1/_SCALE_LIMIT, _SCALE_LIMIT] ends the row's search
    with y = nan, as when a bounded psi stays below p. Each step evaluates the
    rows still unsolved together, in one pass of `_add_scale_sums`; a row's
    bracket logic runs on Python floats, so its result does not depend on the
    other rows.
    """
    rows = t.reshape(-1, t.shape[-1])
    m, n = rows.shape
    target = n * p
    y_out, r_out = [np.nan] * m, [np.nan] * m
    lo, hi, y = [0.0] * m, [np.inf] * m, [1.0] * m
    active, sub = list(range(m)), rows
    for _ in range(_SCALE_MAX_STEPS):
        # a single row is scaled by a Python float: the same products, without a column temporary
        ys = y[active[0]] if len(active) == 1 else np.array([y[b] for b in active])[:, None]
        val, slope = _add_scale_sums(spec, sub, ys, [-float(target)] * len(active), [0.0] * len(active))
        unsolved = []
        for b, v, s in zip(active, val, slope):
            yb = y[b]
            if abs(v) <= 1e-13 * target:
                y_out[b], r_out[b] = yb, v / n
                continue
            if v > 0:
                hi[b] = yb
            else:
                lo[b] = yb
            step = yb - v / s if s > 0 else np.nan
            if not lo[b] < step < hi[b]:
                step = 0.5 * (lo[b] + hi[b]) if hi[b] < np.inf else 2.0 * yb
            elif abs(step - yb) <= 1e-8 * yb:
                # Newton converges quadratically: the error left is ~1e-16 y
                y_out[b], r_out[b] = step, v / n
                continue
            if not 1 / _SCALE_LIMIT <= step <= _SCALE_LIMIT:
                continue  # no root in range: y = nan
            y[b] = step
            unsolved.append(b)
        if not unsolved:
            break
        if len(unsolved) < len(active):
            sub = rows[unsolved]
        active = unsolved
    shape = t.shape[:-1]
    return np.array(y_out).reshape(shape), np.array(r_out).reshape(shape)


def _whitened_norms(L: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """t_i = z_i^H (L L^H)^{-1} z_i = ||L^{-1} z_i||^2, for a sample or each sample of a stack.

    Summed on the real view of L^{-1} Z, so no conjugate copy is made; the
    p x n product is freed on return, before the next p x n temporary.
    """
    W = (np.linalg.inv(L) @ Z).view(np.float64)
    sq = np.einsum("...ij,...ij->...j", W, W)
    return sq[..., 0::2] + sq[..., 1::2]


def _frobenius(A: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-contiguous complex stack, as one dot product of its real view."""
    return _norms(A.view(np.float64).reshape(len(A), -1))


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real (m, k) array, one BLAS dot product per row."""
    return np.sqrt(np.vecdot(x, x))


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


def _anderson_mix(mix: np.ndarray, f: np.ndarray, history: list) -> bool:
    """Subtract the type-II Anderson correction from the image `mix`, in place.

    `history` holds (residual, image) differences, oldest first, and `f` is
    the last residual. False, with `mix` untouched, when the residual
    differences are (numerically) linearly dependent. Their stacked copy is
    freed on return, before the next sweep's large temporaries.
    """
    D = np.array([df for df, _ in history])
    try:
        gamma = _solve_gram((D @ D.T).tolist(), (D @ f).tolist())
    except np.linalg.LinAlgError:
        return False
    for g, (_, dT) in zip(gamma, history):
        mix -= g * dT
    return True


def _cholesky(S: np.ndarray) -> tuple[np.ndarray, list]:
    """Cholesky factors of a stack, and the positions whose matrix is not positive definite.

    The stack is factored in one call; only when that call fails is each
    matrix factored on its own to find the failures (a stack of one needs no
    second call). A failed position's factor is left undefined.
    """
    try:
        return np.linalg.cholesky(S), []
    except np.linalg.LinAlgError:
        if len(S) == 1:
            return np.empty_like(S), [0]
    L = np.empty_like(S)
    bad = []
    for j in range(len(S)):
        try:
            L[j] = np.linalg.cholesky(S[j])
        except np.linalg.LinAlgError:
            bad.append(j)
    return L, bad


def _singular_iterate() -> DegeneracyError:
    return DegeneracyError("singular iterate: Cholesky factorization failed")


def fixed_point_solve_stack(spec: MEstimatorSpec, Z, opts: SolverOptions | None = None) -> list:
    """`fixed_point_solve` of every sample of a stack, in one loop of stacked sweeps.

    `Z` holds B samples of the same shape p x n: a (B, p, n) array or a
    sequence of p x n arrays. Returns one entry per sample: its solution as a
    HermitianMatrix, or the ConvergenceError or DegeneracyError that
    `fixed_point_solve` raises for it. Every stacked step works sample by
    sample with the arithmetic of a single sample's solve, so each entry is
    bitwise what `fixed_point_solve` returns for that sample alone, whatever
    its stack-mates and the stack size. A sample is dropped from the stacked
    arrays once it is certified or has failed; each keeps its own Anderson
    history.
    """
    opts = opts or SolverOptions()
    if len(Z) == 1:  # a stack of one: its sample is viewed, not copied
        Z = _as_samples(Z[0])[None]
    else:
        Z = np.stack([_as_samples(z) for z in Z])
    B, p, n = Z.shape
    if n <= p:
        raise DegeneracyError(f"need n > p samples for a full-rank solution, got n={n}, p={p}")
    if opts.init == "identity":
        S = np.repeat(np.eye(p, dtype=complex)[None], B, axis=0)
    else:
        S = _weighted_scatter(Z, None)
        S = S * (p / np.trace(S, axis1=-2, axis2=-1).real)[:, None, None]
    out: list = [None] * B
    ids = list(range(B))  # the caller's position of each live row
    history: list = [[] for _ in range(B)]  # each row's (residual, image) differences, oldest first
    last: list = [None] * B  # each row's last (residual, image); None before its first sweep and after a restart

    def finish(rows, results, arrays):
        """Record each finished row's result; return `arrays` with the other rows, and compact the lists alike."""
        for j, res in zip(rows, results):
            out[ids[j]] = res
        keep = [j for j in range(len(ids)) if j not in rows]
        for lst in (ids, history, last):
            lst[:] = [lst[j] for j in keep]
        return [arr[keep] for arr in arrays]

    L, bad = _cholesky(S)
    if bad:
        Z, S, L = finish(bad, [_singular_iterate() for _ in bad], (Z, S, L))
    for _ in range(opts.max_iter):
        if not ids:
            break
        t = _whitened_norms(L, Z)
        y, _ = _solve_weight_scale(spec, t, p)
        bad = [j for j, v in enumerate(y.tolist()) if v != v]  # no root
        if bad:
            err = "scale recalibration has no root; weight function unusable on this sample"
            Z, S, t, y = finish(bad, [DegeneracyError(err) for _ in bad], (Z, S, t, y))
            if not ids:
                break
        T = _weighted_scatter(Z, spec.u(t * y[:, None]))
        f = (T - S).view(np.float64).reshape(len(ids), -1)
        norm_S = _frobenius(S)
        resid = _norms(f) / norm_S
        done = []
        for j in [j for j, r in enumerate(resid.tolist()) if r <= opts.tol]:
            # Certify the contract on the plain (uncorrected) map before returning.
            plain = _frobenius((_weighted_scatter(Z[j], spec.u(t[j])) - S[j])[None])[0] / norm_S[j]
            if plain <= opts.tol:
                done.append(j)
        if done:
            Z, T, f, resid = finish(done, [HermitianMatrix(S[j]) for j in done], (Z, T, f, resid))
            if not ids:
                break

        # The next iterates: each row's Anderson mix, or its plain image.
        S = T.copy()
        for j, hist in enumerate(history):
            if last[j] is not None:
                if len(hist) == _ANDERSON_MEMORY:
                    del hist[0]
                hist.append((f[j] - last[j][0], T[j] - last[j][1]))
            last[j] = f[j], T[j]
            if hist and not _anderson_mix(S[j], f[j], hist):
                # A dependent history: restart from the plain image.
                hist.clear()
                last[j] = None
        L, bad = _cholesky(S)
        failed = []
        if bad:
            S = S.copy()  # a new stack: the one just factored is left as it was passed
            for j in bad:
                if history[j]:  # the row was mixed
                    # A mix outside the positive-definite cone: restart from the plain image.
                    history[j].clear()
                    last[j] = None
                    S[j] = T[j]
                    Lj, plain_bad = _cholesky(S[j:j + 1])
                    if not plain_bad:
                        L[j] = Lj[0]
                        continue
                failed.append(j)
        if failed:
            Z, S, L, resid = finish(failed, [_singular_iterate() for _ in failed], (Z, S, L, resid))
    for j, b in enumerate(ids):
        out[b] = ConvergenceError(
            f"no convergence within {opts.max_iter} iterations (last residual {resid[j]:.3e})",
            residual=float(resid[j]),
        )
    return out


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
    This is `fixed_point_solve_stack` on a stack of one sample.
    """
    (result,) = fixed_point_solve_stack(spec, [Z], opts)
    if isinstance(result, Exception):
        raise result
    return result


def solve_sigma(
    spec: MEstimatorSpec,
    dist: CesDistribution,
    p: int,
    draws: int = _CALIBRATION_DRAWS,
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
    `unit_weight_sigma` gives the unit weight's sigma, with the same bits,
    from one streamed pass that never holds Q.
    """
    Q = modular_variate_sample(dist, p, draws, stream or _CALIBRATION_STREAM)
    sigma, resid = _solve_weight_scale(spec, Q, p)
    if np.isnan(sigma):
        raise CalibrationError("the scale equation has no root")
    if not 1e-3 <= sigma <= 1e3:
        raise CalibrationError(f"the scale root {sigma:.3g} lies outside [1e-3, 1e3]")
    if abs(resid) >= 1e-3 * p:
        raise CalibrationError("the scale equation residual is too large")
    return float(sigma)


def unit_weight_sigma(
    dist: CesDistribution,
    p: int,
    draws: int = _CALIBRATION_DRAWS,
    stream: RandomStream | None = None,
) -> float:
    """`solve_sigma(gaussian_spec(), dist, p, draws, stream)` from one streamed pass over the draws.

    For Psi(t) = t the scale equation is linear in sigma, so the safeguarded
    Newton step from sigma = 1 lands on its root: solve_sigma's second pass
    finds it within its 1e-13 relative tolerance and returns it unchanged.
    That first step needs only the two sums of the first pass, which are
    taken here piece by piece as the draws are made, with solve_sigma's
    arithmetic, so sigma has its bits while at most one piece of draws
    (`sampling._DRAW_CHUNK`, a multiple of _SCALE_CHUNK) is held.
    CalibrationError when the root lies outside [1e-3, 1e3] or the sums are
    not finite.
    """
    spec = gaussian_spec()
    target = draws * p
    val, slope = [-float(target)], [0.0]
    for Q in modular_variate_chunks(dist, p, draws, stream or _CALIBRATION_STREAM):
        val, slope = _add_scale_sums(spec, Q[None], 1.0, val, slope)
        del Q  # dropped before the next piece is drawn
    (v,), (s,) = val, slope
    if not (np.isfinite(v) and 0 < s < np.inf):
        raise CalibrationError("the scale equation's sums are not finite")
    sigma = 1.0 if abs(v) <= 1e-13 * target else 1.0 - v / s
    if not 1e-3 <= sigma <= 1e3:
        raise CalibrationError(f"the scale root {sigma:.3g} lies outside [1e-3, 1e3]")
    return sigma


__all__ = [
    "MEstimatorSpec",
    "SolverOptions",
    "gaussian_spec",
    "student_spec",
    "scm",
    "fixed_point_solve",
    "fixed_point_solve_stack",
    "solve_sigma",
    "unit_weight_sigma",
]
