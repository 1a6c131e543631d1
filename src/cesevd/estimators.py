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
# Newton's method on the trial weights solves samples with n <= _NEWTON_RATIO * p (see
# `fixed_point_solve_stack`). Above that its n x n systems cost more than the sweeps they save:
# at p = 20, in the blocks `experiments._block_trials` sizes, a solve took 0.40 / 0.78 / 0.93
# of the Anderson sweeps' time at n = 40 / 62 / 80, and 1.3 / 1.2 at n = 88 / 95.
_NEWTON_RATIO = 4
# Whitenings a Newton solve may take before its sample goes to the Anderson sweeps.
_NEWTON_STEPS = 16
# A Newton iterate forms its plain image for certification only once max|F| / max(w) is at most
# _NEWTON_GATE * tol. Along Newton solves at p = 20 (n = 21 to 80, Toeplitz and cond-1e6 scatters)
# the plain residual ranged from 0.026 to 3.3 times max|F| / max(w), so no certifiable iterate is
# skipped.
_NEWTON_GATE = 1e4
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
        if self.init != "scm":
            raise InputError(f"init must be 'scm', got {self.init!r}")


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


def _scale_sums(spec: MEstimatorSpec, q: np.ndarray, y: float, val: float, slope: float) -> tuple[float, float]:
    """val + sum(psi(q*y)) and slope + sum(psi'(q*y) * q) over the values q, in one pass.

    q goes in chunks of _SCALE_CHUNK, each summed in one piece and added to
    the running Python float, so no temporary is as large as a long q. A
    chunk is a (1, k) row: the recorded results were made with 2-D sums, and
    a 1-D sum may round otherwise. No sum goes through BLAS, whose threaded
    dot product would make the sums depend on the BLAS thread count.
    """
    q = q.reshape(1, -1)
    for i in range(0, q.shape[1], _SCALE_CHUNK):
        c = q[:, i:i + _SCALE_CHUNK]
        cy = c * y
        val += spec.psi(cy).sum(axis=-1).item()
        slope += np.einsum("ij,ij->i", spec.psi_prime(cy), c).item()
    return val, slope


def _scale_root(spec: MEstimatorSpec, t: np.ndarray, p: int) -> tuple[float, float]:
    """Root y of mean(psi(t*y)) = p for one sample's t, and mean(psi(t*y)) - p at its last evaluation.

    (nan, nan) when the equation has no root. In a sweep y = 1/c recalibrates
    the iterate's scale; in `solve_sigma`, t is the modular-variate sample
    and y the calibrated scale.

    mean(psi(t*y)) is non-decreasing in y and its root is y = 1 at any fixed
    point (trace identity), so Newton steps start there. Every evaluation
    narrows a bracket on the root, and a step that leaves the bracket is
    replaced by bisection (or by doubling while no upper end is known). A
    step that would leave [1/_SCALE_LIMIT, _SCALE_LIMIT] ends the search
    with no root, as when a bounded psi stays below p.
    """
    n = t.shape[-1]
    target = n * p
    lo, hi, y = 0.0, np.inf, 1.0
    for _ in range(_SCALE_MAX_STEPS):
        v, s = _scale_sums(spec, t, y, -float(target), 0.0)
        if abs(v) <= 1e-13 * target:
            return y, v / n
        if v > 0:
            hi = y
        else:
            lo = y
        step = y - v / s if s > 0 else np.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if hi < np.inf else 2.0 * y
        elif abs(step - y) <= 1e-8 * y:
            # Newton converges quadratically: the error left is ~1e-16 y
            return step, v / n
        if not 1 / _SCALE_LIMIT <= step <= _SCALE_LIMIT:
            break
        y = step
    return np.nan, np.nan


def _whiten(L: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W = L^{-1} Z and t_i = z_i^H (L L^H)^{-1} z_i = ||w_i||^2, for a sample or each sample of a stack.

    t is summed on the real view of W, so no conjugate copy is made. A caller
    that needs only t drops W at once, before the next p x n temporary.
    """
    W = np.linalg.inv(L) @ Z
    Wr = W.view(np.float64)
    sq = np.einsum("...ij,...ij->...j", Wr, Wr)
    return W, sq[..., 0::2] + sq[..., 1::2]


def _frobenius(A: np.ndarray) -> np.ndarray:
    """Frobenius norm of a C-contiguous complex matrix, or of each of a stack, as one dot product of its real view."""
    return _norms(A.view(np.float64).reshape(*A.shape[:-2], -1))


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of a real vector, or of each row of a real (m, k) array, one BLAS dot product per row."""
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


def _each(fn, *stacks) -> tuple[np.ndarray, list]:
    """fn on stacks of matrices, and the positions where it raises LinAlgError.

    The stacks go through fn in one call; only when that call fails is each
    position computed on its own to find the failures (a stack of one needs
    no second call). A failed position's result, shaped like the last stack,
    is left undefined.
    """
    try:
        return fn(*stacks), []
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return np.empty_like(stacks[-1]), [0]
    out = np.empty_like(stacks[-1])
    bad = []
    for j in range(len(stacks[0])):
        try:
            out[j] = fn(*(A[j] for A in stacks))
        except np.linalg.LinAlgError:
            bad.append(j)
    return out, bad


def _cholesky(S: np.ndarray) -> np.ndarray | None:
    """The Cholesky factor of S, or None when S is not (numerically) positive definite."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None


def _singular_iterate() -> DegeneracyError:
    return DegeneracyError("singular iterate: Cholesky factorization failed")


def _no_scale_root() -> DegeneracyError:
    return DegeneracyError("scale recalibration has no root; weight function unusable on this sample")


def _finish(out: list, ids: list, rows: list, results: list, arrays) -> list:
    """Record each finished row's result at its caller's position; return `arrays` without those rows.

    `ids`, the caller's position of each live row, loses the same rows, in place.
    """
    if not rows:
        return list(arrays)
    for j, res in zip(rows, results):
        out[ids[j]] = res
    keep = [j for j in range(len(ids)) if j not in rows]
    ids[:] = [ids[j] for j in keep]
    return [arr[keep] for arr in arrays]


def _start(Z: np.ndarray) -> np.ndarray:
    """The first iterate of a sample, or of each sample of a stack: its SCM scaled to trace p."""
    p = Z.shape[-2]
    S = _weighted_scatter(Z, None)
    return S * (p / np.trace(S, axis1=-2, axis2=-1).real)[..., None, None]


def _uses_newton(p: int, n: int) -> bool:
    """Whether a p x n sample is solved by Newton's method on its weights (see `fixed_point_solve_stack`)."""
    return n <= _NEWTON_RATIO * p


def fixed_point_solve_stack(spec: MEstimatorSpec, Z, opts: SolverOptions | None = None) -> list:
    """`fixed_point_solve` of every sample of a stack.

    `Z` holds B samples of the same shape p x n: a (B, p, n) array or a
    sequence of p x n arrays. Returns one entry per sample: its solution as a
    HermitianMatrix, or the ConvergenceError or DegeneracyError that
    `fixed_point_solve` raises for it. Each entry is bitwise what
    `fixed_point_solve` returns for that sample alone, whatever its
    stack-mates and the stack size.

    The shape alone picks the method. For n <= _NEWTON_RATIO * p, Newton's
    method on the n trial weights runs on the whole stack at once
    (`_newton_stack`): its stacked n x n systems share BLAS and LAPACK calls,
    and every stacked step works sample by sample with the arithmetic of a
    single sample's solve. A sample it does not certify is solved by the
    Anderson sweeps (`_anderson_solve`), with the result those give it for
    any n. Above that crossover the Anderson sweeps solve every sample, one
    sample at a time.
    """
    opts = opts or SolverOptions()
    if len(Z) == 1:  # a stack of one: its sample is viewed, not copied
        Z = _as_samples(Z[0])[None]
    else:
        Z = np.stack([_as_samples(z) for z in Z])
    B, p, n = Z.shape
    if n <= p:
        raise DegeneracyError(f"need n > p samples for a full-rank solution, got n={n}, p={p}")
    out = _newton_stack(spec, Z, opts) if _uses_newton(p, n) else [None] * B
    return [_anderson_solve(spec, z, opts) if res is None else res for z, res in zip(Z, out)]


def _newton_stack(spec: MEstimatorSpec, Z: np.ndarray, opts: SolverOptions) -> list:
    """Newton's method on each sample's weights: its solution as a HermitianMatrix, an error, or None.

    The fixed point is S(w) = (1/n) Z diag(w) Z^H at the root of
    F(w) = w - u(t(w)), where t_i(w) = z_i^H S(w)^{-1} z_i. With W = L^{-1} Z
    for the Cholesky factor L of S(w), dt_i/dw_j = -|w_i^H w_j|^2 / n, so
    the Jacobian is J = I + (1/n) diag(u'(t)) |W^H W|^2, elementwise squared,
    with u' = (Psi' - u)/t. The weights start from the Anderson sweeps' first
    image, w = u(y t) at the start iterate and its scale root y. Each step
    whitens, certifies S(w) on the plain map as the sweeps do, and solves
    the n x n Newton systems of the stack in one call. A sample whose first
    sweep fails gets that sweep's DegeneracyError. One whose later
    factorization or Newton system fails, whose full step is not finite or
    would make a weight <= 0, or that is not certified within
    min(_NEWTON_STEPS, max_iter) whitenings, gets None.
    """
    B, p, n = Z.shape
    out: list = [None] * B
    ids = list(range(B))
    # The first sweep, and its failures, are the Anderson sweeps' own.
    L, bad = _each(np.linalg.cholesky, _start(Z))
    Z, L = _finish(out, ids, bad, [_singular_iterate() for _ in bad], (Z, L))
    t = _whiten(L, Z)[1]
    y = np.array([_scale_root(spec, tj, p)[0] for tj in t])
    bad = [j for j, v in enumerate(y.tolist()) if v != v]  # no root
    Z, t, y = _finish(out, ids, bad, [_no_scale_root() for _ in bad], (Z, t, y))
    w = spec.u(t * y[:, None])
    for _ in range(min(_NEWTON_STEPS, opts.max_iter) - 1):
        if not ids:
            break
        S = _weighted_scatter(Z, w)
        L, bad = _each(np.linalg.cholesky, S)
        if bad:
            Z, w, S, L = _finish(out, ids, bad, [], (Z, w, S, L))
            if not ids:
                break
        W, t = _whiten(L, Z)
        ut = spec.u(t)
        F = w - ut
        gate = (_NEWTON_GATE * opts.tol) * w.max(axis=-1)
        near = [j for j, ok in enumerate((np.abs(F).max(axis=-1) <= gate).tolist()) if ok]
        if near:
            resid = _frobenius(_weighted_scatter(Z[near], ut[near]) - S[near]) / _frobenius(S[near])
            done = [j for j, r in zip(near, resid.tolist()) if r <= opts.tol]
            if done:
                results = [HermitianMatrix(S[j]) for j in done]
                Z, w, W, t, ut, F = _finish(out, ids, done, results, (Z, w, W, t, ut, F))
                if not ids:
                    break
        G = W.mT.conj() @ W
        np.square(G.real, out=G.real)
        np.square(G.imag, out=G.imag)
        J = G.real + G.imag  # |w_i^H w_j|^2
        del G
        J *= np.divide(spec.psi_prime(t) - ut, n * t, out=np.zeros_like(t), where=t > 0)[..., None]
        J.reshape(len(ids), -1)[:, ::n + 1] += 1.0
        step, bad = _each(np.linalg.solve, J, F[..., None])
        del J  # freed before the next step's n x n arrays
        step = step[..., 0]
        usable = (np.isfinite(step) & (w > step)).all(axis=-1)  # a finite step that keeps every weight positive
        bad += [j for j, ok in enumerate(usable.tolist()) if not ok and j not in bad]
        w = w - step
        Z, w = _finish(out, ids, bad, [], (Z, w))
    return out


def _anderson_solve(spec: MEstimatorSpec, Z: np.ndarray, opts: SolverOptions):
    """The accelerated fixed-point sweeps of `fixed_point_solve` on one p x n sample.

    Returns its entry of `fixed_point_solve_stack`: the solution as a
    HermitianMatrix, or the DegeneracyError or ConvergenceError it gets.
    """
    p = Z.shape[0]
    S = _start(Z)
    history: list = []  # (residual, image) differences, oldest first
    last = None  # the last (residual, image); None before the first sweep and after a restart
    L = _cholesky(S)
    if L is None:
        return _singular_iterate()
    for _ in range(opts.max_iter):
        t = _whiten(L, Z)[1]
        y = _scale_root(spec, t, p)[0]
        if y != y:  # no root
            return _no_scale_root()
        T = _weighted_scatter(Z, spec.u(t * y))
        f = (T - S).view(np.float64).reshape(-1)
        norm_S = _frobenius(S)
        resid = _norms(f) / norm_S
        # Certify the contract on the plain (uncorrected) map before returning. At y = 1 the image
        # is the plain one, and `resid` is its residual, computed with the same kernels.
        if resid <= opts.tol and (
                y == 1.0 or _frobenius(_weighted_scatter(Z, spec.u(t)) - S) / norm_S <= opts.tol):
            return HermitianMatrix(S)

        # The next iterate: the Anderson mix, or the plain image.
        if last is not None:
            if len(history) == _ANDERSON_MEMORY:
                del history[0]
            history.append((f - last[0], T - last[1]))
        last = f, T
        S = T.copy()
        if history and not _anderson_mix(S, f, history):
            # A dependent history: restart from the plain image.
            history.clear()
            last = None
        L = _cholesky(S)
        if L is None and history:
            # A mix outside the positive-definite cone: restart from the plain image.
            history.clear()
            last = None
            S = T
            L = _cholesky(S)
        if L is None:
            return _singular_iterate()
    return ConvergenceError(
        f"no convergence within {opts.max_iter} iterations (last residual {resid:.3e})", residual=float(resid))


def fixed_point_solve(spec: MEstimatorSpec, Z, opts: SolverOptions | None = None) -> HermitianMatrix:
    """Solve Sigma = (1/n) sum u(z_i^H Sigma^{-1} z_i) z_i z_i^H.

    Either method returns once the plain (unrecalibrated) fixed-point
    residual of the iterate is at or below `opts.tol`, and `opts.max_iter`
    bounds the whitenings of each. The unit weight reaches the sample
    covariance after one sweep and returns it, bitwise equal to `scm`.

    For n > 4p (`_NEWTON_RATIO`), each sweep whitens the samples with the
    Cholesky factor of the iterate (t_i = ||L^{-1} z_i||^2), recalibrates the
    iterate's scale through the one-dimensional equation mean(Psi) = p, and
    applies the weighted-scatter map; the recalibration vanishes at any
    solution, so fixed points are unchanged, while the otherwise
    slowly-contracting scale mode is removed. The next iterate is the
    type-II Anderson mix of the last few images, with real coefficients, so
    it stays exactly Hermitian; a mix that is not positive definite is
    replaced by the plain image and the history is cleared.

    For n <= 4p the n weights w_i = u(t_i) are solved instead, by Newton's
    method on w - u(t(w)) from the first sweep's image, with the iterate
    S(w) = (1/n) Z diag(w) Z^H: about 8 whitenings where the sweeps take
    about 20 at n = 2p. A sample that Newton's method does not certify
    within a few steps gets the sweeps' solution. See `_newton_stack` and
    `_anderson_solve`. This is `fixed_point_solve_stack` on a stack of one
    sample.
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
    sigma, resid = _scale_root(spec, Q, p)
    if np.isnan(sigma):
        raise CalibrationError("the scale equation has no root")
    if not 1e-3 <= sigma <= 1e3:
        raise CalibrationError(f"the scale root {sigma:.3g} lies outside [1e-3, 1e3]")
    if abs(resid) >= 1e-3 * p:
        raise CalibrationError("the scale equation residual is too large")
    return sigma


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
    v, s = -float(target), 0.0
    for Q in modular_variate_chunks(dist, p, draws, stream or _CALIBRATION_STREAM):
        v, s = _scale_sums(spec, Q, 1.0, v, s)
        del Q  # dropped before the next piece is drawn
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
