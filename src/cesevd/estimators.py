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
# at p = 20, in stacks of `stack_size`, a solve took 0.40 / 0.78 / 0.93
# of the Anderson sweeps' time at n = 40 / 62 / 80, and 1.3 / 1.2 at n = 88 / 95.
_NEWTON_RATIO = 4
# Working set of one stack; see `stack_size`. Larger stacks solve faster but raise peak
# memory: 640 KiB adds about 0.7 MB to an eig_small_n campaign.
_STACK_BYTES = 640 << 10
# Whitenings a Newton solve may take before its sample goes to the Anderson sweeps.
_NEWTON_STEPS = 16
# A Newton iterate forms its plain image for certification only once max|F| / max(w) is at most
# _NEWTON_GATE * tol. Along Newton solves at p = 20 (n = 21 to 80, Toeplitz and cond-1e6 scatters)
# the plain residual ranged from 0.026 to 3.3 times max|F| / max(w), so no certifiable iterate is
# skipped.
_NEWTON_GATE = 1e4
# Newton/bisection steps allowed for the scale root.
_SCALE_MAX_STEPS = 60
# The scale root returns y once |sum(psi(t*y)) - n p| is at most _SCALE_RTOL * n p. `unit_weight_sigma`
# ends on the same test, which keeps its sigma bitwise equal to `solve_sigma`'s.
_SCALE_RTOL = 1e-13
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


def _column(ys: list):
    """The floats `ys` as a column that scales the rows of a stack, one each; a single float scales a single row.

    Each row gets the products it gets alone: one row is scaled by its float,
    without building and broadcasting a column.
    """
    return ys[0] if len(ys) == 1 else np.array(ys)[:, None]


def _scale_sums(spec: MEstimatorSpec, rows: np.ndarray, ys: list, val: float) -> tuple[list, list]:
    """val + sum(psi(q*y)) and sum(psi'(q*y) * q) for each row q of `rows` and its y in `ys`, in one pass.

    The columns go in chunks of _SCALE_CHUNK, each summed in one piece per
    row and added to the row's running sum in chunk order, so no temporary
    is as large as a long row. A chunk is an (m, k) block whose row sums are
    those of the row alone as a (1, k) block: the recorded results were made
    with 2-D sums, and a 1-D sum may round otherwise. No sum goes through
    BLAS, whose threaded dot product would make the sums depend on the BLAS
    thread count.
    """
    yc = _column(ys)
    vals = slopes = None
    for i in range(0, rows.shape[1], _SCALE_CHUNK):
        c = rows[:, i:i + _SCALE_CHUNK]
        cy = c * yc
        v = spec.psi(cy).sum(axis=-1).tolist()
        s = np.einsum("ij,ij->i", spec.psi_prime(cy), c).tolist()
        if vals is None:  # the running sums are Python floats, which add as numpy's would
            vals, slopes = [val + a for a in v], s
        else:
            vals, slopes = [a + b for a, b in zip(vals, v)], [a + b for a, b in zip(slopes, s)]
    return vals, slopes


def _scale_roots(spec: MEstimatorSpec, t: np.ndarray, p: int) -> tuple[list, list]:
    """Root y of mean(psi(t_b*y)) = p for each row t_b of a (B, n) t, and mean(psi(t_b*y)) - p at its last evaluation.

    Both come as lists of B floats. A row whose equation has no root gets
    (nan, nan). In a sweep y = 1/c recalibrates each iterate's scale; in
    `solve_sigma`, t is one row, the modular-variate sample, and y the
    calibrated scale.

    mean(psi(t*y)) is non-decreasing in y and its root is y = 1 at any fixed
    point (trace identity), so Newton steps start there. Every evaluation
    narrows a bracket on the root, and a step that leaves the bracket is
    replaced by bisection (or by doubling while no upper end is known). A
    step that would leave [1/_SCALE_LIMIT, _SCALE_LIMIT] ends the row's
    search with no root, as when a bounded psi stays below p. Each step
    evaluates the rows still searching in one `_scale_sums` pass, and each
    row's bracket logic runs on Python floats, so a row's result does not
    depend on the other rows.
    """
    B, n = t.shape
    target = n * p
    atol = _SCALE_RTOL * target
    y_out, r_out = [np.nan] * B, [np.nan] * B
    rows, live, ys = t, [(b, 0.0, np.inf) for b in range(B)], [1.0] * B  # each searching row's (row, lo, hi), and y
    for _ in range(_SCALE_MAX_STEPS):
        val, slope = _scale_sums(spec, rows, ys, -float(target))
        searching, steps = [], []
        for (b, lo, hi), y, v, s in zip(live, ys, val, slope):
            if abs(v) <= atol:
                y_out[b], r_out[b] = y, v / n
                continue
            if v > 0:
                hi = y
            else:
                lo = y
            step = y - v / s if s > 0 else np.nan
            if not lo < step < hi:
                step = 0.5 * (lo + hi) if hi < np.inf else 2.0 * y
            elif abs(step - y) <= 1e-8 * y:
                # Newton converges quadratically: the error left is ~1e-16 y
                y_out[b], r_out[b] = step, v / n
                continue
            if 1 / _SCALE_LIMIT <= step <= _SCALE_LIMIT:  # else no root
                searching.append((b, lo, hi))
                steps.append(step)
        if not searching:
            break
        if len(searching) < len(live):
            rows = t[[b for b, _, _ in searching]]
        live, ys = searching, steps
    return y_out, r_out


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
    position computed on its own to find the failures. A failed position's
    result, shaped like the last stack, is left undefined.
    """
    try:
        return fn(*stacks), []
    except np.linalg.LinAlgError:
        pass
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


def _finish(out: list, ids: list, rows: list, results: list, arrays, lists=()) -> list:
    """Record each finished row's result at its caller's position; return `arrays` without those rows.

    `ids` (the caller's position of each live row) and each of `lists` lose
    the same rows, in place.
    """
    if not rows:
        return list(arrays)
    for j, res in zip(rows, results):
        out[ids[j]] = res
    keep = [j for j in range(len(ids)) if j not in rows]
    for lst in (ids, *lists):
        lst[:] = [lst[j] for j in keep]
    return [arr[keep] for arr in arrays]


def _start(Z: np.ndarray) -> np.ndarray:
    """The first iterate of a sample, or of each sample of a stack: its SCM scaled to trace p."""
    p = Z.shape[-2]
    S = _weighted_scatter(Z, None)
    return S * (p / np.trace(S, axis1=-2, axis2=-1).real)[..., None, None]


def _uses_newton(p: int, n: int) -> bool:
    """Whether a p x n sample is solved by Newton's method on its weights (see `fixed_point_solve_stack`)."""
    return n <= _NEWTON_RATIO * p


def _member_bytes(p: int, n: int) -> int:
    """The working set charged to one p x n sample of a stack (see `stack_size`)."""
    if _uses_newton(p, n):
        return 24 * n * n + 16 * p * (6 * p + 5 * n)
    return 8 * p * (27 * p + 5 * n)


def stack_size(p: int, n: int) -> int:
    """Samples per stack at p x n: as many as fit in _STACK_BYTES, at least one.

    A stack takes one call per step for all its samples: that saves the
    per-call overhead, which weighs most at small n, and costs working set,
    which grows with n. A Newton member holds two n x n arrays, the complex
    Gram matrix of its whitened sample and the real Jacobian (24 n^2 bytes),
    six p x p complex arrays for its iterates and about five p x n complex
    arrays: its sample, its row of the stack (copied again when a stack-mate
    finishes and the stack is compacted) and the step temporaries. An
    Anderson member is charged 13.5 p x p and 2.5 p x n complex arrays,
    fitted to traced peaks: at p = 20 a stack's peak per member was
    156 / 190 / 247 KiB at n = 95 / 147 / 228 in stacks of 4 / 3 / 2, against
    charges of 159 / 199 / 263 KiB. At p = 20 that gives 4 and 2 samples at
    n = 40 and 62 (Newton), 4, 3 and 2 at n = 95, 147 and 228 (Anderson),
    and one from n = 352 on.
    """
    return max(1, _STACK_BYTES // _member_bytes(p, n))


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
    (`_newton_stack`), and the samples it does not certify go to the
    Anderson sweeps together, with the result those give each for any n.
    Above that crossover the Anderson sweeps (`_anderson_stack`) solve the
    whole stack. Either way each step makes one BLAS or LAPACK call per
    operation, and each scale root one pass per step, for all the samples
    still live, with the arithmetic of a single sample's solve for each.
    That saves the per-call overhead that dominates a sweep at small n;
    `stack_size` gives the campaigns' stacks, several samples up to a few
    hundred columns at p = 20 and one sample beyond, where a sweep's cost
    is arithmetic. An empty stack has no entries; samples of different
    shapes are an InputError.
    """
    opts = opts or SolverOptions()
    if len(Z) == 0:
        return []
    if len(Z) == 1:  # a stack of one: its sample is viewed, not copied
        Z = _as_samples(Z[0])[None]
    else:
        samples = [_as_samples(z) for z in Z]
        for z in samples:
            if z.shape != samples[0].shape:
                raise InputError(f"the samples of a stack differ in shape: {samples[0].shape} and {z.shape}")
        Z = np.stack(samples)
    B, p, n = Z.shape
    if n <= p:
        raise DegeneracyError(f"need n > p samples for a full-rank solution, got n={n}, p={p}")
    out = _newton_stack(spec, Z, opts) if _uses_newton(p, n) else [None] * B
    rest = [b for b, res in enumerate(out) if res is None]
    if rest:
        for b, res in zip(rest, _anderson_stack(spec, Z if len(rest) == B else Z[rest], opts)):
            out[b] = res
    return out


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
    y = _scale_roots(spec, t, p)[0]
    bad = [j for j, v in enumerate(y) if v != v]  # no root
    Z, t = _finish(out, ids, bad, [_no_scale_root() for _ in bad], (Z, t), (y,))
    w = spec.u(t * _column(y))
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


def _anderson_stack(spec: MEstimatorSpec, Z: np.ndarray, opts: SolverOptions) -> list:
    """The accelerated fixed-point sweeps of `fixed_point_solve` on a (B, p, n) stack.

    Returns the entries `fixed_point_solve_stack` returns. Each sweep whitens,
    recalibrates, maps and factors the whole stack in one call each, while
    every sample keeps its own Anderson history, restarts, certification and
    error, and leaves the stack once it is certified or has failed.
    """
    B, p, _ = Z.shape
    S = _start(Z)
    out: list = [None] * B
    ids = list(range(B))  # the caller's position of each live row
    history: list = [[] for _ in range(B)]  # each row's (residual, image) differences, oldest first
    last: list = [None] * B  # each row's last (residual, image); None before its first sweep and after a restart

    def finish(rows, results, arrays, lists=()):
        """Record each finished row's result; return `arrays` with the other rows, and compact the lists alike."""
        return _finish(out, ids, rows, results, arrays, (history, last, *lists))

    L, bad = _each(np.linalg.cholesky, S)
    Z, S, L = finish(bad, [_singular_iterate() for _ in bad], (Z, S, L))
    for _ in range(opts.max_iter):
        if not ids:
            break
        t = _whiten(L, Z)[1]
        y = _scale_roots(spec, t, p)[0]
        bad = [j for j, v in enumerate(y) if v != v]  # no root
        if bad:
            Z, S, t = finish(bad, [_no_scale_root() for _ in bad], (Z, S, t), (y,))
            if not ids:
                break
        T = _weighted_scatter(Z, spec.u(t * _column(y)))
        f = (T - S).view(np.float64).reshape(len(ids), -1)
        norm_S = _frobenius(S)
        resid = _norms(f) / norm_S
        # Certify the contract on the plain (uncorrected) map before returning. At y = 1 the image
        # is the plain one, and `resid` is its residual, computed with the same kernels.
        done = [j for j, r in enumerate(resid.tolist()) if r <= opts.tol and (
            y[j] == 1.0 or _frobenius(_weighted_scatter(Z[j], spec.u(t[j])) - S[j]) / norm_S[j] <= opts.tol)]
        if done:
            Z, T, f, resid = finish(done, [HermitianMatrix(S[j]) for j in done], (Z, T, f, resid))
            if not ids:
                break

        # The next iterates: each row's Anderson mix, or its plain image.
        S = T.copy()
        for j, hist in enumerate(history):
            fj, Tj = f[j], T[j]
            if last[j] is not None:
                if len(hist) == _ANDERSON_MEMORY:
                    del hist[0]
                hist.append((fj - last[j][0], Tj - last[j][1]))
            last[j] = fj, Tj
            if hist and not _anderson_mix(S[j], fj, hist):
                # A dependent history: restart from the plain image.
                hist.clear()
                last[j] = None
        L, bad = _each(np.linalg.cholesky, S)
        failed = []
        for j in bad:
            if history[j]:  # the row was mixed
                # A mix outside the positive-definite cone: restart from the plain image.
                history[j].clear()
                last[j] = None
                S[j] = T[j]
                Lj = _cholesky(S[j])
                if Lj is not None:
                    L[j] = Lj
                    continue
            failed.append(j)
        if failed:
            Z, S, L, resid = finish(failed, [_singular_iterate() for _ in failed], (Z, S, L, resid))
    for j, b in enumerate(ids):
        out[b] = ConvergenceError(
            f"no convergence within {opts.max_iter} iterations (last residual {resid[j]:.3e})",
            residual=float(resid[j]))
    return out


def fixed_point_solve(spec: MEstimatorSpec, Z, opts: SolverOptions | None = None) -> HermitianMatrix:
    """Solve Sigma = (1/n) sum u(z_i^H Sigma^{-1} z_i) z_i z_i^H.

    Either method returns once the plain (unrecalibrated) fixed-point
    residual of the iterate is at or below `opts.tol`, and `opts.max_iter`
    bounds the whitenings of each. The unit weight's first image is the
    sample covariance, which its second whitening certifies: it returns
    that, bitwise equal to `scm`.

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
    `_anderson_stack`. This is `fixed_point_solve_stack` on a stack of one
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
    (sigma,), (resid,) = _scale_roots(spec, Q[None], p)
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
    finds it within _SCALE_RTOL and returns it unchanged.
    That first step needs only the two sums of the first pass at y = 1,
    sum(Q) and sum(psi'(Q) * Q), which are taken here piece by piece as the
    draws are made, on `_scale_sums`'s (1, _SCALE_CHUNK) chunks with its
    reductions, so sigma has solve_sigma's bits. At y = 1, Q * y is Q and
    psi' is one, so neither of `_scale_sums`'s chunk-sized temporaries is
    made: one piece of draws (`sampling._DRAW_CHUNK`, 2^18 draws or 2 MiB)
    and one row of ones are held.
    CalibrationError when the root lies outside [1e-3, 1e3] or the sums are
    not finite.
    """
    target = draws * p
    v, s = -float(target), 0.0
    ones = np.ones((1, _SCALE_CHUNK))
    for Q in modular_variate_chunks(dist, p, draws, stream or _CALIBRATION_STREAM):
        Q = Q.reshape(1, -1)
        for i in range(0, Q.shape[1], _SCALE_CHUNK):
            c = Q[:, i:i + _SCALE_CHUNK]
            v += c.sum(axis=-1).item()
            s += np.einsum("ij,ij->i", ones[:, :c.shape[1]], c).item()
        del Q, c  # dropped before the next piece is drawn
    if not (np.isfinite(v) and 0 < s < np.inf):
        raise CalibrationError("the scale equation's sums are not finite")
    sigma = 1.0 if abs(v) <= _SCALE_RTOL * target else 1.0 - v / s
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
    "stack_size",
    "unit_weight_sigma",
]
