"""Second-order asymptotic coefficients and covariance structures of scatter EVDs.

Covers the standard large-sample regime (theta1, theta2), the Gaussian-core
equivalent regime (sigma1, sigma2), their induced covariances for eigenvalues,
eigenvectors and the full vectorized scatter, and a first-order perturbation
oracle used by the property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoefficientError, DegeneracyError, InputError, NumericError, SizeGuardError
from .estimators import MEstimatorSpec
from .linalg import GAP_RTOL, P2_MATRIX_MAX_DIM, EvdResult, HermitianMatrix, commutation, hermitian_entries, kron, vec
from .sampling import CesDistribution, RandomStream, coupled_modular_variate_chunks

_COEFF_STREAM = RandomStream(seed=0xC0EFF, index=0)
COEFF_MIN_DRAWS = 100_000  # fewest draws `coeffs_numeric` accepts
# Draws per streamed piece of `coeffs_numeric`. A piece's draws, its five rows of integrands and their
# temporaries peak at about 4 MiB; twice the piece went past 8 MiB. Each piece's arrays are dropped
# before the next is drawn: held over, they lifted the peak to 5 MiB, and the heap glibc trimmed on
# return was faulted back in by every later call (1 184 minor faults per call at p = 20).
_COEFF_CHUNK = 1 << 15

@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Moment pieces and the coefficient pairs they induce.

    a_m, c_m drive the standard-regime pair (theta1, theta2); a, b, c drive the
    core-equivalent pair (sigma1, sigma2). Both pairs are always derived from
    the stored moments, so the assembly identities hold by construction.
    """

    p: int
    a_m: float
    c_m: float
    a: float
    b: float
    c: float
    theta1: float
    theta2: float
    sigma1: float
    sigma2: float

    def __post_init__(self):
        p = self.p
        if not self.theta1 > 0:
            raise CoefficientError(f"theta1 must be positive, got {self.theta1}")
        if not self.theta2 > -self.theta1 / p:
            raise CoefficientError(f"theta2 = {self.theta2} violates theta2 > -theta1/p")
        if self.sigma1 < 0:
            raise CoefficientError(f"sigma1 must be nonnegative, got {self.sigma1}")
        if abs(self.theta1 - self.a_m * p * (p + 1) / self.c_m**2) > 1e-12 * max(1.0, self.theta1):
            raise CoefficientError("theta1 inconsistent with its moment pieces")

    @classmethod
    def from_moments(cls, p: int, a_m: float, c_m: float, a: float, b: float, c: float) -> "AsymptoticCoeffs":
        theta1 = a_m * p * (p + 1) / c_m**2
        theta2 = (a_m - p**2) / (c_m - p**2) ** 2 - a_m * (p + 1) / c_m**2
        sigma1 = (a * p * (p + 1) + c * (c - 2 * b)) / c**2
        sigma2 = (
            (a - p**2) / (c - p**2) ** 2
            - a * (p + 1) / c**2
            + 2 * p * (c - b) / (c * (c - p**2))
        )
        return cls(
            p=p, a_m=a_m, c_m=c_m, a=a, b=b, c=c,
            theta1=theta1, theta2=theta2, sigma1=sigma1, sigma2=sigma2,
        )


def coeffs_closed_form_student(p: int, d: float) -> AsymptoticCoeffs:
    """Exact coefficients for the Student MLE weight on matched t data.

    With m = p + d/2 all five moment pieces coincide at m p (p+1) / (m+1),
    giving theta1 = (m+1)/m, theta2 = sigma2 = (2/d)(m+1)/m and sigma1 = 1/m.
    """
    if p < 1:
        raise InputError("dimension p must be >= 1")
    d = float(d)
    if not d > 0:
        raise InputError("degrees of freedom d must be > 0")
    m = p + d / 2
    moment = m * p * (p + 1) / (m + 1)
    return AsymptoticCoeffs.from_moments(p, a_m=moment, c_m=moment, a=moment, b=moment, c=moment)


def coeffs_numeric(
    spec: MEstimatorSpec,
    dist: CesDistribution,
    p: int,
    draws: int = 1_000_000,
    stream: RandomStream | None = None,
) -> AsymptoticCoeffs:
    """Monte Carlo coefficients on the coupled joint law of (Q, ||g||^2).

    The cross moment b = E[Psi(sigma Q) ||g||^2] only makes sense under the
    coupling realized by the sampler, which is why the marginal modular law is
    not enough here. The moments enter the coefficient formulas through near
    cancellations (a - p^2 is tiny against a), so each one is estimated with
    control variates built from the two exactly-known means E[Psi(sigma Q)] = p
    (the calibration identity, exact by the sigma precondition) and
    E[||g||^2] = p; this keeps all coefficients inside 1% at 1e6 draws.
    The draws are streamed in pieces of _COEFF_CHUNK: each piece's means and
    centered co-moments are merged into the running ones (Chan, Golub and
    LeVeque's pairwise update), so no array of all the draws is held.
    """
    if draws < COEFF_MIN_DRAWS:
        raise InputError("coefficient estimation needs at least 1e5 draws")
    # Rows: the controls psi - p and ||g||^2 - p, then the integrands of a, b and c - p^2.
    mean, comoment, seen = np.zeros(5), np.zeros((2, 5)), 0
    for Q, gnorm2 in coupled_modular_variate_chunks(dist, p, draws, stream or _COEFF_STREAM, _COEFF_CHUNK):
        sq = spec.sigma * Q
        psi = spec.psi(sq)
        X = np.stack([psi - p, gnorm2 - p, psi**2, psi * gnorm2, spec.psi_prime(sq) * sq])
        k = X.shape[1]
        m = X.mean(axis=1)
        X -= m[:, None]
        delta = m - mean
        comoment += X[:2] @ X.T + np.outer(delta[:2], delta) * (seen * k / (seen + k))
        mean += delta * (k / (seen + k))
        seen += k
        del Q, gnorm2, sq, psi, X  # dropped before the next piece is drawn
    hbar = mean[:2]
    gram = comoment[:, :2] / draws

    def cv_mean(j: int) -> float:
        # lstsq: the controls are collinear for the unit weight on Gaussian data
        beta = np.linalg.lstsq(gram, comoment[:, j] / draws, rcond=None)[0]
        return float(mean[j] - beta @ hbar)

    a = cv_mean(2)
    b = cv_mean(3)
    c = cv_mean(4) + p**2
    if not all(np.isfinite(v) for v in (a, b, c)):
        raise NumericError("non-finite moment estimate; check the weight/distribution pairing")
    return AsymptoticCoeffs.from_moments(p, a_m=a, c_m=c, a=a, b=b, c=c)


def _scatter_cov_pair(S: np.ndarray, k1: float, k2: float) -> tuple[np.ndarray, np.ndarray]:
    p = S.shape[0]
    if p > P2_MATRIX_MAX_DIM:
        raise SizeGuardError(f"full p^2 x p^2 assembly limited to p <= {P2_MATRIX_MAX_DIM}, got {p}")
    v = vec(S)
    K = commutation(p)
    base = kron(S.T, S)
    C = k1 * base + k2 * np.outer(v, v.conj())
    P = k1 * base @ K + k2 * np.outer(v, v)
    return C, P


def scatter_cov(Sigma_sigma, coeffs: AsymptoticCoeffs) -> tuple[np.ndarray, np.ndarray]:
    """Covariance and pseudo-covariance of the vectorized estimate, standard regime."""
    return _scatter_cov_pair(hermitian_entries(Sigma_sigma), coeffs.theta1, coeffs.theta2)


def gcwe_scatter_cov(Sigma, coeffs: AsymptoticCoeffs) -> tuple[np.ndarray, np.ndarray]:
    """Covariance and pseudo-covariance of the core-equivalent difference."""
    return _scatter_cov_pair(hermitian_entries(Sigma), coeffs.sigma1, coeffs.sigma2)


def eigenvalue_cov(lam, k1: float, k2: float) -> np.ndarray:
    """Limiting eigenvalue covariance k1 * diag(lam)^2 + k2 * lam lam^T."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or not np.all(lam > 0):
        raise InputError("eigenvalues must be a strictly positive vector")
    V = k1 * np.diag(lam**2) + k2 * np.outer(lam, lam)
    w = np.linalg.eigvalsh(V)
    if w[0] < -1e-10 * max(w[-1], 1.0):
        raise CoefficientError("eigenvalue covariance is not PSD; coefficients out of range")
    return V


def eigenvalue_cov_trace(lam, k1: float, k2: float) -> float:
    """Closed trace of `eigenvalue_cov`, usable at any dimension."""
    lam = np.asarray(lam, dtype=float)
    return (k1 + k2) * float(np.sum(lam**2))


def _gap_check(lam: np.ndarray, j: int) -> np.ndarray:
    gaps = lam[j - 1] - lam
    bad = np.abs(gaps) < GAP_RTOL * abs(lam[0])
    bad[j - 1] = False
    if np.any(bad):
        raise DegeneracyError(f"eigenvalue {j} is not simple (gap below {GAP_RTOL:g} * lambda_1)")
    return gaps


def eigenvector_cov_xi(evd: EvdResult, j: int, k1: float) -> HermitianMatrix:
    """Limiting covariance of the j-th eigenvector estimate (j is 1-based).

    The pseudo-inverse zeroes the j-th spectral term, so the result annihilates
    the eigenvector itself; it is invariant to the phase convention of the
    eigenvector basis.
    """
    lam = evd.eigenvalues
    p = lam.shape[0]
    if not 1 <= j <= p:
        raise InputError(f"eigenvector index must be in 1..{p}, got {j}")
    gaps = _gap_check(lam, j)
    w = np.zeros(p)
    mask = np.arange(p) != j - 1
    w[mask] = lam[mask] / gaps[mask] ** 2
    U = evd.eigenvectors
    return HermitianMatrix.from_array(k1 * lam[j - 1] * (U * w) @ U.conj().T)


def eigenvector_cov_xi_trace(evd: EvdResult, j: int, k1: float) -> float:
    """Closed trace of `eigenvector_cov_xi`: k1 lam_j sum_{k != j} lam_k / gap^2."""
    lam = evd.eigenvalues
    if not 1 <= j <= lam.shape[0]:
        raise InputError(f"eigenvector index must be in 1..{lam.shape[0]}, got {j}")
    gaps = _gap_check(lam, j)
    mask = np.arange(lam.shape[0]) != j - 1
    return float(k1 * lam[j - 1] * np.sum(lam[mask] / gaps[mask] ** 2))


def eigen_perturbation_first_order(evd: EvdResult, Delta) -> tuple[np.ndarray, np.ndarray]:
    """First-order eigenvalue and eigenvector response to a Hermitian perturbation.

    Column j of the eigenvector derivative is the projection onto the
    complement of eigenvector j (its own component is fixed to zero by the
    normalization convention). Requires a simple spectrum.
    """
    D = hermitian_entries(Delta)
    lam = evd.eigenvalues
    p = lam.shape[0]
    if D.shape[0] != p:
        raise InputError("perturbation dimension mismatch")
    diffs = lam[None, :] - lam[:, None]  # (k, j) -> lam_j - lam_k
    off = ~np.eye(p, dtype=bool)
    if np.any(np.abs(diffs[off]) < GAP_RTOL * abs(lam[0])):
        raise DegeneracyError("degenerate spectrum: first-order perturbation undefined")
    U = evd.eigenvectors
    G = U.conj().T @ D @ U
    dlam = np.diag(G).real.copy()
    W = np.zeros_like(G)
    W[off] = G[off] / diffs[off]
    dU = U @ W
    return dlam, dU


__all__ = [
    "AsymptoticCoeffs",
    "coeffs_closed_form_student",
    "coeffs_numeric",
    "scatter_cov",
    "gcwe_scatter_cov",
    "eigenvalue_cov",
    "eigenvalue_cov_trace",
    "eigenvector_cov_xi",
    "eigenvector_cov_xi_trace",
    "eigen_perturbation_first_order",
]
