"""Low-rank-plus-identity models: principal subspaces, their asymptotics, and SNR loss."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DegenerateFilterError, InputError, SizeGuardError
from .linalg import GAP_RTOL, P2_MATRIX_MAX_DIM, HermitianMatrix, hermitian_entries, hermitian_evd
from .sampling import RandomStream

# Advisory clutter-to-noise separation below which the asymptotics get strained.
_SEPARATION_WARN_RATIO = 10.0


@dataclass(frozen=True)
class FactorModel:
    """Scatter Sigma = Ur diag(Lambda_r) Ur^H + gamma2 * I with cached derived matrices."""

    p: int
    r: int
    Ur: np.ndarray
    Lambda_r: np.ndarray
    gamma2: float
    sigma: HermitianMatrix
    projector: HermitianMatrix
    projector_perp: HermitianMatrix
    pseudo_inverse: HermitianMatrix


def build_factor_model(Ur, Lambda_r, gamma2: float) -> FactorModel:
    """Assemble and validate a factor model from its parts.

    Warns when min(Lambda_r)/gamma2 < 10: the subspace asymptotics assume the
    signal eigenvalues dominate the noise floor.
    """
    Ur = np.asarray(Ur, dtype=complex)
    if Ur.ndim == 1:
        Ur = Ur[:, None]
    if Ur.ndim != 2:
        raise InputError(f"Ur must be a p x r matrix, got shape {Ur.shape}")
    p, r = Ur.shape
    if not 1 <= r < p:
        raise InputError(f"rank must satisfy 1 <= r < p, got r={r}, p={p}")
    gram = Ur.conj().T @ Ur
    if np.linalg.norm(gram - np.eye(r)) > 1e-10:
        raise InputError("Ur is not semi-unitary (Ur^H Ur != I within 1e-10)")
    lam = np.asarray(Lambda_r, dtype=float)
    if lam.shape != (r,):
        raise InputError(f"Lambda_r must have length r={r}, got shape {lam.shape}")
    if not np.all(lam > 0):
        raise InputError("Lambda_r entries must be positive")
    if np.any(np.diff(lam) >= 0):
        raise InputError("Lambda_r must be strictly descending")
    gamma2 = float(gamma2)
    if not gamma2 > 0:
        raise InputError("gamma2 must be > 0")
    if lam[-1] / gamma2 < _SEPARATION_WARN_RATIO:
        warnings.warn(
            f"min(Lambda_r)/gamma2 = {lam[-1] / gamma2:.2f} < {_SEPARATION_WARN_RATIO:g}: "
            "weak signal/noise separation",
            RuntimeWarning,
            stacklevel=2,
        )
    proj = HermitianMatrix.from_array(Ur @ Ur.conj().T)
    sigma = HermitianMatrix.from_array((Ur * lam) @ Ur.conj().T + gamma2 * np.eye(p))
    perp = HermitianMatrix(np.eye(p, dtype=complex) - proj.entries)
    phi = HermitianMatrix.from_array((Ur / lam) @ Ur.conj().T)
    lam = lam.copy()
    lam.setflags(write=False)
    return FactorModel(
        p=p, r=r, Ur=Ur, Lambda_r=lam, gamma2=gamma2,
        sigma=sigma, projector=proj, projector_perp=perp, pseudo_inverse=phi,
    )


def principal_projector(M, r: int) -> HermitianMatrix:
    """Orthogonal projector onto the span of the top-r eigenvectors of M."""
    evd = hermitian_evd(M)
    p = evd.dim
    if not 1 <= r < p:
        raise InputError(f"rank must satisfy 1 <= r < p, got r={r}, p={p}")
    lam = evd.eigenvalues
    if lam[r - 1] - lam[r] <= GAP_RTOL * abs(lam[0]):
        raise DegeneracyError(f"no spectral gap between eigenvalues {r} and {r + 1}")
    Ur = evd.eigenvectors[:, :r]
    return HermitianMatrix.from_array(Ur @ Ur.conj().T)


def projector_cov_sigma_pi(model: FactorModel, full: bool = False):
    """Limiting projector covariance structure; its trace, or the full matrix.

    The trace has the closed form 2 gamma2 (p - r) sum_j (gamma2/mu_j^2 + 1/mu_j)
    and is available at any dimension; the explicit p^2 x p^2 assembly is
    gated to small p.
    """
    mu = model.Lambda_r
    trace = 2.0 * model.gamma2 * (model.p - model.r) * float(np.sum(model.gamma2 / mu**2 + 1.0 / mu))
    if not full:
        return trace
    if model.p > P2_MATRIX_MAX_DIM:
        raise SizeGuardError(f"full assembly limited to p <= {P2_MATRIX_MAX_DIM}, got {model.p}")
    A = (model.Ur * (model.gamma2 / mu**2 + 1.0 / mu)) @ model.Ur.conj().T
    B = model.gamma2 * model.projector_perp.entries
    return np.kron(A.T, B) + np.kron(B.T, A)


def projector_perturbation_first_order(model: FactorModel, Delta) -> HermitianMatrix:
    """First-order projector response Pi_perp D Phi + Phi D Pi_perp (trace-free)."""
    D = hermitian_entries(Delta)
    if D.shape[0] != model.p:
        raise InputError("perturbation dimension mismatch")
    perp = model.projector_perp.entries
    phi = model.pseudo_inverse.entries
    return HermitianMatrix.from_array(perp @ D @ phi + phi @ D @ perp)


def steering_vector(model: FactorModel, stream: RandomStream) -> np.ndarray:
    """Unit-norm steering vector in the noise subspace (range of Pi_perp).

    Drawn at random and projected; with this convention the loss of the exact
    projector is exactly 1.
    """
    rng = stream.generator()
    raw = rng.standard_normal((2, model.p))
    v = model.projector_perp.entries @ (raw[0] + 1j * raw[1])
    norm = np.linalg.norm(v)
    if norm == 0:
        raise DegenerateFilterError("steering draw collapsed to zero after projection")
    return v / norm


def snr_loss(proj_perp_hat, model: FactorModel, steer) -> float:
    """Output-to-optimal SNR ratio of the low-rank filter built from an estimated projector.

    Equals 1 exactly when the estimated null-space projector matches the true
    one and the steering vector lies in the noise subspace.
    """
    P = hermitian_entries(proj_perp_hat)
    s = np.asarray(steer, dtype=complex)
    S = model.sigma.entries
    Ps = P @ s
    num = model.gamma2 * float(np.vdot(s, Ps).real) ** 2
    den = float(np.vdot(Ps, S @ Ps).real)
    if den < 1e-14:
        raise DegenerateFilterError("filter output power below 1e-14; loss undefined")
    return num / den


def snr_loss_theory(r: int, n: int) -> float:
    """Expected SNR loss 1 - r/n of the core-equivalent projector filter."""
    if r < 0:
        raise InputError("rank must be >= 0")
    if n <= r:
        raise InputError(f"need n > r, got n={n}, r={r}")
    return 1.0 - r / n


__all__ = [
    "FactorModel",
    "build_factor_model",
    "principal_projector",
    "projector_cov_sigma_pi",
    "projector_perturbation_first_order",
    "steering_vector",
    "snr_loss",
    "snr_loss_theory",
]
