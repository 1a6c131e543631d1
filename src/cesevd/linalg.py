"""Complex Hermitian primitives: canonical EVD, Toeplitz scatter, vec and the commutation matrix.

Everything here is pure and allocation-only; matrices are immutable after
construction and safe to share across threads, so a matrix's eigendecomposition
is computed once and cached on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericError, SizeGuardError

# Largest p for which an explicit p^2 x p^2 matrix (commutation matrix, full covariance)
# is assembled; such matrices grow as p^4, so anything larger is a bug.
P2_MATRIX_MAX_DIM = 8
# Relative eigenvalue gap (a multiple of lambda_1) below which eigenvalues count as degenerate.
GAP_RTOL = 1e-10
# Relative asymmetry ||M - M^H|| / ||M|| that `HermitianMatrix.from_array` averages away; beyond it, it rejects M.
ASYM_RTOL = 1e-10


def _as_square_complex(values) -> np.ndarray:
    M = np.asarray(values, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"expected a square matrix, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class HermitianMatrix:
    """A p x p complex matrix with exact conjugate symmetry.

    The plain constructor demands entry-wise exact symmetry (and therefore
    exactly real diagonal); use :meth:`from_array` to symmetrize the nearly
    Hermitian output of floating point arithmetic.
    """

    entries: np.ndarray

    def __post_init__(self):
        M = _as_square_complex(self.entries)
        if not np.all(np.isfinite(M)):
            raise InputError("matrix entries must be finite")
        if not np.array_equal(M, M.conj().T):
            raise InputError("matrix is not exactly Hermitian; use HermitianMatrix.from_array")
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "entries", M)

    @classmethod
    def from_array(cls, values) -> "HermitianMatrix":
        """Average away floating-point asymmetry, rejecting anything beyond ASYM_RTOL."""
        M = _as_square_complex(values)
        if not np.all(np.isfinite(M)):
            raise InputError("matrix entries must be finite")
        scale = np.linalg.norm(M)
        asym = np.linalg.norm(M - M.conj().T)
        if scale > 0 and asym > ASYM_RTOL * scale:
            raise InputError(f"matrix is not Hermitian: relative asymmetry {asym / scale:.3e}")
        return cls((M + M.conj().T) / 2)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        lam, V = np.linalg.eigh(self.entries)
        lam.setflags(write=False)
        V.setflags(write=False)
        return lam, V

    @cached_property
    def sqrt(self) -> np.ndarray:
        """The Hermitian square root V diag(sqrt(lam)) V^H, read-only, formed on first use and kept.

        The matrix must be positive semi-definite; callers check that themselves.
        """
        lam, V = self._eigh
        A = (V * np.sqrt(lam)) @ V.conj().T
        A.setflags(write=False)
        return A


def hermitian_eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """`np.linalg.eigh` of a Hermitian matrix: ascending eigenvalues, eigenvectors as columns.

    A HermitianMatrix is decomposed on first use and keeps the read-only pair,
    so a fixed scatter shared by every trial is factorized once; raw arrays
    are validated and decomposed afresh. Callers check definiteness themselves.
    """
    if isinstance(M, HermitianMatrix):
        return M._eigh
    return np.linalg.eigh(hermitian_entries(M))


def hermitian_entries(M) -> np.ndarray:
    """Entries of `M` as an ndarray, validating Hermitian structure for raw arrays."""
    if isinstance(M, HermitianMatrix):
        return M.entries
    return HermitianMatrix.from_array(M).entries


@dataclass(frozen=True)
class EvdResult:
    """Eigendecomposition with descending eigenvalues and phase-canonical eigenvectors.

    Each eigenvector is rotated so that its largest-modulus entry is real and
    nonnegative (to floating precision), which makes the decomposition a
    deterministic function of the input away from eigenvalue ties.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def hermitian_evd(M) -> EvdResult:
    """Canonical eigendecomposition of a Hermitian matrix.

    Eigenvalues are sorted descending (ties permitted here; operations whose
    formulas divide by eigenvalue gaps reject them separately). It is built
    on `hermitian_eigh`, so a HermitianMatrix that has been decomposed is not
    decomposed again.
    """
    try:
        lam, U = hermitian_eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    lam = lam[::-1].copy()
    U = np.ascontiguousarray(U[:, ::-1])
    pivots = np.argmax(np.abs(U), axis=0)
    piv = U[pivots, np.arange(U.shape[1])]
    mag = np.abs(piv)
    phase = np.where(mag > 0, piv / np.where(mag > 0, mag, 1.0), 1.0)
    U = U * phase.conj()
    lam.setflags(write=False)
    U.setflags(write=False)
    return EvdResult(lam, U)


def phase_align(v, ref) -> np.ndarray:
    """Rotate `v` by the unit phase making ref^H v real and nonnegative."""
    v = np.asarray(v, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    inner = np.vdot(ref, v)
    mag = np.abs(inner)
    if mag == 0:
        raise InputError("phase alignment undefined: reference is orthogonal to the vector")
    return v * (inner.conjugate() / mag)


def toeplitz_scatter(p: int, rho: complex) -> HermitianMatrix:
    """Hermitian Toeplitz scatter with entry rho^(k-j) above the diagonal.

    The lower triangle is the conjugate mirror, so complex rho still yields a
    Hermitian positive definite matrix with unit diagonal (it is a unitary
    diagonal congruence of the real |rho| Toeplitz matrix).
    """
    if p < 1:
        raise InputError("dimension p must be >= 1")
    rho = complex(rho)
    if abs(rho) >= 1:
        raise InputError(f"|rho| must be < 1 for positive definiteness, got {abs(rho)}")
    k = np.arange(p)
    expo = k[None, :] - k[:, None]
    upper = rho ** np.clip(expo, 0, None)
    lower = np.conj(rho) ** np.clip(-expo, 0, None)
    return HermitianMatrix(np.where(expo >= 0, upper, lower))


def vec(M) -> np.ndarray:
    """Column-stacking vectorization, so that np.kron(A.T, B) @ vec(S) == vec(B @ S @ A)."""
    return np.asarray(M, dtype=complex).reshape(-1, order="F")


def commutation(p: int) -> np.ndarray:
    """The p^2 x p^2 permutation K with K vec(A) = vec(A^T). Test-scale only."""
    if p < 1:
        raise InputError("dimension p must be >= 1")
    if p > P2_MATRIX_MAX_DIM:
        raise SizeGuardError(f"commutation matrix limited to p <= {P2_MATRIX_MAX_DIM}, got {p}")
    K = np.zeros((p * p, p * p))
    r, c = np.divmod(np.arange(p * p), p)
    # vec(A) index of A[r, c] is r + c*p; vec(A^T) index is c + r*p.
    K[r + c * p, c + r * p] = 1.0
    return K
