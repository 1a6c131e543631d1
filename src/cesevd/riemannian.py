"""Affine-invariant geometry of PD matrices: distance, log map, and intrinsic bounds.

The digamma implementation is self-contained (recurrence shift plus asymptotic
series) so the package has no special-function dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError
from .estimators import student_spec
from .linalg import HermitianMatrix, hermitian_eigh, hermitian_entries
from .sampling import CesDistribution, RandomStream, modular_variate_sample

_ALPHA_STREAM = RandomStream(seed=0xA1FA, index=0)


@dataclass(frozen=True)
class IntrinsicBound:
    """A lower bound on the expected squared natural distance, split into addends.

    `value` is always the left-to-right sum of `components`, so differences of
    bounds sharing a prefix of components are exact term differences.
    """

    components: dict[str, float]
    value: float = field(init=False)

    def __post_init__(self):
        total = 0.0
        for v in self.components.values():
            total += v
        object.__setattr__(self, "value", total)


def _pd_eigh(M) -> tuple[np.ndarray, np.ndarray]:
    w, V = hermitian_eigh(M)
    if w[0] <= 0:
        raise DomainError("matrix is not positive definite")
    return w, V


def _whitened(S1, S2) -> np.ndarray:
    """S1^{-1/2} S2 S1^{-1/2}, Hermitized; S1's eigendecomposition is cached when it is a HermitianMatrix."""
    w, V = _pd_eigh(S1)
    ish = (V / np.sqrt(w)) @ V.conj().T
    W = ish @ hermitian_entries(S2) @ ish
    return (W + W.conj().T) / 2


def whitened_spectrum(S1, S2) -> np.ndarray:
    """Ascending eigenvalues of S1^{-1/2} S2 S1^{-1/2} (positive when S2 is PD)."""
    lw = np.linalg.eigvalsh(_whitened(S1, S2))
    if lw[0] <= 0:
        raise DomainError("matrix is not positive definite")
    return lw


def nat_distance(S1, S2) -> float:
    """Natural Riemannian distance: sqrt(sum of squared log eigenvalues of S1^{-1} S2)."""
    return float(np.sqrt(np.sum(np.log(whitened_spectrum(S1, S2)) ** 2)))


def riemannian_logmap(Sigma, Sigma_hat) -> HermitianMatrix:
    """Log map of Sigma_hat at Sigma: Sigma^{1/2} log(Sigma^{-1/2} Sigma_hat Sigma^{-1/2}) Sigma^{1/2}."""
    w, V = _pd_eigh(Sigma)
    sq = (V * np.sqrt(w)) @ V.conj().T
    W = _whitened(Sigma, Sigma_hat)
    lw, Vw = np.linalg.eigh(W)
    if lw[0] <= 0:
        raise DomainError("matrix is not positive definite")
    logW = (Vw * np.log(lw)) @ Vw.conj().T
    return HermitianMatrix.from_array(sq @ logW @ sq)


# Asymptotic series coefficients: -B_{2k}/(2k), k = 1..7.
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma on (0, inf): recurrence shift to x >= 6, then the asymptotic series.

    Absolute error below 1e-12 across the domain.
    """
    x = float(x)
    if not x > 0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for coef in _DIGAMMA_TAIL:
        tail += coef * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x + tail


def eta(p: int, n: int) -> float:
    """Scalar intrinsic-bias factor of the core sample covariance.

    Positive, decreasing in n, and asymptotically p/(2n). Requires n >= p so
    every digamma argument stays positive.
    """
    if p < 1:
        raise InputError("dimension p must be >= 1")
    if n < p:
        raise DomainError(f"need n >= p, got n={n}, p={p}")
    total = (
        p * math.log(n)
        + p
        - digamma(n - p + 1)
        + (n - p + 1) * digamma(n - p + 2)
        + digamma(n + 1)
        - (n + 1) * digamma(n + 2)
    )
    return total / p


def biased_crlb_scm(p: int, n: int) -> IntrinsicBound:
    """Gaussian-case bound on expected squared distance for the (biased) SCM."""
    e = eta(p, n)
    return IntrinsicBound({"fisher": p**2 / n, "intrinsic_bias": p * e**2})


def alpha_beta(
    dist: CesDistribution,
    p: int,
    draws: int = 0,
    stream: RandomStream | None = None,
) -> tuple[float, float]:
    """Fisher-metric coefficients (alpha, beta = alpha - 1) of the CES family.

    alpha = E[(Q u(Q))^2] / (p (p+1)) with u the likelihood weight of the true
    density generator; closed form by default, Monte Carlo on the modular law
    when `draws` > 0 (the cross-check oracle).
    """
    if p < 1:
        raise InputError("dimension p must be >= 1")
    if draws:
        Q = modular_variate_sample(dist, p, draws, stream or _ALPHA_STREAM)
        psi = Q if dist.kind == "gaussian" else student_spec(p, dist.dof).psi(Q)
        alpha = float(np.mean(psi**2)) / (p * (p + 1))
        return alpha, alpha - 1.0
    if dist.kind == "gaussian":
        return 1.0, 0.0
    m = p + dist.dof / 2
    alpha = m / (m + 1)
    return alpha, alpha - 1.0


def _ces_components(p: int, n: int, alpha: float, beta: float) -> dict[str, float]:
    if not alpha > 0:
        raise InputError(f"alpha must be > 0, got {alpha}")
    if not alpha + p * beta > 0:
        raise InputError(f"alpha + p*beta must be > 0, got {alpha + p * beta}")
    if n < p:
        raise InputError(f"need n >= p, got n={n}, p={p}")
    return {
        "sphere": (p**2 - 1) / (n * alpha),
        "scale": 1.0 / (n * (alpha + p * beta)),
    }


def ces_crb(p: int, n: int, alpha: float, beta: float) -> IntrinsicBound:
    """Unbiased-estimator bound for CES samples."""
    return IntrinsicBound(_ces_components(p, n, alpha, beta))


def ab_crlb(p: int, n: int, alpha: float, beta: float) -> IntrinsicBound:
    """CES bound augmented with the core-equivalent bias term p * eta^2.

    Shares its first two components with `ces_crb`, so the difference of the
    two values is exactly the bias term.
    """
    comps = _ces_components(p, n, alpha, beta)
    comps["intrinsic_bias"] = p * eta(p, n) ** 2
    return IntrinsicBound(comps)


__all__ = [
    "IntrinsicBound",
    "whitened_spectrum",
    "nat_distance",
    "riemannian_logmap",
    "digamma",
    "eta",
    "biased_crlb_scm",
    "alpha_beta",
    "ces_crb",
    "ab_crlb",
]
