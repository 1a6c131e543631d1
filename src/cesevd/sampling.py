"""Coupled sampling of complex elliptical vectors with their Gaussian cores.

Every draw of a heavy-tailed sample carries the Gaussian vector it was built
from, which is what makes core-equivalent comparisons possible: the robust
estimate and the core sample covariance are computed from the *same* underlying
randomness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import hermitian_eigh

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RandomStream:
    """Counter-based Philox stream: a pure function of (seed, index).

    Distinct indices give statistically independent streams, so trial k of a
    campaign can draw from ``stream.child(k)`` in any order, on any thread,
    and reproduce bit-identical samples.
    """

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.index & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, index)


@dataclass(frozen=True)
class CesDistribution:
    """Zero-mean circular CES family: Gaussian or complex Student t.

    For the Student t with `dof` degrees of freedom the modular variate is
    distributed as p * F(2p, dof), which has finite mean only for dof > 2
    (allowed but flagged, since sample moments then diverge).
    """

    kind: str
    dof: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "student_t"):
            raise InputError(f"unknown CES kind {self.kind!r}")
        if self.kind == "student_t":
            if self.dof is None or not self.dof > 0:
                raise InputError("student_t requires dof > 0")
            if self.dof <= 2:
                warnings.warn(
                    f"student_t dof={self.dof:g} <= 2: the modular variate has infinite mean",
                    RuntimeWarning,
                    stacklevel=2,
                )
        elif self.dof is not None:
            raise InputError("gaussian kind takes no dof")

    @classmethod
    def gaussian(cls) -> "CesDistribution":
        return cls("gaussian")

    @classmethod
    def student_t(cls, dof: float) -> "CesDistribution":
        return cls("student_t", float(dof))


@dataclass(frozen=True)
class CoupledSample:
    """CES draws Z coupled column-wise with their Gaussian cores X.

    Column i satisfies z_i = sqrt(Q_i)/||g_i|| * A g_i and x_i = A g_i for the
    same standard normal g_i, so z_i^H Sigma^{-1} z_i reproduces the stored
    modular variate Q_i.
    """

    Z: np.ndarray
    X: np.ndarray
    Q: np.ndarray
    Gnorm2: np.ndarray


def _standard_complex_normal(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    """(b0 + 1j*b1)/sqrt(2) for a real block b0 drawn before b1, built in place.

    Scaling each part by 1/sqrt(2) is bitwise what complex division by the
    real sqrt(2) computes, without its complex temporaries.
    """
    b = rng.standard_normal((2, p, n))  # fixed draw order pins reproducibility
    scale = 1.0 / np.sqrt(2)
    g = np.empty((p, n), dtype=complex)
    np.multiply(b[0], scale, out=g.real)
    np.multiply(b[1], scale, out=g.imag)
    return g


def sample_coupled(dist: CesDistribution, Sigma, n: int, stream: RandomStream) -> CoupledSample:
    """Draw n i.i.d. columns of the CES law together with their Gaussian cores.

    For the Student t the coupling is z = x * sqrt(dof/u) with u ~ chi2(dof)
    independent of g, which realizes Q = dof * ||g||^2 / u jointly with
    ||g||^2. A is the Hermitian square root of Sigma, formed from the
    eigendecomposition that a `HermitianMatrix` caches, so a campaign
    factorizes its true scatter once rather than once per trial; ||g||^2 is
    summed on the real view of g.
    """
    if n < 1:
        raise InputError("sample size n must be >= 1")
    lam, V = hermitian_eigh(Sigma)
    if lam[0] <= 0:
        raise InputError("Sigma must be positive definite")
    A = (V * np.sqrt(lam)) @ V.conj().T
    p = lam.shape[0]

    rng = stream.generator()
    g = _standard_complex_normal(rng, p, n)
    X = A @ g
    sq = np.einsum("ij,ij->j", g.view(np.float64), g.view(np.float64))
    gnorm2 = sq[0::2] + sq[1::2]
    if dist.kind == "gaussian":
        Z = X.copy()
        Q = gnorm2.copy()
    else:
        u = rng.chisquare(dist.dof, n)
        Z = X * np.sqrt(dist.dof / u)
        Q = dist.dof * gnorm2 / u
    return CoupledSample(Z=Z, X=X, Q=Q, Gnorm2=gnorm2)


def modular_variate_sample(dist: CesDistribution, p: int, count: int, stream: RandomStream) -> np.ndarray:
    """Marginal draws of the modular variate (independent of any core)."""
    if count < 1:
        raise InputError("count must be >= 1")
    if p < 1:
        raise InputError("dimension p must be >= 1")
    rng = stream.generator()
    if dist.kind == "gaussian":
        return rng.gamma(p, 1.0, count)
    Q = rng.f(2 * p, dist.dof, count)
    Q *= p  # in place: one array of `count` draws, bitwise equal to p * F
    return Q


def coupled_modular_variates(
    dist: CesDistribution, p: int, count: int, stream: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Joint draws (Q, ||g||^2) under the coupled law, without materializing vectors.

    This is the joint distribution realized by `sample_coupled`; expectations
    that mix the modular variate with the core norm must use it.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    if p < 1:
        raise InputError("dimension p must be >= 1")
    rng = stream.generator()
    gnorm2 = rng.gamma(p, 1.0, count)
    if dist.kind == "gaussian":
        return gnorm2.copy(), gnorm2
    u = rng.chisquare(dist.dof, count)
    return dist.dof * gnorm2 / u, gnorm2


__all__ = [
    "RandomStream",
    "CesDistribution",
    "CoupledSample",
    "sample_coupled",
    "modular_variate_sample",
    "coupled_modular_variates",
]
