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
from .linalg import HermitianMatrix, hermitian_eigh

_MASK64 = (1 << 64) - 1

# Draws per piece of a streamed pinned sample: 2^18 float64, 2 MiB. glibc sets its dynamic mmap
# threshold, and twice that its heap-trim threshold, from the largest mmapped block freed so far, so
# the piece also sets how much heap stays mapped between later allocations. The perfbench crlb_scm
# campaign (seed 1), run three times in one fresh process (2 vCPU, numpy 2.4, glibc malloc):
#
#   piece   minor faults, campaigns 2 and 3   peak RSS   campaign time
#   2^16    56.6k each                        39.7 MB    0.90-1.32 s
#   2^17    87.8k each                        39.7 MB    0.94-1.01 s
#   2^18    127 and 0                         40.4 MB    0.76-0.85 s
#   2^19    130 and 0                         42.4 MB    0.78-0.96 s
#
# Below 2^18 the n = 2000 trials trim and refault the heap on every trial; 2^18 is the smallest
# piece without that churn.
_DRAW_CHUNK = 1 << 18


@dataclass(frozen=True)
class RandomStream:
    """Counter-based Philox stream: a pure function of (seed, index).

    Distinct indices give statistically independent streams, so trial k of a
    campaign can draw from ``RandomStream(seed, k)`` in any order, on any
    thread, and reproduce bit-identical samples.
    """

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.index & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


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
    ||g||^2. A is the Hermitian square root of Sigma, which a
    `HermitianMatrix` caches with its eigendecomposition, so a campaign
    factorizes its true scatter and forms its root once rather than once per
    trial; ||g||^2 is summed on the real view of g.
    """
    if n < 1:
        raise InputError("sample size n must be >= 1")
    if not isinstance(Sigma, HermitianMatrix):
        Sigma = HermitianMatrix.from_array(Sigma)
    lam, _ = hermitian_eigh(Sigma)
    if lam[0] <= 0:
        raise InputError("Sigma must be positive definite")
    A = Sigma.sqrt
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


def _check_draws(p: int, count: int) -> None:
    if count < 1:
        raise InputError("count must be >= 1")
    if p < 1:
        raise InputError("dimension p must be >= 1")


def _chunk_sizes(count: int, chunk: int) -> list[int]:
    return [min(chunk, count - i) for i in range(0, count, chunk)]


def _modular_draws(rng: np.random.Generator, dist: CesDistribution, p: int, k: int) -> np.ndarray:
    if dist.kind == "gaussian":
        return rng.gamma(p, 1.0, k)
    Q = rng.f(2 * p, dist.dof, k)
    Q *= p  # in place: one array of k draws, bitwise equal to p * F
    return Q


def modular_variate_chunks(dist: CesDistribution, p: int, count: int, stream: RandomStream, chunk: int | None = None):
    """The draws of `modular_variate_sample`, in order, as arrays of at most `chunk` draws.

    `chunk=None` reads `_DRAW_CHUNK` when the function is called. numpy's
    Generator draws element by element, so the pieces are bitwise the
    one-shot sample. No piece is referenced here once it is handed out: a
    caller that drops each piece before asking for the next holds one at a
    time.
    """
    _check_draws(p, count)
    rng = stream.generator()
    for k in _chunk_sizes(count, _DRAW_CHUNK if chunk is None else chunk):
        yield _modular_draws(rng, dist, p, k)


def modular_variate_sample(dist: CesDistribution, p: int, count: int, stream: RandomStream) -> np.ndarray:
    """Marginal draws of the modular variate (independent of any core)."""
    (Q,) = modular_variate_chunks(dist, p, count, stream, chunk=count)
    return Q


def coupled_modular_variate_chunks(
    dist: CesDistribution, p: int, count: int, stream: RandomStream, chunk: int | None = None
):
    """Joint draws (Q, ||g||^2) under the coupled law, in order, in pieces of at most `chunk` draws.

    This is the joint distribution realized by `sample_coupled`, without
    materializing vectors; expectations that mix the modular variate with
    the core norm must use it. `chunk=count` gives the draws in one piece;
    `chunk=None` reads `_DRAW_CHUNK` when the function is called.

    The stream draws all the gammas ||g||^2 first, then all the chi-squares u.
    To pair them piece by piece, a second generator on the same stream is
    advanced past the gammas (it draws them once more and drops them) and
    then draws each piece's chi-squares; a single piece needs no second
    generator. Every piece is bitwise its part of the one-shot draw.
    """
    _check_draws(p, count)
    sizes = _chunk_sizes(count, _DRAW_CHUNK if chunk is None else chunk)
    rng = stream.generator()
    if dist.kind == "gaussian":
        for k in sizes:
            gnorm2 = rng.gamma(p, 1.0, k)
            yield gnorm2.copy(), gnorm2
        return
    tail = rng
    if len(sizes) > 1:
        tail = stream.generator()
        for k in sizes:
            tail.gamma(p, 1.0, k)
    for k in sizes:
        gnorm2 = rng.gamma(p, 1.0, k)
        u = tail.chisquare(dist.dof, k)
        yield dist.dof * gnorm2 / u, gnorm2


__all__ = [
    "RandomStream",
    "CesDistribution",
    "CoupledSample",
    "sample_coupled",
    "modular_variate_sample",
    "modular_variate_chunks",
    "coupled_modular_variate_chunks",
]
