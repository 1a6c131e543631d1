import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg as sla
from scipy import special as sps

from cesevd import (
    CesDistribution,
    RandomStream,
    ab_crlb,
    alpha_beta,
    biased_crlb_scm,
    ces_crb,
    digamma,
    eta,
    nat_distance,
    riemannian_logmap,
    sample_coupled,
    scm,
    toeplitz_scatter,
    whitened_spectrum,
)
from cesevd.errors import DomainError, InputError
from cesevd.linalg import HermitianMatrix

EULER_MASCHERONI = 0.5772156649015329


def random_pd(rng, p, shift=0.5):
    A = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return HermitianMatrix.from_array(A @ A.conj().T + shift * np.eye(p))


class TestNatDistance:
    def test_zero_at_equal_arguments(self):
        S = random_pd(np.random.default_rng(0), 5)
        assert nat_distance(S, S) < 1e-7

    def test_scalar_multiple(self):
        p, c = 6, 3.7
        assert nat_distance(np.eye(p), c * np.eye(p)) == pytest.approx(np.sqrt(p) * np.log(c), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10**6))
    def test_symmetry(self, p, seed):
        rng = np.random.default_rng(seed)
        S1, S2 = random_pd(rng, p), random_pd(rng, p)
        assert nat_distance(S1, S2) == pytest.approx(nat_distance(S2, S1), rel=1e-8, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10**6))
    def test_affine_invariance(self, p, seed):
        rng = np.random.default_rng(seed)
        S1, S2 = random_pd(rng, p), random_pd(rng, p)
        M = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        lhs = nat_distance(
            HermitianMatrix.from_array(M @ S1.entries @ M.conj().T),
            HermitianMatrix.from_array(M @ S2.entries @ M.conj().T),
        )
        assert lhs == pytest.approx(nat_distance(S1, S2), rel=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10**6))
    def test_whitened_path_matches_generalized_eigenvalues(self, p, seed):
        rng = np.random.default_rng(seed)
        S1, S2 = random_pd(rng, p), random_pd(rng, p)
        via_whiten = nat_distance(S1, S2)
        gen = sla.eigh(S2.entries, S1.entries, eigvals_only=True)
        via_gen = np.sqrt(np.sum(np.log(gen) ** 2))
        assert via_whiten == pytest.approx(via_gen, rel=1e-10, abs=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            nat_distance(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_indefinite_hermitian_matrix(self):
        # the eigendecomposition cached on a HermitianMatrix keeps the check
        S1 = HermitianMatrix(np.diag([1.0, -1.0]).astype(complex))
        for _ in range(2):
            with pytest.raises(DomainError):
                nat_distance(S1, np.eye(2))


class TestLogmap:
    def test_zero_at_base_point(self):
        S = random_pd(np.random.default_rng(1), 4)
        assert np.linalg.norm(riemannian_logmap(S, S).entries) < 1e-7

    def test_diagonal_case(self):
        p = 4
        target = np.diag([np.e, 1.0, 1.0, 1.0]).astype(complex)
        L = riemannian_logmap(np.eye(p), target)
        np.testing.assert_allclose(L.entries, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10**6))
    def test_norm_consistency_with_distance(self, p, seed):
        rng = np.random.default_rng(seed)
        S, T = random_pd(rng, p), random_pd(rng, p)
        L = riemannian_logmap(S, T)
        w, V = np.linalg.eigh(S.entries)
        ish = (V / np.sqrt(w)) @ V.conj().T
        assert np.linalg.norm(ish @ L.entries @ ish) == pytest.approx(nat_distance(S, T), rel=1e-10)

    def test_mean_logmap_matches_bias_identity(self):
        # Monte Carlo mean of the core-SCM log map against -eta * Sigma
        p, n, trials = 20, 500, 10_000
        Sig = toeplitz_scatter(p, 0.9 * np.exp(1j * np.pi / 4))
        dist = CesDistribution.gaussian()
        acc = np.zeros((p, p), dtype=complex)
        for k in range(trials):
            cs = sample_coupled(dist, Sig, n, RandomStream(2024, k))
            acc += riemannian_logmap(Sig, scm(cs.X)).entries
        mean_logmap = acc / trials
        target = -eta(p, n) * Sig.entries
        assert np.linalg.norm(mean_logmap - target) / np.linalg.norm(target) < 0.05


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-12)

    def test_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_MASCHERONI - 2 * np.log(2), abs=1e-12)

    def test_recurrence_grid(self):
        for x in np.concatenate([np.linspace(0.05, 3, 40), np.linspace(3, 200, 40)]):
            assert digamma(x + 1) - digamma(x) == pytest.approx(1 / x, abs=1e-12, rel=1e-10)

    def test_against_scipy_grid(self):
        for x in np.geomspace(0.01, 1e6, 200):
            assert digamma(x) == pytest.approx(float(sps.digamma(x)), abs=1e-12, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-2.5)


class TestEta:
    def test_against_exact_wishart_logdet_identity(self):
        # independent oracle: eta must equal log n - mean(psi(n - j)), j < p
        for p, n in ((20, 40), (20, 228), (20, 2000), (5, 9), (3, 100)):
            exact = np.log(n) - np.mean([sps.digamma(n - j) for j in range(p)])
            assert eta(p, n) == pytest.approx(float(exact), rel=1e-12)

    def test_value_at_large_n(self):
        assert 10 * np.log10(eta(20, 2000)) == pytest.approx(-22.9957931882, abs=1e-6)

    def test_asymptotic_p_over_2n(self):
        ratios = [eta(20, n) / (20 / (2 * n)) for n in (10**3, 10**4, 10**5, 10**6)]
        assert abs(ratios[-1] - 1) < 1e-3
        assert all(abs(r2 - 1) < abs(r1 - 1) for r1, r2 in zip(ratios, ratios[1:]))

    def test_monotone_decreasing_in_n(self):
        vals = [eta(20, n) for n in (20, 40, 80, 160, 320, 640)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            eta(20, 19)


class TestBounds:
    def test_biased_scm_components(self):
        b = biased_crlb_scm(20, 2000)
        assert b.components["fisher"] == pytest.approx(0.2, abs=1e-15)
        assert b.components["intrinsic_bias"] == pytest.approx(20 * eta(20, 2000) ** 2, abs=1e-15)
        assert b.value == pytest.approx(sum(b.components.values()), abs=1e-12)

    def test_bias_term_vanishes_relatively(self):
        b1 = biased_crlb_scm(20, 1000)
        b2 = biased_crlb_scm(20, 100_000)
        r1 = b1.components["intrinsic_bias"] / b1.components["fisher"]
        r2 = b2.components["intrinsic_bias"] / b2.components["fisher"]
        assert r2 < r1 < 0.01

    def test_decreasing_in_n(self):
        vals = [biased_crlb_scm(20, n).value for n in (40, 80, 160, 320)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_alpha_beta_gaussian_exact(self):
        assert alpha_beta(CesDistribution.gaussian(), 20) == (1.0, 0.0)

    def test_alpha_beta_student_closed_form(self):
        alpha, beta = alpha_beta(CesDistribution.student_t(3.0), 20)
        assert alpha == pytest.approx(21.5 / 22.5, abs=1e-12)
        assert beta == pytest.approx(alpha - 1, abs=1e-15)

    def test_alpha_beta_monte_carlo_cross_check(self):
        alpha, _ = alpha_beta(CesDistribution.student_t(3.0), 20, draws=1_000_000)
        assert alpha == pytest.approx(21.5 / 22.5, rel=0.01)
        alpha_g, _ = alpha_beta(CesDistribution.gaussian(), 20, draws=1_000_000)
        assert alpha_g == pytest.approx(1.0, rel=0.01)

    def test_ces_crb_reduces_to_gaussian(self):
        b = ces_crb(20, 500, 1.0, 0.0)
        assert b.value == pytest.approx(20**2 / 500, rel=1e-12)

    def test_ab_exceeds_ces_by_exact_bias_term(self):
        alpha, beta = alpha_beta(CesDistribution.student_t(3.0), 20)
        lo = ces_crb(20, 777, alpha, beta)
        hi = ab_crlb(20, 777, alpha, beta)
        assert hi.value >= lo.value
        # the stored component is bit-identical; the value difference can only
        # match it up to one rounding of the final addition
        assert hi.components["intrinsic_bias"] == 20 * eta(20, 777) ** 2
        assert hi.value - lo.value == pytest.approx(20 * eta(20, 777) ** 2, abs=1e-15 * hi.value)

    def test_parameter_guard(self):
        with pytest.raises(InputError):
            ces_crb(20, 100, 0.5, -0.1)  # alpha + p beta = -1.5


class TestWhitenedSpectrum:
    def test_matches_direct_eigenvalues(self):
        rng = np.random.default_rng(3)
        S1, S2 = random_pd(rng, 5), random_pd(rng, 5)
        lw = whitened_spectrum(S1, S2)
        gen = sla.eigh(S2.entries, S1.entries, eigvals_only=True)
        np.testing.assert_allclose(lw, gen, rtol=1e-9)
