import tracemalloc

import numpy as np
import pytest

from cesevd import (
    AsymptoticCoeffs,
    CesDistribution,
    RandomStream,
    coeffs_closed_form_scm,
    coeffs_closed_form_student,
    coeffs_numeric,
    commutation,
    eigen_perturbation_first_order,
    eigenvalue_cov,
    eigenvalue_cov_trace,
    eigenvector_cov_xi,
    eigenvector_cov_xi_trace,
    gaussian_spec,
    gcwe_scatter_cov,
    hermitian_evd,
    scatter_cov,
    student_spec,
    toeplitz_scatter,
    vec,
)
from cesevd.errors import CoefficientError, DegeneracyError, InputError, SizeGuardError
from cesevd.linalg import HermitianMatrix

RHO = 0.9 * np.exp(1j * np.pi / 4)


class TestClosedFormStudent:
    def test_heavy_tail_setup_values(self):
        co = coeffs_closed_form_student(20, 3.0)
        assert co.theta1 == pytest.approx(1.046512, abs=5e-7)
        assert co.theta2 == pytest.approx(0.697674, abs=5e-7)
        assert co.sigma1 == pytest.approx(0.046512, abs=5e-7)
        assert co.sigma2 == pytest.approx(0.697674, abs=5e-7)

    def test_closed_formulas(self):
        for p, d in ((20, 3.0), (1, 2.0), (7, 5.5)):
            co = coeffs_closed_form_student(p, d)
            m = p + d / 2
            assert co.theta1 == pytest.approx((m + 1) / m, abs=1e-12)
            assert co.theta2 == pytest.approx((2 / d) * (m + 1) / m, abs=1e-12)
            assert co.sigma1 == pytest.approx(1 / m, abs=1e-12)
            assert co.sigma2 == pytest.approx(co.theta2, abs=1e-12)

    def test_small_case(self):
        co = coeffs_closed_form_student(1, 2.0)
        assert co.theta1 == pytest.approx(1.5, abs=1e-12)
        assert co.sigma1 == pytest.approx(0.5, abs=1e-12)
        assert co.theta2 == pytest.approx(1.5, abs=1e-12)
        assert co.sigma2 == pytest.approx(1.5, abs=1e-12)

    def test_gaussian_limit(self):
        co = coeffs_closed_form_student(20, 1e9)
        assert co.theta1 == pytest.approx(1.0, abs=1e-6)
        assert co.theta2 == pytest.approx(0.0, abs=1e-6)
        assert co.sigma1 == pytest.approx(0.0, abs=1e-6)

    def test_assembly_identity_holds(self):
        co = coeffs_closed_form_student(20, 3.0)
        p = co.p
        assert abs(co.theta1 - co.a * p * (p + 1) / co.c**2) <= 1e-12
        sig1 = (co.a * p * (p + 1) + co.c * (co.c - 2 * co.b)) / co.c**2
        assert abs(co.sigma1 - sig1) <= 1e-12

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(CoefficientError):
            AsymptoticCoeffs(p=4, a=1, b=1, c=1,
                             theta1=-1.0, theta2=0.0, sigma1=0.0, sigma2=0.0)


class TestClosedFormScm:
    def test_closed_formulas(self):
        for p, d in ((20, 5.0), (6, 6.0), (3, 20.0)):
            co = coeffs_closed_form_scm(p, d)
            assert co.theta1 == pytest.approx((d - 2) / (d - 4), rel=1e-14)
            for value in (co.theta2, co.sigma1, co.sigma2):
                assert value == pytest.approx(2 / (d - 4), rel=1e-13)

    @pytest.mark.parametrize("d, rtol_theta1, rtol_rest", [(8.0, 0.01, 0.03), (20.0, 0.002, 0.01)])
    def test_matches_numeric(self, d, rtol_theta1, rtol_rest):
        # tolerances are at least 3 standard deviations of coeffs_numeric over 8 streams of 1e6 draws
        # (theta1 / the rest: 0.29 % / 0.86 % at d = 8, 0.04 % / 0.34 % at d = 20)
        spec = gaussian_spec().with_sigma((d - 2) / d)
        numeric = coeffs_numeric(spec, CesDistribution.student_t(d), 20)
        exact = coeffs_closed_form_scm(20, d)
        assert numeric.theta1 == pytest.approx(exact.theta1, rel=rtol_theta1)
        for name in ("theta2", "sigma1", "sigma2"):
            assert getattr(numeric, name) == pytest.approx(getattr(exact, name), rel=rtol_rest)

    def test_needs_finite_fourth_moment(self):
        with pytest.raises(InputError):
            coeffs_closed_form_scm(20, 4.0)


class TestNumericCoeffs:
    def test_student_matches_table_within_one_percent(self):
        closed = coeffs_closed_form_student(20, 3.0)
        co = coeffs_numeric(student_spec(20, 3.0), CesDistribution.student_t(3.0), 20)
        for name in ("theta1", "theta2", "sigma1", "sigma2"):
            assert getattr(co, name) == pytest.approx(getattr(closed, name), rel=0.01)

    def test_gaussian_on_gaussian(self):
        co = coeffs_numeric(gaussian_spec(), CesDistribution.gaussian(), 20)
        assert co.theta1 == pytest.approx(1.0, rel=0.01)
        assert abs(co.theta2) < 0.01
        assert abs(co.sigma1) < 0.01
        assert abs(co.sigma2) < 0.01

    def test_student_cross_moment_is_a_not_p_squared(self):
        co = coeffs_numeric(student_spec(20, 3.0), CesDistribution.student_t(3.0), 20)
        assert co.b == pytest.approx(co.a, rel=0.01)
        assert abs(co.b - 400.0) > 0.5

    @pytest.mark.parametrize("case", ["unit_d6", "student_d3"])
    def test_streamed_moments_match_recorded_one_shot_values(self, case):
        # values of the one-shot (unstreamed) estimator on the default stream at 1e6 draws
        if case == "unit_d6":
            co = coeffs_numeric(gaussian_spec().with_sigma(2 / 3), CesDistribution.student_t(6.0), 6)
            recorded = dict(a=82.37456717395699, b=41.948995287949046, c=42.0, theta1=1.9612992184275473,
                            theta2=0.9612992184275475, sigma1=0.9637280142394975, sigma2=0.9637280142394977)
        else:
            co = coeffs_numeric(student_spec(20, 3.0), CesDistribution.student_t(3.0), 20)
            recorded = dict(a=401.33260545460416, b=401.3353331681448, c=401.3333671881579,
                            theta1=1.046509553341317, theta2=0.6972270261117295,
                            sigma1=0.046499756099683806, sigma2=0.6970800712185815)
        for name, value in recorded.items():
            assert getattr(co, name) == pytest.approx(value, rel=1e-12, abs=0), name

    @pytest.mark.parametrize("weight", ["unit", "student"])
    def test_peak_memory(self, weight):
        # the one-shot estimator held about 69 MiB of arrays at 1e6 draws
        if weight == "unit":
            spec, dist = gaussian_spec().with_sigma(2 / 3), CesDistribution.student_t(6.0)
        else:
            spec, dist = student_spec(20, 3.0), CesDistribution.student_t(3.0)
        tracemalloc.start()
        try:
            coeffs_numeric(spec, dist, 20, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_draw_floor(self):
        with pytest.raises(InputError):
            coeffs_numeric(student_spec(4, 3.0), CesDistribution.student_t(3.0), 4, draws=10)


class TestScatterCov:
    def test_identity_theta2_zero(self):
        co = AsymptoticCoeffs(p=2, a=6.0, b=6.0, c=6.0,
                              theta1=1.0, theta2=0.0, sigma1=1.0, sigma2=0.0)
        C, P = scatter_cov(np.eye(2), co)
        np.testing.assert_allclose(C, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(P, commutation(2), atol=1e-14)

    def test_identity_theta2_one(self):
        co = AsymptoticCoeffs(p=2, a=6.0, b=6.0, c=6.0,
                              theta1=1.0, theta2=1.0, sigma1=1.0, sigma2=1.0)
        C, _ = scatter_cov(np.eye(2), co)
        v = vec(np.eye(2))
        np.testing.assert_allclose(C, np.eye(4) + np.outer(v, v.conj()), atol=1e-14)

    def test_structure_matches_kron_formula(self):
        S = toeplitz_scatter(3, 0.5 * np.exp(0.3j))
        co = coeffs_closed_form_student(3, 3.0)
        C, P = scatter_cov(S, co)
        Ct, Pt = gcwe_scatter_cov(S, co)
        v = vec(S.entries)
        K = commutation(3)
        base = np.kron(S.entries.T, S.entries)
        np.testing.assert_allclose(C, co.theta1 * base + co.theta2 * np.outer(v, v.conj()), atol=1e-12)
        np.testing.assert_allclose(P, co.theta1 * base @ K + co.theta2 * np.outer(v, v), atol=1e-12)
        np.testing.assert_allclose(Ct, co.sigma1 * base + co.sigma2 * np.outer(v, v.conj()), atol=1e-12)
        np.testing.assert_allclose(Pt, co.sigma1 * base @ K + co.sigma2 * np.outer(v, v), atol=1e-12)

    def test_size_guard(self):
        co = coeffs_closed_form_student(9, 3.0)
        with pytest.raises(SizeGuardError):
            scatter_cov(np.eye(9), co)


class TestEigenvalueCov:
    def test_diagonal_case(self):
        np.testing.assert_allclose(eigenvalue_cov([2.0, 1.0], 1.0, 0.0), np.diag([4.0, 1.0]))

    def test_rank_one_addition(self):
        np.testing.assert_allclose(
            eigenvalue_cov([2.0, 1.0], 1.0, 0.5), [[6.0, 1.0], [1.0, 1.5]]
        )

    def test_trace_identity(self):
        lam = hermitian_evd(toeplitz_scatter(6, RHO)).eigenvalues
        V = eigenvalue_cov(lam, 1.3, 0.4)
        assert np.trace(V) == pytest.approx(eigenvalue_cov_trace(lam, 1.3, 0.4), rel=1e-12)

    def test_non_psd_rejected(self):
        with pytest.raises(CoefficientError):
            eigenvalue_cov([1.0, 1.0, 1.0], 0.1, -1.0)

    def test_fig1_theory_endpoints(self):
        # formula evaluation at the heavy-tail setup, n = 2000
        lam = hermitian_evd(toeplitz_scatter(20, RHO)).eigenvalues
        co = coeffs_closed_form_student(20, 3.0)
        std_db = 10 * np.log10(eigenvalue_cov_trace(lam, co.theta1, co.theta2) / 2000)
        gcwe_db = 10 * np.log10(eigenvalue_cov_trace(lam, co.sigma1, co.sigma2) / 2000)
        assert std_db == pytest.approx(-8.94, abs=0.05)
        assert gcwe_db == pytest.approx(-12.64, abs=0.05)


class TestEigenvectorCov:
    def test_first_eigenvector_diagonal(self):
        ev = hermitian_evd(np.diag([2.0, 1.0]).astype(complex))
        np.testing.assert_allclose(eigenvector_cov_xi(ev, 1, 1.0).entries, np.diag([0.0, 2.0]), atol=1e-14)

    def test_second_eigenvector_diagonal(self):
        ev = hermitian_evd(np.diag([2.0, 1.0]).astype(complex))
        np.testing.assert_allclose(eigenvector_cov_xi(ev, 2, 1.0).entries, np.diag([2.0, 0.0]), atol=1e-14)

    def test_annihilates_own_eigenvector(self):
        ev = hermitian_evd(toeplitz_scatter(5, RHO))
        for j in (1, 3, 5):
            Xi = eigenvector_cov_xi(ev, j, 1.0)
            assert np.linalg.norm(Xi.entries @ ev.eigenvectors[:, j - 1]) < 1e-10

    def test_phase_invariance(self):
        ev = hermitian_evd(toeplitz_scatter(5, RHO))
        rng = np.random.default_rng(5)
        U2 = ev.eigenvectors * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        from cesevd.linalg import EvdResult

        ev2 = EvdResult(ev.eigenvalues, U2)
        np.testing.assert_allclose(
            eigenvector_cov_xi(ev, 2, 1.0).entries, eigenvector_cov_xi(ev2, 2, 1.0).entries, atol=1e-12
        )

    def test_trace_identity_vs_full_assembly(self):
        ev = hermitian_evd(toeplitz_scatter(6, RHO))
        for j in (1, 4):
            full = np.trace(eigenvector_cov_xi(ev, j, 1.7).entries).real
            assert eigenvector_cov_xi_trace(ev, j, 1.7) == pytest.approx(full, rel=1e-12)

    def test_simple_eigenvalue_accepted_next_to_tie(self):
        ev = hermitian_evd(np.diag([2.0, 1.0, 1.0]).astype(complex))
        Xi = eigenvector_cov_xi(ev, 1, 1.0)
        np.testing.assert_allclose(Xi.entries, np.diag([0.0, 2.0, 2.0]), atol=1e-14)

    def test_degenerate_spectrum_rejected(self):
        ev = hermitian_evd(np.diag([2.0, 1.0, 1.0]).astype(complex))
        with pytest.raises(DegeneracyError):
            eigenvector_cov_xi(ev, 2, 1.0)

    def test_fig4_theory_endpoints(self):
        ev = hermitian_evd(toeplitz_scatter(20, RHO))
        co = coeffs_closed_form_student(20, 3.0)
        std_db = 10 * np.log10(eigenvector_cov_xi_trace(ev, 1, co.theta1) / 2000)
        gcwe_db = 10 * np.log10(eigenvector_cov_xi_trace(ev, 1, co.sigma1) / 2000)
        assert std_db == pytest.approx(-31.48, abs=0.05)
        assert gcwe_db == pytest.approx(-45.00, abs=0.05)


class TestPerturbationOracle:
    def test_off_diagonal_perturbation(self):
        ev = hermitian_evd(np.diag([2.0, 1.0]).astype(complex))
        eps = 1e-3
        delta = np.array([[0.0, eps], [eps, 0.0]], dtype=complex)
        dlam, dU = eigen_perturbation_first_order(ev, delta)
        np.testing.assert_allclose(dlam, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(dU[:, 0], [0.0, eps], atol=1e-15)

    def test_diagonal_perturbation(self):
        ev = hermitian_evd(np.diag([2.0, 1.0]).astype(complex))
        dlam, dU = eigen_perturbation_first_order(ev, np.diag([0.3, -0.1]).astype(complex))
        np.testing.assert_allclose(dlam, [0.3, -0.1], atol=1e-15)
        np.testing.assert_allclose(dU, np.zeros((2, 2)), atol=1e-15)

    def test_degenerate_spectrum_rejected(self):
        ev = hermitian_evd(np.eye(3, dtype=complex))
        with pytest.raises(DegeneracyError):
            eigen_perturbation_first_order(ev, np.diag([1.0, 2.0, 3.0]).astype(complex))

    def test_finite_difference_remainder(self):
        # second-order remainder check over three epsilon decades
        rng = np.random.default_rng(17)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        M = HermitianMatrix.from_array(A @ A.conj().T + np.eye(5))
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        D = HermitianMatrix.from_array((B + B.conj().T) / 2)
        ev = hermitian_evd(M)
        dlam, dU = eigen_perturbation_first_order(ev, D)
        for eps in (1e-3, 1e-4, 1e-5):
            pert = hermitian_evd(HermitianMatrix.from_array(M.entries + eps * D.entries))
            ratio_lam = np.linalg.norm(pert.eigenvalues - ev.eigenvalues - eps * dlam) / eps**2
            assert ratio_lam < 50.0
            for j in range(5):
                uj = ev.eigenvectors[:, j]
                uj_eps = pert.eigenvectors[:, j]
                uj_eps = uj_eps * np.exp(-1j * np.angle(np.vdot(uj, uj_eps)))
                perp = uj_eps - uj * np.vdot(uj, uj_eps)
                ratio_vec = np.linalg.norm(perp - eps * dU[:, j]) / eps**2
                assert ratio_vec < 200.0


class TestMonteCarloAgainstTheory:
    def test_eigenvalue_mse_small_p(self):
        # empirical eigenvalue MSE against the limiting trace at p = 3
        from cesevd import fixed_point_solve, sample_coupled

        p, d, n, trials = 3, 3.0, 2000, 600
        Sig = toeplitz_scatter(p, RHO)
        lam = hermitian_evd(Sig).eigenvalues
        spec = student_spec(p, d)
        dist = CesDistribution.student_t(d)
        co = coeffs_closed_form_student(p, d)
        acc = 0.0
        for k in range(trials):
            cs = sample_coupled(dist, Sig, n, RandomStream(321, k))
            lam_hat = hermitian_evd(fixed_point_solve(spec, cs.Z)).eigenvalues
            acc += np.sum((lam_hat - lam) ** 2)
        emp = acc / trials
        theory = eigenvalue_cov_trace(lam, co.theta1, co.theta2) / n
        assert 10 * abs(np.log10(emp / theory)) < 0.6
