import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesevd import (
    HermitianMatrix,
    build_factor_model,
    hermitian_evd,
    kron,
    principal_projector,
    projector_cov_sigma_pi,
    projector_perturbation_first_order,
    snr_loss,
    snr_loss_theory,
    steering_vector,
)
from cesevd.errors import DegeneracyError, InputError, SizeGuardError
from cesevd.sampling import RandomStream


def random_model(rng, p, r, gamma2=1.0, lam_scale=50.0):
    G = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
    Ur, _ = np.linalg.qr(G)
    lam = lam_scale * np.arange(r, 0, -1).astype(float)
    return build_factor_model(Ur, lam, gamma2)


class TestBuildFactorModel:
    def test_rank_one_diagonal(self):
        e1 = np.zeros((2, 1), dtype=complex)
        e1[0, 0] = 1.0
        model = build_factor_model(e1, [30.0], 1.0)
        np.testing.assert_allclose(model.sigma.entries, np.diag([31.0, 1.0]))

    def test_projector_partition_of_identity(self):
        model = random_model(np.random.default_rng(0), 6, 2)
        np.testing.assert_array_equal(
            model.projector.entries + model.projector_perp.entries, np.eye(6)
        )

    def test_spectral_shift(self):
        model = random_model(np.random.default_rng(1), 6, 2, gamma2=2.0)
        lam = hermitian_evd(model.sigma).eigenvalues
        np.testing.assert_allclose(lam[:2], model.Lambda_r + 2.0, atol=1e-10)
        np.testing.assert_allclose(lam[2:], np.full(4, 2.0), atol=1e-10)

    def test_separation_warning(self):
        e1 = np.zeros((3, 1), dtype=complex)
        e1[0, 0] = 1.0
        with pytest.warns(RuntimeWarning):
            build_factor_model(e1, [5.0], 1.0)

    def test_non_semi_unitary_rejected(self):
        bad = np.ones((3, 2), dtype=complex)
        with pytest.raises(InputError):
            build_factor_model(bad, [2.0, 1.0], 1.0)

    def test_non_descending_rejected(self):
        model_ur = np.eye(4, dtype=complex)[:, :2]
        with pytest.raises(InputError):
            build_factor_model(model_ur, [10.0, 20.0], 1.0)


class TestPrincipalProjector:
    def test_diagonal(self):
        P = principal_projector(np.diag([5.0, 3.0, 1.0]).astype(complex), 2)
        np.testing.assert_allclose(P.entries, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_exact_model_recovery(self):
        model = random_model(np.random.default_rng(2), 7, 3)
        P = principal_projector(model.sigma, 3)
        np.testing.assert_allclose(P.entries, model.projector.entries, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 8), st.integers(0, 10**6))
    def test_idempotent_hermitian(self, p, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        M = HermitianMatrix.from_array(A @ A.conj().T + 0.1 * np.eye(p))
        P = principal_projector(M, p // 2).entries
        assert np.linalg.norm(P @ P - P) < 1e-10
        rank = np.linalg.matrix_rank(P, tol=1e-8)
        assert rank == p // 2

    def test_phase_convention_invariance(self):
        model = random_model(np.random.default_rng(3), 6, 2)
        rng = np.random.default_rng(4)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        rotated = HermitianMatrix.from_array(model.sigma.entries)  # same matrix; projector depends only on it
        P1 = principal_projector(model.sigma, 2).entries
        P2 = principal_projector(rotated, 2).entries
        np.testing.assert_allclose(P1, P2, atol=1e-12)
        # rotating the eigenvector basis by phases leaves Ur Ur^H unchanged
        ev = hermitian_evd(model.sigma)
        Ur = ev.eigenvectors[:, :2] * phases[:2]
        np.testing.assert_allclose(Ur @ Ur.conj().T, P1, atol=1e-12)

    def test_gap_failure(self):
        with pytest.raises(DegeneracyError):
            principal_projector(np.eye(4, dtype=complex), 2)


class TestProjectorCov:
    def test_closed_trace_small_model(self):
        e1 = np.zeros((2, 1), dtype=complex)
        e1[0, 0] = 1.0
        with pytest.warns(RuntimeWarning):  # mu/gamma2 = 4 < 10 flags weak separation
            model = build_factor_model(e1, [4.0], 1.0)
        assert projector_cov_sigma_pi(model) == pytest.approx(2 * (1 / 16 + 1 / 4), abs=1e-14)

    def test_vanishes_without_noise(self):
        model = random_model(np.random.default_rng(5), 5, 2, gamma2=1e-12)
        assert projector_cov_sigma_pi(model) < 1e-10

    def test_trace_matches_full_assembly(self):
        model = random_model(np.random.default_rng(6), 4, 2)
        full = projector_cov_sigma_pi(model, full=True)
        assert np.trace(full).real == pytest.approx(projector_cov_sigma_pi(model), rel=1e-12)

    def test_full_structure(self):
        model = random_model(np.random.default_rng(7), 4, 2)
        mu = model.Lambda_r
        A = (model.Ur * (model.gamma2 / mu**2 + 1 / mu)) @ model.Ur.conj().T
        B = model.gamma2 * model.projector_perp.entries
        np.testing.assert_allclose(
            projector_cov_sigma_pi(model, full=True), kron(A.T, B) + kron(B.T, A), atol=1e-12
        )

    def test_size_guard(self):
        model = random_model(np.random.default_rng(8), 12, 3)
        with pytest.raises(SizeGuardError):
            projector_cov_sigma_pi(model, full=True)


class TestProjectorPerturbation:
    def test_zero_perturbation(self):
        model = random_model(np.random.default_rng(9), 5, 2)
        out = projector_perturbation_first_order(model, np.zeros((5, 5), dtype=complex))
        np.testing.assert_array_equal(out.entries, np.zeros((5, 5)))

    def test_rank_one_closed_form(self):
        e1 = np.zeros((2, 1), dtype=complex)
        e1[0, 0] = 1.0
        mu, eps = 30.0, 0.01
        model = build_factor_model(e1, [mu], 1.0)
        delta = np.array([[0.0, eps], [eps, 0.0]], dtype=complex)
        expected = (eps / mu) * np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            projector_perturbation_first_order(model, delta).entries, expected, atol=1e-14
        )

    def test_trace_free(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 6, 2)
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        D = (B + B.conj().T) / 2
        out = projector_perturbation_first_order(model, D)
        assert abs(np.trace(out.entries)) < 1e-12

    def test_finite_difference_remainder(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 6, 2)
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        D = HermitianMatrix.from_array((B + B.conj().T) / 2)
        dPi = projector_perturbation_first_order(model, D).entries
        for eps in (1e-3, 1e-4, 1e-5):
            pert = principal_projector(
                HermitianMatrix.from_array(model.sigma.entries + eps * D.entries), model.r
            ).entries
            ratio = np.linalg.norm(pert - model.projector.entries - eps * dPi) / eps**2
            assert ratio < 5.0


class TestSnrLoss:
    def test_true_projector_gives_unity(self):
        model = random_model(np.random.default_rng(12), 8, 3)
        steer = steering_vector(model, RandomStream(1, 0))
        assert snr_loss(model.projector_perp, model, steer) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_loss_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 6, 2)
        steer = steering_vector(model, RandomStream(seed, 1))
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        noisy = HermitianMatrix.from_array(model.sigma.entries + 0.5 * (B + B.conj().T))
        perp = np.eye(6) - principal_projector(noisy, 2).entries
        rho = snr_loss(perp, model, steer)
        assert 0.0 < rho <= 1.0 + 1e-12

    def test_theory_values(self):
        assert 10 * np.log10(snr_loss_theory(5, 2000)) == pytest.approx(-0.010871, abs=1e-5)
        assert 10 * np.log10(snr_loss_theory(5, 40)) == pytest.approx(-0.57992, abs=1e-4)
        assert snr_loss_theory(0, 10) == 1.0

    def test_theory_requires_n_above_r(self):
        with pytest.raises(InputError):
            snr_loss_theory(5, 5)
