import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesevd import (
    HermitianMatrix,
    commutation,
    hermitian_evd,
    phase_align,
    toeplitz_scatter,
    vec,
)
from cesevd.errors import InputError, SizeGuardError
from cesevd.linalg import hermitian_eigh


def random_hermitian(rng, p):
    A = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return HermitianMatrix.from_array((A + A.conj().T) / 2)


class TestHermitianMatrix:
    def test_exact_constructor_rejects_asymmetry(self):
        with pytest.raises(InputError):
            HermitianMatrix(np.array([[1.0, 1.0], [0.5, 2.0]]))

    def test_from_array_symmetrizes(self):
        M = np.array([[1.0 + 1e-13j, 1.0 + 1e-13j], [1.0 + 0j, 2.0]])
        H = HermitianMatrix.from_array(M)
        assert np.array_equal(H.entries, H.entries.conj().T)
        assert H.entries.diagonal().imag.max() == 0.0

    def test_from_array_rejects_gross_asymmetry(self):
        with pytest.raises(InputError):
            HermitianMatrix.from_array(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            HermitianMatrix(np.array([[np.inf, 0], [0, 1.0]], dtype=complex))

    def test_entries_read_only(self):
        H = HermitianMatrix(np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            H.entries[0, 0] = 5


class TestHermitianEigh:
    def test_cached_pair_equals_fresh_eigh_bytes(self):
        H = toeplitz_scatter(20, 0.9 * np.exp(1j * np.pi / 4))
        lam, V = hermitian_eigh(H)
        fresh_lam, fresh_V = np.linalg.eigh(np.array(H.entries))
        assert lam.tobytes() == fresh_lam.tobytes() and V.tobytes() == fresh_V.tobytes()
        again = hermitian_eigh(H)
        assert again[0] is lam and again[1] is V

    def test_cached_pair_read_only(self):
        lam, V = hermitian_eigh(HermitianMatrix(np.eye(3, dtype=complex)))
        with pytest.raises(ValueError):
            lam[0] = 5
        with pytest.raises(ValueError):
            V[0, 0] = 5

    def test_cached_square_root(self):
        H = toeplitz_scatter(20, 0.9 * np.exp(1j * np.pi / 4))
        A = H.sqrt
        lam, V = np.linalg.eigh(np.array(H.entries))
        assert A.tobytes() == ((V * np.sqrt(lam)) @ V.conj().T).tobytes()
        assert H.sqrt is A
        with pytest.raises(ValueError):
            A[0, 0] = 5

    def test_raw_array_validated(self):
        lam, _ = hermitian_eigh(np.diag([2.0, 1.0]))
        assert np.array_equal(lam, [1.0, 2.0])
        with pytest.raises(InputError):
            hermitian_eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestHermitianEvd:
    def test_diagonal_input(self):
        ev = hermitian_evd(HermitianMatrix(np.diag([3.0, 1.0]).astype(complex)))
        np.testing.assert_allclose(ev.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(ev.eigenvectors, np.eye(2), atol=1e-14)

    def test_two_by_two_hand_solved(self):
        # characteristic polynomial of [[2, i], [-i, 2]]: (2-l)^2 - 1 = 0
        M = HermitianMatrix(np.array([[2.0, 1.0j], [-1.0j, 2.0]]))
        ev = hermitian_evd(M)
        np.testing.assert_allclose(ev.eigenvalues, [3.0, 1.0], atol=1e-12)
        u1 = ev.eigenvectors[:, 0]
        ref = np.array([1.0j, 1.0]) / np.sqrt(2)
        assert abs(abs(np.vdot(ref, u1)) - 1.0) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_reconstruction_and_unitarity(self, p, seed):
        M = random_hermitian(np.random.default_rng(seed), p)
        ev = hermitian_evd(M)
        U, lam = ev.eigenvectors, ev.eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.linalg.norm(U.conj().T @ U - np.eye(p)) < 1e-10
        recon = (U * lam) @ U.conj().T
        denom = max(np.linalg.norm(M.entries), 1e-30)
        assert np.linalg.norm(recon - M.entries) / denom < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_phase_canonicalization(self, p, seed):
        ev = hermitian_evd(random_hermitian(np.random.default_rng(seed), p))
        U = ev.eigenvectors
        for j in range(p):
            piv = U[np.argmax(np.abs(U[:, j])), j]
            assert abs(piv.imag) < 1e-12
            assert piv.real > -1e-12

    def test_reads_the_cached_pair(self, monkeypatch):
        # a campaign's scatter is decomposed once, for the sampler's root, and not again for its EVD
        H = toeplitz_scatter(20, 0.9 * np.exp(1j * np.pi / 4))
        H.sqrt
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A) or eigh(A))
        ev = hermitian_evd(H)
        assert not calls
        fresh = hermitian_evd(np.array(H.entries))
        assert len(calls) == 1
        assert ev.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert ev.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()

    def test_deterministic(self):
        M = random_hermitian(np.random.default_rng(3), 6)
        a, b = hermitian_evd(M), hermitian_evd(M)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            hermitian_evd(np.array([[np.nan, 0], [0, 1.0]], dtype=complex))


class TestPhaseAlign:
    def test_already_aligned(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        np.testing.assert_array_equal(phase_align(e1, e1), e1)

    def test_phase_removal(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        np.testing.assert_allclose(phase_align(1j * e1, e1), e1, atol=1e-15)

    def test_unit_phase_multiple_recovers_reference(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = (1 + 1j) / np.sqrt(2) * u
        np.testing.assert_allclose(phase_align(v, u), u, atol=1e-12)

    def test_orthogonal_reference_rejected(self):
        with pytest.raises(InputError):
            phase_align(np.array([0.0, 1.0 + 0j]), np.array([1.0, 0.0 + 0j]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_idempotent_and_norm_preserving(self, p, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        ref = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        if abs(np.vdot(ref, v)) == 0:
            return
        w = phase_align(v, ref)
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-12 * np.linalg.norm(v)
        np.testing.assert_allclose(phase_align(w, ref), w, atol=1e-12)
        assert np.vdot(ref, w).real >= 0
        assert abs(np.vdot(ref, w).imag) < 1e-10 * abs(np.vdot(ref, w))


class TestToeplitzScatter:
    def test_complex_correlation_two_by_two(self):
        rho = 0.9 * np.exp(1j * np.pi / 4)
        S = toeplitz_scatter(2, rho)
        np.testing.assert_allclose(S.entries, [[1.0, rho], [np.conj(rho), 1.0]])

    def test_dimension_one(self):
        assert toeplitz_scatter(1, 0.5 + 0.1j).entries == np.array([[1.0]])

    def test_zero_rho_gives_identity(self):
        np.testing.assert_array_equal(toeplitz_scatter(5, 0.0).entries, np.eye(5))

    def test_unit_modulus_rejected(self):
        with pytest.raises(InputError):
            toeplitz_scatter(4, np.exp(1j * 0.3))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.floats(0, 0.95), st.floats(0, 2 * np.pi))
    def test_positive_definite_unit_diagonal(self, p, mod, phase):
        S = toeplitz_scatter(p, mod * np.exp(1j * phase))
        np.testing.assert_allclose(S.entries.diagonal(), np.ones(p))
        assert np.linalg.eigvalsh(S.entries).min() > 0


class TestVecKronCommutation:
    def test_vec_definition(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(A), [1, 3, 2, 4])

    def test_commutation_transposes(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(commutation(2) @ vec(A), [1, 2, 3, 4])

    def test_kron_vec_identity(self):
        rng = np.random.default_rng(11)
        A, B, S = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        np.testing.assert_allclose(np.kron(A.T, B) @ vec(S), vec(B @ S @ A), atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_commutation_is_permutation_involution(self, p):
        K = commutation(p)
        assert np.array_equal(np.sort(K, axis=0)[-1], np.ones(p * p))
        assert np.array_equal(K.sum(axis=0), np.ones(p * p))
        assert np.array_equal(K.sum(axis=1), np.ones(p * p))
        np.testing.assert_array_equal(K @ K, np.eye(p * p))

    def test_commutation_size_guard(self):
        with pytest.raises(SizeGuardError):
            commutation(9)
