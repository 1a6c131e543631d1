import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from cesevd import (
    CesDistribution,
    HermitianMatrix,
    RandomStream,
    modular_variate_sample,
    sample_coupled,
    toeplitz_scatter,
)
from cesevd.errors import InputError
from cesevd.sampling import coupled_modular_variate_chunks, modular_variate_chunks


class TestDistribution:
    def test_student_requires_positive_dof(self):
        with pytest.raises(InputError):
            CesDistribution.student_t(0.0)

    def test_gaussian_takes_no_dof(self):
        with pytest.raises(InputError):
            CesDistribution("gaussian", 3.0)

    def test_heavy_tail_flagged_not_forbidden(self):
        with pytest.warns(RuntimeWarning):
            dist = CesDistribution.student_t(1.5)
        assert dist.dof == 1.5


class TestRandomStream:
    def test_streams_are_pure_functions_of_seed_and_index(self):
        a = RandomStream(99, 4).generator().standard_normal(8)
        b = RandomStream(99, 4).generator().standard_normal(8)
        c = RandomStream(99, 5).generator().standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSampleCoupled:
    def test_gaussian_core_equals_sample(self):
        cs = sample_coupled(CesDistribution.gaussian(), np.eye(4), 100, RandomStream(1, 0))
        assert np.array_equal(cs.Z, cs.X)
        assert np.array_equal(cs.Q, cs.Gnorm2)

    def test_gaussian_sample_covariance_converges(self):
        cs = sample_coupled(CesDistribution.gaussian(), np.eye(5), 100_000, RandomStream(2, 0))
        S = cs.X @ cs.X.conj().T / cs.X.shape[1]
        assert np.linalg.norm(S - np.eye(5)) < 0.05

    def test_student_modular_mean(self):
        # E[p F(2p, d)] = p d / (d - 2): 60 for p=20, d=3
        cs = sample_coupled(CesDistribution.student_t(3), np.eye(20), 1_000_000, RandomStream(3, 0))
        assert abs(cs.Q.mean() - 60.0) / 60.0 < 0.01

    def test_huge_dof_approaches_gaussian_core(self):
        cs = sample_coupled(CesDistribution.student_t(1e6), np.eye(10), 20_000, RandomStream(4, 0))
        assert np.linalg.norm(cs.Z - cs.X) / np.linalg.norm(cs.X) < 0.01

    def test_nonsingular_sigma_required(self):
        with pytest.raises(InputError):
            sample_coupled(CesDistribution.gaussian(), np.diag([1.0, 0.0]), 5, RandomStream(0, 0))

    def test_non_pd_hermitian_matrix_rejected(self):
        # the eigendecomposition cached on a HermitianMatrix keeps the check
        Sig = HermitianMatrix(np.diag([1.0, -1.0]).astype(complex))
        for _ in range(2):
            with pytest.raises(InputError):
                sample_coupled(CesDistribution.gaussian(), Sig, 5, RandomStream(0, 0))

    @pytest.mark.parametrize("dist", [CesDistribution.gaussian(), CesDistribution.student_t(3.0)],
                             ids=["gaussian", "student"])
    def test_matches_complex_division_formula_bitwise(self, dist):
        p, n = 20, 2000
        Sig = toeplitz_scatter(p, 0.9 * np.exp(1j * np.pi / 4))
        cs = sample_coupled(dist, Sig, n, RandomStream(21, 4))
        rng = RandomStream(21, 4).generator()
        b = rng.standard_normal((2, p, n))
        lam, V = np.linalg.eigh(Sig.entries)
        X = ((V * np.sqrt(lam)) @ V.conj().T) @ ((b[0] + 1j * b[1]) / np.sqrt(2))
        Z = X if dist.kind == "gaussian" else X * np.sqrt(dist.dof / rng.chisquare(dist.dof, n))
        assert np.array_equal(cs.X, X)
        assert np.array_equal(cs.Z, Z)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 50), st.integers(0, 10**6), st.booleans())
    def test_quadratic_form_reproduces_modular_variate(self, p, n, seed, student):
        dist = CesDistribution.student_t(3.0) if student else CesDistribution.gaussian()
        Sig = toeplitz_scatter(p, 0.6 * np.exp(0.5j))
        cs = sample_coupled(dist, Sig, n, RandomStream(seed, 1))
        Si = np.linalg.inv(Sig.entries)
        q = np.einsum("ij,ij->j", cs.Z.conj(), Si @ cs.Z).real
        np.testing.assert_allclose(q, cs.Q, rtol=1e-8)

    def test_bitwise_determinism(self):
        dist = CesDistribution.student_t(3.0)
        Sig = toeplitz_scatter(6, 0.5)
        a = sample_coupled(dist, Sig, 64, RandomStream(11, 9))
        b = sample_coupled(dist, Sig, 64, RandomStream(11, 9))
        for x, y in ((a.Z, b.Z), (a.X, b.X), (a.Q, b.Q), (a.Gnorm2, b.Gnorm2)):
            assert np.array_equal(x, y)

    def test_raw_scatter_draws_the_same_bits(self):
        dist = CesDistribution.student_t(3.0)
        Sig = toeplitz_scatter(6, 0.5 * np.exp(0.3j))
        a = sample_coupled(dist, Sig, 64, RandomStream(11, 9))
        b = sample_coupled(dist, np.array(Sig.entries), 64, RandomStream(11, 9))
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.X, b.X)

    def test_normalized_scatter_error_decays(self):
        # (d-2)/d * scm(Z) estimates Sigma; heavy tails, so only check decay on a pinned seed
        dist = CesDistribution.student_t(3.0)
        Sig = toeplitz_scatter(5, 0.5)
        errs = []
        for n in (2_000, 50_000):
            cs = sample_coupled(dist, Sig, n, RandomStream(12, 3))
            S = (1.0 / 3.0) * cs.Z @ cs.Z.conj().T / n
            errs.append(np.linalg.norm(S - Sig.entries) / np.linalg.norm(Sig.entries))
        assert errs[1] < errs[0]
        assert errs[1] < 0.15


class TestModularVariate:
    def test_gaussian_mean(self):
        q = modular_variate_sample(CesDistribution.gaussian(), 20, 1_000_000, RandomStream(5, 0))
        assert abs(q.mean() - 20.0) / 20.0 < 0.01

    def test_student_mean(self):
        q = modular_variate_sample(CesDistribution.student_t(3), 20, 1_000_000, RandomStream(6, 0))
        assert abs(q.mean() - 60.0) / 60.0 < 0.01

    def test_student_matches_chi_square_ratio_construction(self):
        # alternative oracle: p * (chi2_{2p}/2p) / (chi2_d/d)
        p, d, n = 20, 3.0, 100_000
        q = modular_variate_sample(CesDistribution.student_t(d), p, n, RandomStream(7, 0))
        rng = RandomStream(8, 0).generator()
        alt = p * (rng.chisquare(2 * p, n) / (2 * p)) / (rng.chisquare(d, n) / d)
        ks = sps.ks_2samp(q, alt)
        crit = 1.628 * np.sqrt(2 / n)  # two-sample KS critical value at alpha = 0.01
        assert ks.statistic < crit

    def test_student_is_p_times_f_draw_bitwise(self):
        p, d = 20, 3.0
        q = modular_variate_sample(CesDistribution.student_t(d), p, 1000, RandomStream(11, 0))
        expected = p * RandomStream(11, 0).generator().f(2 * p, d, 1000)
        assert np.array_equal(q, expected)

    def test_coupled_variates_match_full_sampler_law(self):
        # same joint law as sample_coupled: Q = d * ||g||^2 / u
        p, d = 6, 3.0
        ((Q, g2),) = coupled_modular_variate_chunks(CesDistribution.student_t(d), p, 50_000, RandomStream(9, 0),
                                                     chunk=50_000)
        assert Q.shape == g2.shape == (50_000,)
        assert abs(g2.mean() - p) / p < 0.02
        cs = sample_coupled(CesDistribution.student_t(d), np.eye(p), 50_000, RandomStream(10, 0))
        ks = sps.ks_2samp(Q, cs.Q)
        assert ks.statistic < 1.628 * np.sqrt(2 / 50_000)

    @pytest.mark.parametrize("dist", [CesDistribution.gaussian(), CesDistribution.student_t(3.0)],
                             ids=["gaussian", "student"])
    def test_chunks_are_the_one_shot_draws_bitwise(self, dist):
        # reference: the draws made in one call each, gammas before chi-squares; 2500 draws in pieces of
        # 1000 end in a partial piece
        p, count = 6, 2500
        rng = RandomStream(13, 0).generator()
        Q = rng.gamma(p, 1.0, count) if dist.kind == "gaussian" else p * rng.f(2 * p, dist.dof, count)
        rng = RandomStream(14, 0).generator()
        g2 = rng.gamma(p, 1.0, count)
        Qc = g2 if dist.kind == "gaussian" else dist.dof * g2 / rng.chisquare(dist.dof, count)
        assert np.array_equal(modular_variate_sample(dist, p, count, RandomStream(13, 0)), Q)
        ((Q1, g1),) = coupled_modular_variate_chunks(dist, p, count, RandomStream(14, 0), chunk=count)
        assert np.array_equal(Q1, Qc) and np.array_equal(g1, g2)
        chunks = list(modular_variate_chunks(dist, p, count, RandomStream(13, 0), chunk=1000))
        assert [len(c) for c in chunks] == [1000, 1000, 500]
        assert np.array_equal(np.concatenate(chunks), Q)
        pairs = list(coupled_modular_variate_chunks(dist, p, count, RandomStream(14, 0), chunk=1000))
        assert [len(q) for q, _ in pairs] == [1000, 1000, 500]
        assert np.array_equal(np.concatenate([q for q, _ in pairs]), Qc)
        assert np.array_equal(np.concatenate([g for _, g in pairs]), g2)

    def test_input_validation(self):
        with pytest.raises(InputError):
            modular_variate_sample(CesDistribution.gaussian(), 5, 0, RandomStream(0, 0))
