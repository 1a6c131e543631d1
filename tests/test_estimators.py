import dataclasses

import numpy as np
import pytest

import cesevd.experiments as experiments
from cesevd import (
    CesDistribution,
    ExperimentConfig,
    MEstimatorSpec,
    RandomStream,
    SolverOptions,
    build_factor_model,
    fixed_point_solve,
    gaussian_spec,
    run_experiment,
    sample_coupled,
    scm,
    solve_sigma,
    student_spec,
    toeplitz_scatter,
)
from cesevd.errors import ConvergenceError, DegeneracyError, InputError

GRID = np.linspace(0.0, 50.0, 2001)


def t_sample(p=20, d=3.0, n=2000, seed=0, rho=0.9 * np.exp(1j * np.pi / 4)):
    Sig = toeplitz_scatter(p, rho)
    cs = sample_coupled(CesDistribution.student_t(d), Sig, n, RandomStream(seed, 0))
    return Sig, cs


def plain_residual(spec, Z, S):
    """Relative plain fixed-point residual of S, computed without the solver's kernels."""
    t = np.einsum("ij,ij->j", Z.conj(), np.linalg.solve(S, Z)).real
    T = (Z * spec.u(t)) @ Z.conj().T / Z.shape[1]
    return np.linalg.norm(T - S) / np.linalg.norm(S)


def counting_u(spec):
    """`spec` with a call counter on its weight function."""
    calls = [0]

    def u(t):
        calls[0] += 1
        return spec.u(t)

    return dataclasses.replace(spec, u=u), calls


class TestSpecs:
    def test_student_weight_at_zero(self):
        assert student_spec(20, 3).u(np.array(0.0)) == pytest.approx(43.0 / 3.0, abs=1e-14)

    def test_student_weight_vanishes_at_infinity(self):
        assert student_spec(20, 3).u(np.array(1e12)) < 1e-9

    def test_gaussian_weight_is_one(self):
        np.testing.assert_array_equal(gaussian_spec().u(GRID), np.ones_like(GRID))

    @pytest.mark.parametrize("spec", [gaussian_spec(), student_spec(20, 3.0), student_spec(5, 1.0)])
    def test_weight_conditions_on_grid(self, spec):
        u = spec.u(GRID)
        psi = spec.psi(GRID)
        assert np.all(u >= 0)
        assert np.all(np.diff(u) <= 1e-15)  # non-increasing
        assert np.all(np.diff(psi) >= -1e-12)  # non-decreasing
        np.testing.assert_allclose(psi, GRID * u, atol=1e-12)

    @pytest.mark.parametrize("spec", [gaussian_spec(), student_spec(20, 3.0)])
    def test_psi_prime_matches_finite_difference(self, spec):
        h = 1e-5
        grid = GRID[1:]  # stay inside the domain for the centered stencil
        fd = (spec.psi(grid + h) - spec.psi(grid - h)) / (2 * h)
        np.testing.assert_allclose(spec.psi_prime(grid), fd, rtol=1e-6)

    def test_student_psi_bounded(self):
        spec = student_spec(20, 3.0)
        assert spec.psi(np.array(1e15)) <= 20 + 1.5 + 1e-9


class TestScm:
    def test_single_sample(self):
        z = np.array([[1.0 + 0j], [0.0]])
        np.testing.assert_array_equal(scm(z).entries, [[1, 0], [0, 0]])

    def test_gaussian_law_of_large_numbers(self):
        cs = sample_coupled(CesDistribution.gaussian(), np.eye(5), 100_000, RandomStream(1, 0))
        assert np.linalg.norm(scm(cs.Z).entries - np.eye(5)) < 0.05

    def test_scm_equals_unit_weight_fixed_point_exactly(self):
        _, cs = t_sample(p=6, n=300, seed=2)
        direct = scm(cs.Z)
        solved = fixed_point_solve(gaussian_spec(), cs.Z)
        assert np.array_equal(direct.entries, solved.entries)


class TestFixedPoint:
    def test_student_consistency_within_100_iterations(self):
        Sig, cs = t_sample(n=2000, seed=3)
        est = fixed_point_solve(student_spec(20, 3.0), cs.Z, SolverOptions(max_iter=100))
        rel = np.linalg.norm(est.entries - Sig.entries) / np.linalg.norm(Sig.entries)
        assert rel < 0.15

    def test_residual_contract(self):
        Sig, cs = t_sample(p=8, n=400, seed=4)
        spec = student_spec(8, 3.0)
        est = fixed_point_solve(spec, cs.Z)
        assert plain_residual(spec, cs.Z, est.entries) <= 1e-10

    def test_residual_contract_ill_conditioned_factor_model(self):
        # condition number 1e4 at n=2000, where the accelerated sweeps stop after few steps
        p, r = 20, 5
        rng = np.random.default_rng(13)
        Ur, _ = np.linalg.qr(rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r)))
        model = build_factor_model(Ur, (1e4, 3e3, 1e3, 3e2, 1e2), 1.0)
        Z = sample_coupled(CesDistribution.student_t(3.0), model.sigma, 2000, RandomStream(14, 0)).Z
        spec = student_spec(p, 3.0)
        est = fixed_point_solve(spec, Z)
        assert plain_residual(spec, Z, est.entries) <= 1e-10

    def test_sweep_count_guard(self):
        # the unaccelerated iteration took 43 weight evaluations on this sample
        _, cs = t_sample(p=20, n=40, seed=3)
        spec, calls = counting_u(student_spec(20, 3.0))
        fixed_point_solve(spec, cs.Z)
        assert calls[0] <= 25

    def test_unit_weight_stops_after_two_sweeps(self):
        _, cs = t_sample(p=6, n=300, seed=2)
        spec, calls = counting_u(gaussian_spec())
        assert np.array_equal(fixed_point_solve(spec, cs.Z).entries, scm(cs.Z).entries)
        assert calls[0] == 3  # two sweeps and the certification

    def test_rejected_anderson_mix_falls_back_to_plain_image(self, monkeypatch):
        _, cs = t_sample(p=20, n=40, seed=12)
        spec = student_spec(20, 3.0)
        reference = fixed_point_solve(spec, cs.Z).entries
        cholesky = np.linalg.cholesky
        factored = []

        def reject_first_mix(S):
            # calls 1 and 2 factor the start and the first plain image; call 3 the first Anderson mix
            factored.append(S)
            if len(factored) == 3:
                raise np.linalg.LinAlgError("injected: mix is not positive definite")
            return cholesky(S)

        monkeypatch.setattr(np.linalg, "cholesky", reject_first_mix)
        est = fixed_point_solve(spec, cs.Z).entries
        assert len(factored) > 4
        assert not np.array_equal(factored[2], factored[3])  # the plain image replaced the mix
        assert plain_residual(spec, cs.Z, est) <= 1e-10
        assert np.linalg.norm(est - reference) / np.linalg.norm(reference) < 1e-8

    def test_robust_solve_retries_after_convergence_error(self, monkeypatch):
        real = experiments.fixed_point_solve
        seen = []

        def fail_first(spec, Z, opts):
            seen.append(opts)
            if len(seen) == 1:
                raise ConvergenceError("injected", residual=1.0)
            return real(spec, Z, opts)

        monkeypatch.setattr(experiments, "fixed_point_solve", fail_first)
        cfg = ExperimentConfig(p=6, n_grid=(50,), trials=1, seed=99)
        res = run_experiment(cfg)
        assert res.metadata["excluded"] == "none"
        assert len(seen) == 2
        assert seen[1] == SolverOptions(max_iter=2 * SolverOptions().max_iter, init="scm")

    def test_insufficient_samples_degenerate(self):
        _, cs = t_sample(p=20, n=2000, seed=5)
        with pytest.raises(DegeneracyError):
            fixed_point_solve(student_spec(20, 3.0), cs.Z[:, :20])

    def test_identity_init_reaches_same_solution(self):
        _, cs = t_sample(p=6, n=500, seed=6)
        spec = student_spec(6, 3.0)
        a = fixed_point_solve(spec, cs.Z, SolverOptions(init="scm"))
        b = fixed_point_solve(spec, cs.Z, SolverOptions(init="identity"))
        assert np.linalg.norm(a.entries - b.entries) / np.linalg.norm(a.entries) < 1e-8

    def test_permutation_equivariance(self):
        _, cs = t_sample(p=6, n=500, seed=7)
        spec = student_spec(6, 3.0)
        perm = np.random.default_rng(0).permutation(cs.Z.shape[1])
        a = fixed_point_solve(spec, cs.Z)
        b = fixed_point_solve(spec, cs.Z[:, perm])
        assert np.linalg.norm(a.entries - b.entries) / np.linalg.norm(a.entries) < 1e-12

    def test_unitary_equivariance(self):
        _, cs = t_sample(p=6, n=500, seed=8)
        spec = student_spec(6, 3.0)
        rng = np.random.default_rng(1)
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        a = fixed_point_solve(spec, V @ cs.Z)
        b = fixed_point_solve(spec, cs.Z)
        assert np.linalg.norm(a.entries - V @ b.entries @ V.conj().T) / np.linalg.norm(a.entries) < 1e-8

    def test_scale_equivariance_gaussian_exact(self):
        _, cs = t_sample(p=5, n=300, seed=9)
        a = fixed_point_solve(gaussian_spec(), 2.0 * cs.Z)
        b = fixed_point_solve(gaussian_spec(), cs.Z)
        assert np.linalg.norm(a.entries - 4.0 * b.entries) / np.linalg.norm(a.entries) < 1e-14

    def test_scale_equivariance_student(self):
        _, cs = t_sample(p=5, n=300, seed=10)
        spec = student_spec(5, 3.0)
        a = fixed_point_solve(spec, 1.7 * cs.Z)
        b = fixed_point_solve(spec, cs.Z)
        assert np.linalg.norm(a.entries - 1.7**2 * b.entries) / np.linalg.norm(a.entries) < 1e-8

    def test_solver_options_validation(self):
        with pytest.raises(InputError):
            SolverOptions(tol=0.0)
        with pytest.raises(InputError):
            SolverOptions(init="random")


class TestSolveSigma:
    def test_student_matched_scale_is_one(self):
        sigma = solve_sigma(student_spec(20, 3.0), CesDistribution.student_t(3.0), 20)
        assert abs(sigma - 1.0) < 1e-3

    def test_gaussian_matched_scale_is_one(self):
        sigma = solve_sigma(gaussian_spec(), CesDistribution.gaussian(), 20)
        assert abs(sigma - 1.0) < 1e-3

    def test_constant_weight_analytic_scale(self):
        kappa = 2.0
        spec = MEstimatorSpec(
            name="const",
            u=lambda t: np.full_like(np.asarray(t, dtype=float), kappa),
            psi=lambda t: kappa * np.asarray(t, dtype=float),
            psi_prime=lambda t: np.full_like(np.asarray(t, dtype=float), kappa),
        )
        sigma = solve_sigma(spec, CesDistribution.gaussian(), 10)
        assert abs(sigma - 1 / kappa) < 1e-3 / kappa

    def test_scm_weight_on_heavy_tails(self):
        # for u = 1 on t data, sigma = (d-2)/d; Q has infinite variance at d=3,
        # so the pinned-sample mean only reaches ~1% accuracy
        sigma = solve_sigma(gaussian_spec(), CesDistribution.student_t(3.0), 20)
        assert abs(sigma - 1.0 / 3.0) < 0.02 / 3.0
