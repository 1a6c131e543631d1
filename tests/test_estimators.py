import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cesevd.estimators as estimators
import cesevd.sampling as sampling
from cesevd import (
    CesDistribution,
    HermitianMatrix,
    MEstimatorSpec,
    RandomStream,
    SolverOptions,
    build_factor_model,
    fixed_point_solve,
    gaussian_spec,
    modular_variate_sample,
    sample_coupled,
    scm,
    solve_sigma,
    student_spec,
    toeplitz_scatter,
)
from cesevd.errors import CalibrationError, ConvergenceError, DegeneracyError, InputError
from cesevd.estimators import fixed_point_solve_stack, unit_weight_sigma

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


def factor_sigma(lambdas, p=20, seed=13):
    """Scatter of a rank-len(lambdas) factor model plus unit noise: condition number about lambdas[0]."""
    r = len(lambdas)
    rng = np.random.default_rng(seed)
    Ur, _ = np.linalg.qr(rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r)))
    return build_factor_model(Ur, lambdas, 1.0).sigma


def constant_spec(kappa):
    """Constant weight u = kappa: the scale equation has the root p / (kappa E[Q])."""
    return MEstimatorSpec(
        u=lambda t: np.full_like(np.asarray(t, dtype=float), kappa),
        psi=lambda t: kappa * np.asarray(t, dtype=float),
        psi_prime=lambda t: np.full_like(np.asarray(t, dtype=float), kappa),
    )


def bisect_scale(spec, Q, p):
    """Reference root of mean(psi(s Q)) = p: bisection on [1e-3, 1e3] down to adjacent floats."""
    lo, hi = 1e-3, 1e3
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if np.mean(spec.psi(mid * Q)) < p:
            lo = mid
        else:
            hi = mid


def anderson(spec, Z):
    """The Anderson sweeps' entry for the one sample Z, solved as a stack of one with Newton's method switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_NEWTON_RATIO", 0)
        return fixed_point_solve_stack(spec, [Z])[0]


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
        sigma = factor_sigma((1e4, 3e3, 1e3, 3e2, 1e2))
        Z = sample_coupled(CesDistribution.student_t(3.0), sigma, 2000, RandomStream(14, 0)).Z
        spec = student_spec(20, 3.0)
        est = fixed_point_solve(spec, Z)
        assert plain_residual(spec, Z, est.entries) <= 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="known gap (ROADMAP item 7): the solver certifies with its own kernels; near n = p on a "
        "cond-1e6 scatter an independent recomputation reads 1.1e-10 to 3.9e-10",
    )
    def test_residual_contract_near_n_equals_p(self):
        sigma = factor_sigma((1e6, 3e5, 1e5, 3e4, 1e4))
        spec = student_spec(20, 3.0)
        worst = 0.0
        for seed in (0, 1, 2, 5):
            Z = sample_coupled(CesDistribution.student_t(3.0), sigma, 21, RandomStream(seed, 0)).Z
            worst = max(worst, plain_residual(spec, Z, fixed_point_solve(spec, Z).entries))
        assert worst <= 1e-10

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
        assert calls[0] == 2  # two sweeps; the second's scale root is 1, so its image certifies itself

    def test_rejected_anderson_mix_falls_back_to_plain_image(self, monkeypatch):
        _, cs = t_sample(p=20, n=95, seed=12)  # above Newton's crossover: the Anderson sweeps solve it
        assert not estimators._uses_newton(20, 95)
        spec = student_spec(20, 3.0)
        reference = fixed_point_solve(spec, cs.Z).entries
        cholesky = np.linalg.cholesky
        factored = []

        def record(S):
            factored.append(np.reshape(S, (-1, 20, 20)))
            return cholesky(S)

        monkeypatch.setattr(np.linalg, "cholesky", record)
        fixed_point_solve(spec, cs.Z)
        _, image, mix = factored[:3]  # the start, the first plain image and the first Anderson mix
        # the plain image the first mix was made from, with the sweep's kernels
        t = estimators._whiten(cholesky(image), cs.Z[None])[1]
        y = estimators._scale_roots(spec, t, 20)[0]
        plain = estimators._weighted_scatter(cs.Z[None], spec.u(t * np.array(y)[:, None]))

        factored.clear()
        rejected = []

        def reject_mix(S):
            # every factorization of that mix fails, whether of the stack or of its one matrix
            factored.append(np.reshape(S, (-1, 20, 20)))
            if np.array_equal(factored[-1], mix):
                rejected.append(len(factored))
                raise np.linalg.LinAlgError("injected: mix is not positive definite")
            return cholesky(S)

        monkeypatch.setattr(np.linalg, "cholesky", reject_mix)
        est = fixed_point_solve(spec, cs.Z).entries
        assert rejected and len(factored) > rejected[-1] + 1
        assert np.array_equal(factored[rejected[-1]], plain)  # the plain image replaced the mix
        assert not np.array_equal(plain, mix)
        assert not np.array_equal(est, reference)
        assert plain_residual(spec, cs.Z, est) <= 1e-10
        assert np.linalg.norm(est - reference) / np.linalg.norm(reference) < 1e-8

    def test_insufficient_samples_degenerate(self):
        _, cs = t_sample(p=20, n=2000, seed=5)
        with pytest.raises(DegeneracyError):
            fixed_point_solve(student_spec(20, 3.0), cs.Z[:, :20])

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
        with pytest.raises(InputError):
            SolverOptions(init="identity")  # every solve starts from the sample's SCM


def t_samples(n, count, seed=21, p=20):
    """`count` Student-t samples at sample size n from consecutive streams."""
    Sig = toeplitz_scatter(p, 0.9 * np.exp(1j * np.pi / 4))
    dist = CesDistribution.student_t(3.0)
    return [sample_coupled(dist, Sig, n, RandomStream(seed, k)).Z for k in range(count)]


def under_blas_threads(code):
    """Stdout of `code` run in fresh interpreters with OPENBLAS_NUM_THREADS=1 and with 2."""
    src = os.path.dirname(os.path.dirname(estimators.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        out.append(proc.stdout.strip())
    return out


def solve_in_blocks(spec, samples, size, opts=None):
    """Entries of `fixed_point_solve_stack` over consecutive blocks of `size` samples."""
    return [res for i in range(0, len(samples), size)
            for res in fixed_point_solve_stack(spec, samples[i:i + size], opts)]


class TestSolveStack:
    @pytest.mark.parametrize("n", [40, 95, 228, 2000])
    @pytest.mark.parametrize("weight", ["student", "unit"])
    def test_members_equal_single_solves_bitwise(self, weight, n):
        spec = student_spec(20, 3.0) if weight == "student" else gaussian_spec()
        samples = t_samples(n, 7)
        single = [fixed_point_solve(spec, Z).entries for Z in samples]
        for size in (1, 3, 7):  # a stack of one, an odd size, the full block
            stacked = solve_in_blocks(spec, samples, size)
            assert all(isinstance(S, HermitianMatrix) for S in stacked)
            assert all(np.array_equal(S.entries, ref) for S, ref in zip(stacked, single))

    def test_empty_stack_has_no_entries(self):
        spec = student_spec(20, 3.0)
        assert fixed_point_solve_stack(spec, []) == []
        assert fixed_point_solve_stack(spec, np.empty((0, 20, 95), dtype=complex)) == []

    def test_samples_of_different_shapes_are_an_input_error(self):
        samples = [t_samples(95, 1)[0], t_samples(96, 1)[0]]
        with pytest.raises(InputError, match=r"\(20, 95\) and \(20, 96\)"):
            fixed_point_solve_stack(student_spec(20, 3.0), samples)

    def test_unit_weight_members_equal_scm_bitwise(self):
        samples = t_samples(62, 5)
        stacked = fixed_point_solve_stack(gaussian_spec(), samples)
        assert all(np.array_equal(S.entries, scm(Z).entries) for S, Z in zip(stacked, samples))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [40, 95])  # Newton's first sweep, and the Anderson sweeps' own
    def test_failures_stay_with_their_member(self, n):
        # stalled members and degenerate ones do not disturb their stack-mates
        spec, opts = student_spec(20, 3.0), SolverOptions(max_iter=5)
        samples = t_samples(n, 5)
        samples[2] = samples[2].copy()
        samples[2][0] = 0  # a zero row: the start is singular
        samples[4] = samples[4].copy()
        samples[4][:, :n // 8] = 0  # zero columns keep mean(psi) below p: the first sweep's scale equation has no root
        out = fixed_point_solve_stack(spec, samples, SolverOptions())
        assert isinstance(out[2], DegeneracyError) and str(out[2]).startswith("singular iterate")
        assert isinstance(out[4], DegeneracyError) and str(out[4]).startswith("scale recalibration has no root")
        for b in (0, 1, 3):
            assert np.array_equal(out[b].entries, fixed_point_solve(spec, samples[b]).entries)
        short = fixed_point_solve_stack(spec, samples[:2], opts)
        assert all(isinstance(res, ConvergenceError) and res.residual > opts.tol for res in short)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stack_without_any_scale_root_is_degenerate(self):
        # every live member leaves in the same sweep, a stack of one included
        spec = student_spec(20, 3.0)
        samples = [Z.copy() for Z in t_samples(40, 2)]
        for Z in samples:
            Z[:, :5] = 0
        assert all(isinstance(res, DegeneracyError) for res in fixed_point_solve_stack(spec, samples))
        with pytest.raises(DegeneracyError, match="scale recalibration has no root"):
            fixed_point_solve(spec, samples[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_root_search_ends_early(self):
        # the Student psi is bounded by p + d/2, so with 5 of 40 columns zero mean(psi) stays below p:
        # the scale root's steps leave its range after a few passes, before psi_prime can overflow
        spec = student_spec(20, 3.0)
        calls = [0]

        def psi(x):
            calls[0] += 1
            return spec.psi(x)

        Z = t_samples(40, 1)[0].copy()
        Z[:, :5] = 0
        (res,) = fixed_point_solve_stack(dataclasses.replace(spec, psi=psi), [Z])
        assert isinstance(res, DegeneracyError) and str(res).startswith("scale recalibration has no root")
        assert calls[0] <= 12

    def test_one_rejected_mix_falls_back_for_that_member_only(self, monkeypatch):
        spec = student_spec(20, 3.0)
        samples = t_samples(95, 5, seed=12)  # above Newton's crossover: the Anderson sweeps solve them as one stack
        assert not estimators._uses_newton(20, 95) and estimators.stack_size(20, 95) >= 4
        plain = [fixed_point_solve(spec, Z).entries for Z in samples]
        cholesky = np.linalg.cholesky
        factored = []

        def record(S):
            factored.append(np.array(S))
            return cholesky(S)

        monkeypatch.setattr(np.linalg, "cholesky", record)
        fixed_point_solve(spec, samples[3])
        target = factored[2]  # member 3's first Anderson mix

        sizes = []

        def reject_target(S):
            mats = np.reshape(S, (-1,) + target.shape)
            sizes.append(len(mats))
            if any(np.array_equal(M, target) for M in mats):
                raise np.linalg.LinAlgError("injected: mix is not positive definite")
            return cholesky(S)

        monkeypatch.setattr(np.linalg, "cholesky", reject_target)
        fallback = fixed_point_solve(spec, samples[3]).entries
        stacked = fixed_point_solve_stack(spec, samples)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        assert max(sizes) == 5  # the stack's iterates were factored in one call
        assert not np.array_equal(fallback, plain[3])  # the member took the plain image
        assert plain_residual(spec, samples[3], fallback) <= 1e-10
        assert np.array_equal(stacked[3].entries, fallback)
        assert all(np.array_equal(stacked[b].entries, plain[b]) for b in (0, 1, 2, 4))

    def test_scale_one_residual_is_the_plain_residual_bitwise(self):
        # a sweep whose scale root is exactly 1 certifies from the residual it has, without a further scatter
        spec = student_spec(20, 3.0)
        Z = np.stack(t_samples(2000, 3))
        S = np.stack([fixed_point_solve(spec, z).entries for z in Z])
        t = estimators._whiten(np.linalg.cholesky(S), Z)[1]
        y = estimators._scale_roots(spec, t, 20)[0]
        assert y == [1.0] * len(S)
        norm_S = estimators._frobenius(S)
        T = estimators._weighted_scatter(Z, spec.u(t * np.array(y)[:, None]))
        resid = estimators._norms((T - S).view(np.float64).reshape(len(S), -1)) / norm_S
        for j in range(len(S)):
            plain = estimators._weighted_scatter(Z[j], spec.u(t[j])) - S[j]
            assert resid[j] == estimators._frobenius(plain[None])[0] / norm_S[j]

    def test_scale_root_matches_reference_bisection(self):
        spec = student_spec(20, 3.0)
        rng = np.random.default_rng(3)
        for n in (40, 95, 2000):
            t = rng.gamma(20.0, 1.0, (6, n)) * np.linspace(0.5, 2.0, 6)[:, None]
            t[4] = 0.0  # psi(0) = 0: no root for this row
            y, resid = estimators._scale_roots(spec, t, 20)
            for b in range(6):
                if b == 4:
                    assert np.isnan(y[b]) and np.isnan(resid[b])
                else:
                    reference = bisect_scale(spec, t[b], 20)
                    assert abs(y[b] - reference) <= 1e-12 * reference

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scale_roots_of_a_stack_equal_each_row_alone_bitwise(self):
        # rows that stop after different numbers of steps, one with no root and one already at y = 1
        spec = student_spec(20, 3.0)
        Z = t_samples(2000, 1)[0]  # its solution's scale root is exactly 1 (see the test above)
        at_one = estimators._whiten(np.linalg.cholesky(fixed_point_solve(spec, Z).entries), Z)[1]
        rng = np.random.default_rng(5)
        t = np.stack([at_one, 1.001 * at_one, rng.gamma(20.0, 1.0, 2000), np.zeros(2000), 40.0 * at_one,
                      1e-3 * at_one])
        psi_calls = []

        def counted(spec):
            calls = [0]

            def psi(x):
                calls[0] += 1
                return spec.psi(x)

            psi_calls.append(calls)
            return dataclasses.replace(spec, psi=psi)

        y, resid = estimators._scale_roots(spec, t, 20)
        assert y[0] == 1.0 and np.isnan(y[3]) and np.isnan(resid[3])
        for b in range(len(t)):
            y_b, resid_b = estimators._scale_roots(counted(spec), t[b:b + 1], 20)
            assert np.array_equal(y_b, y[b:b + 1], equal_nan=True)
            assert np.array_equal(resid_b, resid[b:b + 1], equal_nan=True)
        steps = [calls[0] for calls in psi_calls]
        assert steps[0] == 1 and len(set(steps)) >= 4


def solver_residual(spec, Z, S):
    """Relative plain fixed-point residual of S, computed with the solver's own kernels."""
    t = estimators._whiten(np.linalg.cholesky(S), Z)[1]
    T = estimators._weighted_scatter(Z, spec.u(t))
    return np.linalg.norm(T - S) / np.linalg.norm(S)


def newton_failure_sample():
    """A sample whose full Newton step would make a weight <= 0, so Newton's method certifies nothing.

    Trial 124 at n = 40 of the eig_small_n benchmark campaign at its held-out seed.
    """
    Sig = toeplitz_scatter(20, 0.9 * np.exp(1j * np.pi / 4))
    return sample_coupled(CesDistribution.student_t(3.0), Sig, 40, RandomStream(1451705745, 124)).Z


class TestNewton:
    def test_whitenings_per_solve(self):
        # the Anderson sweeps took 21 weight evaluations on this sample
        _, cs = t_sample(p=20, n=40, seed=3)
        assert estimators._uses_newton(20, 40)
        spec, calls = counting_u(student_spec(20, 3.0))
        est = fixed_point_solve(spec, cs.Z)
        assert calls[0] <= 12
        assert plain_residual(spec, cs.Z, est.entries) <= 1e-10

    def test_unit_weight_is_scm_bitwise(self):
        _, cs = t_sample(p=20, n=62, seed=2)
        spec, calls = counting_u(gaussian_spec())
        assert np.array_equal(fixed_point_solve(spec, cs.Z).entries, scm(cs.Z).entries)
        assert calls[0] == 2  # the first sweep, then the iterate it gives certifies itself

    def test_same_solution_as_the_anderson_sweeps(self):
        spec = student_spec(20, 3.0)
        for Z in t_samples(62, 3):
            reference = anderson(spec, Z)
            newton = fixed_point_solve(spec, Z).entries
            assert np.linalg.norm(newton - reference.entries) / np.linalg.norm(reference.entries) < 1e-8

    def test_uncertified_member_gets_the_anderson_solve_bitwise(self, monkeypatch):
        spec = student_spec(20, 3.0)
        bad = newton_failure_sample()
        newton_stack, newton = estimators._newton_stack, []

        def recorded(*args):
            out = newton_stack(*args)
            newton.append(list(out))
            return out

        monkeypatch.setattr(estimators, "_newton_stack", recorded)
        fixed_point_solve(spec, bad)
        assert newton == [[None]]
        samples = t_samples(40, 2)
        samples.insert(1, bad)
        stacked = fixed_point_solve_stack(spec, samples)
        assert np.array_equal(stacked[1].entries, anderson(spec, bad).entries)
        assert all(np.array_equal(S.entries, fixed_point_solve(spec, Z).entries) for S, Z in zip(stacked, samples))

    def test_non_positive_step_hands_over_to_the_sweeps(self, monkeypatch):
        # halving that step to keep the weights positive spent all 16 Newton whitenings, 38 in all
        spec = student_spec(20, 3.0)
        Z = newton_failure_sample()
        reference = anderson(spec, Z)
        calls = [0]
        whiten = estimators._whiten

        def counted(*args):
            calls[0] += 1
            return whiten(*args)

        monkeypatch.setattr(estimators, "_whiten", counted)
        assert np.array_equal(fixed_point_solve(spec, Z).entries, reference.entries)
        assert calls[0] <= 24

    def test_handed_over_member_keeps_its_first_sweep(self, monkeypatch):
        # Newton's method and the sweeps share the first sweep: a sample Newton's method does not certify
        # continues the sweeps from its first image, 23 whitenings in all where a repeated first sweep took 24
        spec = student_spec(20, 3.0)
        Z = newton_failure_sample()
        calls, newton_steps = [0], []
        whiten, newton_stack = estimators._whiten, estimators._newton_stack

        def counted(*args):
            calls[0] += 1
            return whiten(*args)

        def newton(*args):
            before = calls[0]
            out = newton_stack(*args)
            newton_steps.append(calls[0] - before)
            return out

        monkeypatch.setattr(estimators, "_whiten", counted)
        reference = anderson(spec, Z)
        sweeps, calls[0] = calls[0], 0
        monkeypatch.setattr(estimators, "_newton_stack", newton)
        assert np.array_equal(fixed_point_solve(spec, Z).entries, reference.entries)
        (steps,) = newton_steps  # Newton's whitenings after the first sweep's
        assert calls[0] == (1 + steps) + sweeps - 1 == 23

    def test_handed_over_member_keeps_its_first_image(self, monkeypatch):
        # Newton's method starts from the sweep loop's first image, so a sample it hands over forms that
        # image once: 23 scatters in all where a second copy took 24; a certified sample takes 11 either way
        spec = student_spec(20, 3.0)
        calls = [0]
        scatter = estimators._weighted_scatter

        def counted(*args):
            calls[0] += 1
            return scatter(*args)

        Z = newton_failure_sample()
        reference = anderson(spec, Z)
        monkeypatch.setattr(estimators, "_weighted_scatter", counted)
        assert np.array_equal(fixed_point_solve(spec, Z).entries, reference.entries)
        assert calls[0] == 23
        calls[0] = 0
        fixed_point_solve(spec, t_sample(p=20, n=40, seed=3)[1].Z)
        assert calls[0] == 11

    def test_singular_newton_systems_give_the_anderson_solve_bitwise(self, monkeypatch):
        spec = student_spec(20, 3.0)
        samples = t_samples(62, 3)
        reference = [anderson(spec, Z).entries for Z in samples]

        def singular(*args):
            raise np.linalg.LinAlgError("injected: singular Newton system")

        monkeypatch.setattr(np.linalg, "solve", singular)
        for size in (1, 3):
            stacked = solve_in_blocks(spec, samples, size)
            assert all(np.array_equal(S.entries, ref) for S, ref in zip(stacked, reference))

    @pytest.mark.parametrize("seed", [7, 10])
    def test_certifies_near_n_equals_p(self, seed):
        # the Anderson sweeps stalled on these samples, with residuals 3.5e-10 and 4.5e-10 after 200 sweeps
        sigma = factor_sigma((1e6, 3e5, 1e5, 3e4, 1e4))
        Z = sample_coupled(CesDistribution.student_t(3.0), sigma, 21, RandomStream(seed, 0)).Z
        spec = student_spec(20, 3.0)
        est = fixed_point_solve(spec, Z).entries
        assert solver_residual(spec, Z, est) <= 1e-10


class TestSolveSigma:
    def test_student_matched_scale_is_one(self):
        sigma = solve_sigma(student_spec(20, 3.0), CesDistribution.student_t(3.0), 20)
        assert abs(sigma - 1.0) < 1e-3

    def test_gaussian_matched_scale_is_one(self):
        sigma = solve_sigma(gaussian_spec(), CesDistribution.gaussian(), 20)
        assert abs(sigma - 1.0) < 1e-3

    def test_constant_weight_analytic_scale(self):
        kappa = 2.0
        sigma = solve_sigma(constant_spec(kappa), CesDistribution.gaussian(), 10)
        assert abs(sigma - 1 / kappa) < 1e-3 / kappa

    @pytest.mark.parametrize("kappa", [1e-4, 1e4])
    def test_root_outside_range_is_calibration_error(self, kappa):
        # the root 1/kappa lies outside [1e-3, 1e3]
        with pytest.raises(CalibrationError):
            solve_sigma(constant_spec(kappa), CesDistribution.gaussian(), 10, draws=100_000)

    @pytest.mark.parametrize("spec", [gaussian_spec(), student_spec(20, 3.0)], ids=["unit", "student"])
    def test_matches_reference_bisection(self, spec):
        dist, stream = CesDistribution.student_t(3.0), RandomStream(15, 0)
        sigma = solve_sigma(spec, dist, 20, draws=200_000, stream=stream)
        reference = bisect_scale(spec, modular_variate_sample(dist, 20, 200_000, stream), 20)
        assert abs(sigma - reference) <= 1e-12 * reference

    def test_chunked_root_matches_unchunked(self, monkeypatch):
        spec = student_spec(20, 3.0)
        t = 1.7 * modular_variate_sample(CesDistribution.student_t(3.0), 20, 5 * estimators._SCALE_CHUNK // 2,
                                         RandomStream(16, 0))
        sizes = []

        def psi(x):
            sizes.append(x.size)
            return spec.psi(x)

        (chunked,), _ = estimators._scale_roots(dataclasses.replace(spec, psi=psi), t[None], 20)
        assert max(sizes) == estimators._SCALE_CHUNK and len(sizes) % 3 == 0
        monkeypatch.setattr(estimators, "_SCALE_CHUNK", t.size)
        (whole,), _ = estimators._scale_roots(spec, t[None], 20)
        assert abs(chunked - whole) <= 1e-14 * whole

    def test_same_bits_for_any_blas_thread_count(self):
        # BLAS threads a dot product over the long calibration chunks, and its rounding follows the thread count
        code = ("from cesevd import CesDistribution, gaussian_spec, solve_sigma; "
                "print(repr(solve_sigma(gaussian_spec(), CesDistribution.student_t(3.0), 20)))")
        one, two = under_blas_threads(code)
        assert one == two

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: at p = 20 the scatter's complex product takes other bits with 1 and 2 BLAS "
        "threads for n = 228 and 838 (10 of 10 samples each; same bits at the other default grid points), "
        "which moves the crlb_scm perfbench CSV at seed 1 by 1.8e-15 dB",
    )
    def test_scm_same_bits_for_any_blas_thread_count(self):
        code = ("import hashlib, numpy as np; "
                "from cesevd import CesDistribution, RandomStream, sample_coupled, scm, toeplitz_scatter; "
                "Sig = toeplitz_scatter(20, 0.9 * np.exp(1j * np.pi / 4)); "
                "print(hashlib.sha256(b''.join(scm(sample_coupled(CesDistribution.student_t(3.0), Sig, 228, "
                "RandomStream(21, k)).Z).entries.tobytes() for k in range(4))).hexdigest())")
        one, two = under_blas_threads(code)
        assert one == two

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: at p = 20 and n = 228 the Student solve takes other bits with 1 and 2 BLAS "
        "threads, because both its scatter and its whitening products do",
    )
    def test_student_solve_same_bits_for_any_blas_thread_count(self):
        code = ("import hashlib, numpy as np; "
                "from cesevd import (CesDistribution, RandomStream, fixed_point_solve, sample_coupled, "
                "student_spec, toeplitz_scatter); "
                "Sig = toeplitz_scatter(20, 0.9 * np.exp(1j * np.pi / 4)); "
                "print(hashlib.sha256(b''.join(fixed_point_solve(student_spec(20, 3.0), sample_coupled("
                "CesDistribution.student_t(3.0), Sig, 228, RandomStream(21, k)).Z).entries.tobytes() "
                "for k in range(4))).hexdigest())")
        one, two = under_blas_threads(code)
        assert one == two

    def test_calibration_peak_memory(self):
        # the 4M draws alone take 30.5 MiB; one temporary of their size would double the peak
        tracemalloc.start()
        try:
            solve_sigma(gaussian_spec(), CesDistribution.student_t(3.0), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * 2**20

    def test_streamed_calibration_peak_memory(self):
        # one 2 MiB piece of draws and one 512 KiB row of ones; a chunk-sized temporary per sum would add 1 MiB,
        # and a piece of 2^19 draws 2 MiB more. numpy.random is loaded first: its lazy import takes 0.7 MiB.
        RandomStream(0).generator()
        tracemalloc.start()
        try:
            unit_weight_sigma(CesDistribution.student_t(3.0), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    @pytest.mark.parametrize("chunk", [1 << 16, 1 << 17, 1 << 19])
    def test_unit_weight_sigma_same_bits_for_any_draw_piece(self, monkeypatch, chunk):
        # the pieces are read from _DRAW_CHUNK when the draws are made, so patching it resizes them
        dist = CesDistribution.student_t(3.0)
        sigma = unit_weight_sigma(dist, 20)
        monkeypatch.setattr(sampling, "_DRAW_CHUNK", chunk)
        assert [len(Q) for Q in sampling.modular_variate_chunks(dist, 20, 3 * chunk, RandomStream(0))] == [chunk] * 3
        assert unit_weight_sigma(dist, 20) == sigma

    @pytest.mark.parametrize("d", [2.5, 3.0, 6.0, 30.0, None])
    @pytest.mark.parametrize("p", [2, 6, 20])
    def test_unit_weight_sigma_is_solve_sigma_bitwise(self, p, d):
        # pinned and own streams; 1_234_567 draws end in a partial piece, 100_000 fit in one
        assert sampling._DRAW_CHUNK % estimators._SCALE_CHUNK == 0  # the pieces keep the sums' chunks
        dist = CesDistribution.gaussian() if d is None else CesDistribution.student_t(d)
        for draws, stream in ((4_000_000, None), (1_234_567, RandomStream(3, 1)), (100_000, RandomStream(4, 2))):
            streamed = unit_weight_sigma(dist, p, draws, stream)
            assert streamed == solve_sigma(gaussian_spec(), dist, p, draws, stream)

    def test_scm_weight_on_heavy_tails(self):
        # for u = 1 on t data, sigma = (d-2)/d; Q has infinite variance at d=3,
        # so the pinned-sample mean only reaches ~1% accuracy
        sigma = solve_sigma(gaussian_spec(), CesDistribution.student_t(3.0), 20)
        assert abs(sigma - 1.0 / 3.0) < 0.02 / 3.0
