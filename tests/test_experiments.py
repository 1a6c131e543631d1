import importlib.util
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cesevd import (
    CesDistribution,
    ExperimentConfig,
    RandomStream,
    SolverOptions,
    coeffs_closed_form_student,
    config_from_mapping,
    fixed_point_solve,
    gaussian_spec,
    parse_config_file,
    read_csv,
    render_svg,
    run_experiment,
    sample_coupled,
    student_spec,
    toeplitz_scatter,
    write_csv,
)
import cesevd.asymptotics as asymptotics
import cesevd.cli as cli
import cesevd.estimators as estimators
import cesevd.experiments as exp
from cesevd.cli import build_parser, main
from cesevd.errors import CalibrationError, CampaignError, ConfigError, ConvergenceError

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parents[1]

FAST = dict(p=6, d=3.0, n_grid=(50, 100), trials=10, seed=99, r=2, lambda_r=(60.0, 30.0))
# Sample sizes at p = 6 that Newton's method solves, where a block holds several trials (51 and 28).
NEWTON_GRID = (12, 20)


def fast_config(**overrides):
    return ExperimentConfig(**{**FAST, **overrides})


def fail_first_trials(monkeypatch, count):
    """Make the campaign's first `count` trials fail their block solve."""
    real_stack = exp.fixed_point_solve_stack
    members = [0]

    def stack(spec, Z, opts):
        out = real_stack(spec, Z, opts)
        for b in range(len(out)):
            members[0] += 1
            if members[0] <= count:
                out[b] = ConvergenceError("injected", residual=1.0)
        return out

    monkeypatch.setattr(exp, "fixed_point_solve_stack", stack)


class TestConfig:
    def test_validation_catches_bad_grid(self):
        with pytest.raises(ConfigError):
            fast_config(n_grid=(100, 50)).validate()
        with pytest.raises(ConfigError):
            fast_config(n_grid=(6, 50)).validate()  # n = p: no full-rank solution
        with pytest.raises(ConfigError):
            fast_config(n_grid=()).validate()  # no grid point: a header-only CSV

    def test_validation_catches_bad_rank(self):
        with pytest.raises(ConfigError):
            fast_config(experiment="projector", r=6).validate()

    def test_validation_catches_lambda_length(self):
        with pytest.raises(ConfigError):
            fast_config(experiment="snr_loss", r=2, lambda_r=(9.0,)).validate()

    def test_validation_catches_non_finite_scalars(self):
        for key in ("d", "rho_phase"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigError, match=f"{key} must be finite"):
                    fast_config(**{key: value}).validate()

    def test_validation_catches_bad_factor_model(self):
        for experiment in ("projector", "snr_loss"):
            for gamma2 in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ConfigError, match="gamma2 must be finite and > 0"):
                    fast_config(experiment=experiment, gamma2=gamma2).validate()
            for lambda_r in ((20.0, 40.0), (30.0, 30.0), (60.0, -1.0), (60.0, 0.0), (math.inf, 30.0), (60.0, math.nan)):
                with pytest.raises(ConfigError, match="lambda_r must be finite, positive and strictly descending"):
                    fast_config(experiment=experiment, lambda_r=lambda_r).validate()
        # experiments without the factor model never read gamma2 or lambda_r
        fast_config(experiment="crlb", gamma2=0.0, lambda_r=(20.0, 40.0)).validate()

    def test_validation_catches_scm_without_theory(self):
        # the scm estimator's E[Q] is infinite for d <= 2, and its theta1 = (d-2)/(d-4) for d <= 4
        for experiment in exp.EXPERIMENTS:
            d_min = 4 if experiment in ("eigenvalues", "eigenvectors", "projector") else 2
            for d in (1.5, 2.0, float(d_min)):
                with pytest.raises(ConfigError, match=f"d > {d_min}"):
                    fast_config(experiment=experiment, estimator="scm", d=d).validate()
            fast_config(experiment=experiment, estimator="scm", d=d_min + 0.5).validate()
        fast_config(estimator="student", d=1.5).validate()

    def test_validation_catches_seed_outside_64_bits(self):
        # a stream keys on the seed's low 64 bits: 2^64 + 1 would rerun seed 1, and -1 seed 2^64 - 1
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\^64\)"):
                fast_config(seed=seed).validate()
        for seed in (0, 2**64 - 1):
            fast_config(seed=seed).validate()

    @pytest.mark.parametrize("key, value", [
        ("p", 6.0), ("n_grid", (50.0,)), ("n_grid", (50, 100.5)), ("trials", 2.0), ("seed", 1.0), ("r", 2.0),
        ("eigvec_index", 1.0), ("threads", 1.0), ("trials", "2"),
    ], ids=["p", "n_grid", "n_grid-last", "trials", "seed", "r", "eigvec_index", "threads", "trials-str"])
    def test_validation_catches_non_integers(self, monkeypatch, key, value):
        # rejected before set-up: a float count used to pass and die with a TypeError in range() or a shape
        monkeypatch.setattr(exp, "_Campaign", lambda *args: pytest.fail("the campaign was set up"))
        with pytest.raises(ConfigError, match=f"{key} takes integers only"):
            run_experiment(fast_config(experiment="projector", **{key: value}))

    def test_config_keys_and_cli_flags_keep_their_order(self):
        keys = ("experiment", "p", "d", "rho_mod", "rho_phase", "n_grid", "trials", "seed", "estimator",
                "r", "gamma2", "lambda_r", "eigvec_index", "out", "svg", "threads")
        assert tuple(exp._FIELD_KINDS) == keys
        assert [exp._FIELD_KINDS[k] for k in ("n_grid", "lambda_r", "out", "d")] == [
            "int_list", "float_list", "str", "float"]
        run = next(a for a in build_parser()._actions if a.dest == "command").choices["run"]
        flags = [a.option_strings[0] for a in run._actions if a.option_strings]
        assert flags == ["-h", "--config"] + [f"--{k}" for k in keys]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"experimnt": "crlb"})

    def test_mapping_coercion(self):
        cfg = config_from_mapping(
            {"experiment": "snr_loss", "p": "8", "n_grid": "40, 80", "lambda_r": "60, 30",
             "r": "2", "trials": "3", "d": "3"}
        )
        assert cfg.p == 8 and cfg.n_grid == (40, 80) and cfg.lambda_r == (60.0, 30.0)

    def test_config_file_parsing(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("# comment\nexperiment = eigenvalues\np = 7\n\ntrials = 4  # inline\n")
        mapping = parse_config_file(f)
        assert mapping == {"experiment": "eigenvalues", "p": "7", "trials": "4"}

    def test_config_file_bad_line(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("experiment eigenvalues\n")
        with pytest.raises(ConfigError):
            parse_config_file(f)


class TestDeterminism:
    def test_single_trial_byte_identical_csv(self, tmp_path):
        cfg = fast_config(trials=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg), a)
        write_csv(run_experiment(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_results(self, tmp_path):
        r1 = run_experiment(fast_config(threads=1))
        r2 = run_experiment(fast_config(threads=3))
        assert r1.rows == r2.rows

    def test_threads_start_no_thread(self, monkeypatch):
        # `threads` is accepted with no effect: every campaign runs its blocks in order
        def refuse(self):
            raise AssertionError(f"campaign started thread {self.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        run_experiment(fast_config(threads=3))

    def test_block_size_does_not_change_csv_bytes(self, tmp_path, monkeypatch):
        cfg = fast_config(n_grid=NEWTON_GRID + (50,), trials=40)  # Newton's stacks, then an Anderson stack of 33
        assert estimators.stack_size(cfg.p, 20) < cfg.trials < 2 * estimators.stack_size(cfg.p, 12)
        write_csv(run_experiment(cfg), tmp_path / "blocked.csv")
        monkeypatch.setattr(estimators, "_STACK_BYTES", 1)  # one trial per block
        write_csv(run_experiment(cfg), tmp_path / "single.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()

    def test_block_sizes_fit_the_working_set(self):
        # Newton's stacks up to n = 4p, then the Anderson sweeps' stacks, down to one trial from n = 352
        grid = (40, 62, 80, 81, 95, 147, 228, 352, 2000)
        assert [estimators.stack_size(20, n) for n in grid] == [4, 2, 2, 4, 4, 3, 2, 1, 1]
        assert [estimators.stack_size(6, n) for n in NEWTON_GRID] == [51, 28]
        # a stack's traced peak per member stays within the charge its size is computed from, tightest at n = 21
        sigma = toeplitz_scatter(20, 0.9 * np.exp(1j * math.pi / 4))
        spec = student_spec(20, 3.0)
        for n in (21, 40, 62, 95, 147, 228):
            size = estimators.stack_size(20, n)
            samples = [sample_coupled(CesDistribution.student_t(3.0), sigma, n, RandomStream(21, k)).Z
                       for k in range(size)]
            tracemalloc.start()
            try:
                estimators.fixed_point_solve_stack(spec, samples, exp._SOLVER)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / size <= estimators._member_bytes(20, n)

    def test_seed_changes_results(self):
        r1 = run_experiment(fast_config())
        r2 = run_experiment(fast_config(seed=100))
        assert r1.rows != r2.rows


class TestOutputs:
    def test_csv_round_trip(self, tmp_path):
        res = run_experiment(fast_config())
        path = tmp_path / "r.csv"
        write_csv(res, path)
        columns, data, metadata = read_csv(path)
        assert columns == res.columns
        np.testing.assert_array_equal(data, np.array(res.rows, dtype=float))
        assert metadata["experiment"] == "eigenvalues"
        assert "wall_time_s" not in metadata

    def test_svg_one_polyline_per_data_column(self, tmp_path):
        res = run_experiment(fast_config())
        path = tmp_path / "r.svg"
        render_svg(res, path)
        text = path.read_text()
        assert text.count("<polyline") == len(res.columns) - 1
        assert text.startswith("<svg")
        assert "href" not in text  # self-contained

    def test_all_row_values_finite(self):
        for experiment in ("eigenvalues", "eigenvectors", "projector", "crlb", "snr_loss"):
            res = run_experiment(fast_config(experiment=experiment, trials=8))
            assert np.all(np.isfinite(np.array(res.rows)))


class TestExperimentTable:
    @pytest.mark.parametrize("estimator", exp.ESTIMATORS)
    @pytest.mark.parametrize("experiment", exp.EXPERIMENTS)
    def test_payload_matches_reference(self, experiment, estimator, tmp_path):
        # reference CSVs written before the experiment table existed: a mis-wired entry moves the payload
        d = 6.0 if estimator == "scm" else 3.0  # the scm estimator's coefficients need d > 4
        write_csv(run_experiment(fast_config(experiment=experiment, estimator=estimator, d=d, seed=1)), tmp_path / "r.csv")
        columns, data, metadata = read_csv(tmp_path / "r.csv")
        ref_columns, ref_data, ref_metadata = read_csv(DATA / f"golden_{experiment}_{estimator}.csv")
        assert columns == ref_columns
        assert list(metadata) == list(ref_metadata)
        assert all(metadata[k] == ref_metadata[k] for k in exp._FIELD_KINDS)
        np.testing.assert_allclose(data, ref_data, rtol=0, atol=1e-8)

    def test_traced_names_are_module_attributes(self, monkeypatch):
        # the benchmark's tracer swaps these names on cesevd.experiments and fails on a missing one
        spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up there
        spec.loader.exec_module(tracing)
        assert [n for n in tracing.TRACED_NAMES + tracing.SPEC_FACTORIES if not hasattr(exp, n)] == []


class TestTheoryColumns:
    def test_one_over_n_slope_for_covariance_experiments(self):
        # theory columns of the MSE experiments scale exactly as 1/n
        for experiment in ("eigenvalues", "eigenvectors", "projector"):
            res = run_experiment(fast_config(experiment=experiment, trials=2))
            rows = np.array(res.rows)
            n1, n2 = rows[0, 0], rows[1, 0]
            expected = -10 * math.log10(n2 / n1)
            for col in (2, 4):
                assert rows[1, col] - rows[0, col] == pytest.approx(expected, abs=1e-9)

    def test_gcwe_offset_matches_coefficient_ratio(self):
        co = coeffs_closed_form_student(6, 3.0)
        offset = 10 * math.log10(co.theta1 / co.sigma1)
        for experiment in ("eigenvectors", "projector"):
            res = run_experiment(fast_config(experiment=experiment, trials=2))
            rows = np.array(res.rows)
            np.testing.assert_allclose(rows[:, 2] - rows[:, 4], offset, atol=1e-9)

    def test_snr_theory_column(self):
        res = run_experiment(fast_config(experiment="snr_loss", trials=2))
        rows = np.array(res.rows)
        for row in rows:
            assert row[4] == pytest.approx(10 * math.log10(1 - 2 / row[0]), abs=1e-12)

    def test_snr_small_sample_reference_level(self):
        # robust-estimator loss at n=40 lands near the -0.656 dB reference value;
        # the exact level depends mildly on the (seeded) factor-model draw
        res = run_experiment(
            ExperimentConfig(experiment="snr_loss", n_grid=(40,), trials=1500, seed=52040)
        )
        assert res.rows[0][1] == pytest.approx(-0.656, abs=0.1)
        assert res.rows[0][3] < res.rows[0][1] - 0.3  # plain covariance is far worse here


class TestFailurePolicy:
    def test_crlb_scm_runs_where_theta1_estimate_is_negative(self):
        # at this seed the Monte Carlo theta1 of the scm weight comes out negative; crlb never uses it
        cfg = ExperimentConfig(experiment="crlb", estimator="scm", n_grid=(40,), trials=1, seed=989739967)
        res = run_experiment(cfg)
        assert res.metadata["excluded"] == "none"
        assert "theta1" not in res.metadata

    def test_singular_scm_sample_excluded(self, monkeypatch):
        # a zero row makes the SCM singular: the trial is excluded as a NumericError, as the solver excluded it
        real = exp.sample_coupled
        calls = [0]

        def zero_row_once(*args):
            cs = real(*args)
            calls[0] += 1
            if calls[0] == 1:
                cs.Z[0] = 0
            return cs

        monkeypatch.setattr(exp, "sample_coupled", zero_row_once)
        res = run_experiment(fast_config(experiment="crlb", estimator="scm", n_grid=(50,), trials=100))
        assert res.metadata["excluded"] == "50:1"
        assert all(math.isfinite(v) for v in res.rows[0])

    def test_campaign_error_when_solver_cannot_run(self, monkeypatch):
        # 2 of 150 trials fail their solve: 1.3% exceeds the 1% abort threshold
        fail_first_trials(monkeypatch, 2)
        with pytest.raises(CampaignError, match="2/150"):
            run_experiment(fast_config(n_grid=(50,), trials=150))

    def test_non_positive_intrinsic_bias_names_its_grid_point(self):
        # at 10 trials the robust estimate's mean of -tr log(whitened)/p is negative at n = 50
        pattern = r"at n=50: mean -0\.0094 for the estimate, 0\.0482 for the core SCM, over 10 trials"
        with pytest.raises(CampaignError, match=pattern):
            run_experiment(fast_config(experiment="intrinsic_bias"))

    def test_failed_trials_are_reported(self, monkeypatch):
        fail_first_trials(monkeypatch, 1)  # 1 of 150 trials fails: within the 1% threshold
        res = run_experiment(fast_config(n_grid=(50,), trials=150))
        assert res.metadata["excluded"] == "50:1"

    def test_campaign_budget_finishes_a_long_solve(self, monkeypatch):
        # on the Anderson sweeps, to which Newton's method hands every sample it does not certify, trial 19
        # needs 225 sweeps, more than the public default of 200; the campaign's budget finishes it
        monkeypatch.setattr(estimators, "_newton_stack", lambda spec, Z, w, S, opts: [None] * len(Z))
        cfg = ExperimentConfig(experiment="projector", p=20, n_grid=(21,), trials=20, seed=1)
        assert run_experiment(cfg).metadata["excluded"] == "none"
        camp = exp._Campaign(cfg)
        cs = sample_coupled(camp.dist, camp.Sigma, 21, RandomStream(1, 19))
        with pytest.raises(ConvergenceError, match="within 200 iterations"):
            fixed_point_solve(camp.spec, cs.Z, SolverOptions())


class TestEigenvalueStatistic:
    def test_eigensolver_failure_excludes_that_trial_only(self, monkeypatch):
        # each trial takes eigvalsh of its robust estimate, then of its core SCM: call 3 is trial 1's estimate
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def fail_on_trial_one(M):
            calls.append(M)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("injected: no convergence")
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_trial_one)
        res = run_experiment(fast_config(n_grid=(50,), trials=100))
        assert res.metadata["excluded"] == "50:1"
        assert len(calls) == 2 * 100 - 1
        assert all(math.isfinite(v) for v in res.rows[0])

    def test_true_scatter_evd_only_for_eigen_experiments(self, monkeypatch):
        # crlb and intrinsic_bias read no eigendecomposition of the true scatter
        monkeypatch.setattr(exp, "hermitian_evd", lambda *args: pytest.fail("hermitian_evd called"))
        for experiment in ("crlb", "intrinsic_bias"):
            res = run_experiment(fast_config(experiment=experiment, n_grid=(50,), trials=30))
            assert res.metadata["excluded"] == "none"


class TestScmEstimator:
    def test_csv_bytes_equal_unit_weight_solve(self, tmp_path, monkeypatch):
        # the direct SCM estimate writes the bytes that the unit-weight fixed-point solve wrote
        cfg = dict(experiment="crlb", estimator="scm", n_grid=(40, 228), trials=4, seed=5)
        write_csv(run_experiment(ExperimentConfig(**cfg)), tmp_path / "direct.csv")
        monkeypatch.setattr(exp, "_pd_scm", lambda Z: fixed_point_solve(gaussian_spec(), Z))
        write_csv(run_experiment(ExperimentConfig(**cfg)), tmp_path / "solved.csv")
        assert (tmp_path / "direct.csv").read_bytes() == (tmp_path / "solved.csv").read_bytes()

    def test_setup_peak_memory(self):
        # the scale's 4M pinned draws are streamed: the one-shot sample alone took 30.5 MiB
        config = ExperimentConfig(experiment="crlb", estimator="scm", n_grid=(40,), trials=1, seed=5)
        exp._scm_sigma.cache_clear()  # so that this set-up calibrates rather than reads the memo
        tracemalloc.start()
        try:
            exp._Campaign(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_scale_calibrated_once_per_d_and_p(self, tmp_path, monkeypatch):
        calls = []

        def counting(dist, p):
            calls.append((dist.dof, p))
            return estimators.unit_weight_sigma(dist, p)

        monkeypatch.setattr(exp, "unit_weight_sigma", counting)
        exp._scm_sigma.cache_clear()
        cfg = fast_config(experiment="crlb", estimator="scm", n_grid=(50,), trials=3)
        for name in ("first.csv", "second.csv"):
            write_csv(run_experiment(cfg), tmp_path / name)
        assert calls == [(3.0, 6)]  # the second campaign reads the memo
        exp._scm_sigma.cache_clear()
        write_csv(run_experiment(cfg), tmp_path / "cleared.csv")
        assert calls == [(3.0, 6)] * 2
        csv = (tmp_path / "first.csv").read_bytes()
        assert (tmp_path / "second.csv").read_bytes() == csv == (tmp_path / "cleared.csv").read_bytes()

        # another d or p calibrates again
        exp._Campaign(fast_config(experiment="crlb", estimator="scm", d=5.0))
        exp._Campaign(fast_config(experiment="crlb", estimator="scm", p=7))
        assert calls[2:] == [(5.0, 6), (3.0, 7)]

        # a failed calibration is not remembered: the next call calibrates and fails again
        def failing(dist, p):
            calls.append((dist.dof, p))
            raise CalibrationError("no root")

        monkeypatch.setattr(exp, "unit_weight_sigma", failing)
        for _ in range(2):
            with pytest.raises(CalibrationError):
                exp._scm_sigma(4.5, 6)
        assert calls[4:] == [(4.5, 6)] * 2

    @pytest.mark.parametrize("experiment", ["eigenvectors", "projector"])
    def test_theory_offset_is_exact(self, experiment):
        # both theory columns are linear in their first coefficient: theta1 / sigma1 = (d - 2) / 2
        res = run_experiment(fast_config(experiment=experiment, estimator="scm", d=7.0, trials=2))
        offsets = [row[2] - row[4] for row in res.rows]
        assert offsets == pytest.approx([10 * math.log10(2.5)] * len(res.rows), abs=1e-12)

    def test_no_fixed_point_solve(self, monkeypatch):
        monkeypatch.setattr(exp, "fixed_point_solve", lambda *args: pytest.fail("the scm estimator iterated"))
        monkeypatch.setattr(exp, "fixed_point_solve_stack", lambda *args: pytest.fail("the scm estimator iterated"))
        res = run_experiment(fast_config(experiment="crlb", estimator="scm", n_grid=(50,), trials=2))
        assert res.metadata["excluded"] == "none"


class TestStudentEstimator:
    def test_one_stack_solve_per_block(self, monkeypatch):
        real_stack = exp.fixed_point_solve_stack
        calls = []

        def stack(spec, Z, opts):
            calls.append(len(Z))
            return real_stack(spec, Z, opts)

        monkeypatch.setattr(exp, "fixed_point_solve", lambda *args: pytest.fail("a trial was solved alone"))
        monkeypatch.setattr(exp, "fixed_point_solve_stack", stack)
        cfg = fast_config(experiment="crlb", n_grid=NEWTON_GRID, trials=30)
        res = run_experiment(cfg)
        assert res.metadata["excluded"] == "none"
        sizes = [estimators.stack_size(cfg.p, n) for n in cfg.n_grid]
        assert len(calls) == sum(-(-cfg.trials // size) for size in sizes) > len(cfg.n_grid)


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "ces-evd" in capsys.readouterr().out

    def test_run_with_config_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = snr_loss\np = 6\nd = 3\nn_grid = 50\ntrials = 5\nseed = 1\nr = 2\nlambda_r = 60, 30\n"
        )
        out = tmp_path / "res.csv"
        svg = tmp_path / "res.svg"
        code = main(["run", "--config", str(cfg), "--trials", "6", "--out", str(out), "--svg", str(svg)])
        assert code == 0
        columns, data, metadata = read_csv(out)
        assert metadata["trials"] == "6"
        assert data.shape[0] == 1
        assert svg.exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = nonsense\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experimnt = crlb\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_campaign_error_exit_code(self, tmp_path, monkeypatch):
        fail_first_trials(monkeypatch, 1)
        out = tmp_path / "r.csv"
        code = main([
            "run", "--experiment", "eigenvalues", "--p", "6", "--n_grid", "50",
            "--trials", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()

    def test_library_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # a library error that is neither a configuration nor a campaign error: exit 1, no CSV
        def fail(*args):
            raise CalibrationError("the scale equation has no root")

        monkeypatch.setattr(exp, "_scm_sigma", fail)
        out = tmp_path / "r.csv"
        code = main([
            "run", "--experiment", "crlb", "--estimator", "scm", "--p", "6", "--n_grid", "50",
            "--trials", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_excluded_trials_are_printed(self, tmp_path, monkeypatch, capsys):
        fail_first_trials(monkeypatch, 1)  # 1 of 150 trials fails: within the 1% threshold
        out = tmp_path / "r.csv"
        code = main([
            "run", "--experiment", "eigenvalues", "--p", "6", "--n_grid", "50",
            "--trials", "150", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        assert "excluded trials: 50:1\n" in capsys.readouterr().out
        assert out.exists()

    def test_grid_not_above_p_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exp, "sample_coupled", lambda *args: pytest.fail("a trial ran"))
        out = tmp_path / "r.csv"
        code = main([
            "run", "--experiment", "eigenvalues", "--p", "6", "--n_grid", "4",
            "--trials", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_empty_grid_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exp, "sample_coupled", lambda *args: pytest.fail("a trial ran"))
        out = tmp_path / "r.csv"
        code = main([
            "run", "--experiment", "eigenvalues", "--p", "6", "--n_grid", "",
            "--trials", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, target", [
        pytest.param("--out", "missing/r", id="--out"),
        pytest.param("--svg", "missing/r", id="--svg"),
        pytest.param("--out", ".", id="--out-directory"),
        pytest.param("--svg", ".", id="--svg-directory"),
    ])
    def test_missing_output_directory_exit_code(self, tmp_path, monkeypatch, flag, target):
        # a missing directory, or a path that is a directory: rejected before the campaign, not by an
        # OSError after it; the last of a repeated flag wins
        monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail("the campaign ran"))
        code = main([
            "run", "--experiment", "eigenvalues", "--p", "6", "--n_grid", "50", "--trials", "2", "--seed", "1",
            "--out", str(tmp_path / "r.csv"), "--svg", str(tmp_path / "r.svg"), flag, str(tmp_path / target),
        ])
        assert code == 2
        assert not any(tmp_path.iterdir())

    def test_scm_without_theory_exit_code(self, tmp_path, monkeypatch):
        # the memoized entry is patched, so that a scale remembered from an earlier campaign cannot hide a set-up
        monkeypatch.setattr(exp, "_scm_sigma", lambda *args: pytest.fail("the scale was calibrated"))
        out = tmp_path / "r.csv"
        code = main([
            "run", "--experiment", "eigenvalues", "--estimator", "scm", "--d", "4", "--p", "6",
            "--n_grid", "50", "--trials", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--gamma2", "0"), ("--lambda_r", "20,40"), ("--d", "inf"),
                                             ("--seed", "-1"), ("--seed", str(2**64 + 1))])
    def test_bad_value_exit_code_before_any_set_up(self, tmp_path, monkeypatch, flag, value):
        # rejected before the scale calibration (or a read of its memo) and before any trial
        monkeypatch.setattr(exp, "_scm_sigma", lambda *args: pytest.fail("the scale was calibrated"))
        monkeypatch.setattr(exp, "sample_coupled", lambda *args: pytest.fail("a trial ran"))
        out = tmp_path / "r.csv"
        code = main([
            "run", "--experiment", "projector", "--estimator", "scm", "--d", "6", "--p", "6", "--r", "2",
            "--lambda_r", "60,30", "--n_grid", "50", "--trials", "2", "--seed", "1", "--out", str(out), flag, value,
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", ["--p 0", "--d -1", "--d inf", "--draws 10", "--draws 0"])
    def test_coeffs_input_error_exit_code(self, monkeypatch, args):
        monkeypatch.setattr(asymptotics, "coupled_modular_variate_chunks", lambda *a: pytest.fail("a draw was made"))
        assert main(["coeffs", "--p", "4", "--d", "3", *args.split()]) == 2

    def test_coeffs_command(self, capsys):
        assert main(["coeffs", "--p", "4", "--d", "3", "--draws", "200000"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out and "monte carlo" in out
