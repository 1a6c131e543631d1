"""Seeded Monte Carlo campaigns for the six desk-scale experiments, with CSV/SVG output.

Each trial draws a coupled sample, computes the robust estimate and the
Gaussian-core sample covariance from the same randomness, and reduces them to
the experiment's statistics, one trial at a time. Each experiment is one entry
of `_EXPERIMENT_TABLE`: its CSV columns, set-up, per-trial statistic and theory
row. Per-trial streams derive from (seed, grid index, trial index). The trials
of a grid point run in fixed blocks, in order, whose robust estimates come from
one `fixed_point_solve_stack` call. Only Newton's method solves a block as a
stack, so a block holds several trials only at sample sizes Newton solves;
above its crossover every block is one trial. A trial's result depends neither
on its block nor on the block size, so results are a pure function of the
configuration.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .asymptotics import (
    coeffs_closed_form_student,
    coeffs_numeric,
    eigenvalue_cov_trace,
    eigenvector_cov_xi_trace,
)
from .errors import CampaignError, CesEvdError, ConfigError, DegeneracyError, NumericError
from .estimators import (
    _uses_newton,
    SolverOptions,
    fixed_point_solve,  # not called here: kept because perfbench's tracer swaps this name on the module
    fixed_point_solve_stack,
    gaussian_spec,
    scm,
    solve_sigma,  # not called here: kept because perfbench's tracer swaps this name on the module
    student_spec,
    unit_weight_sigma,
)
from .linalg import hermitian_evd, phase_align, toeplitz_scatter
from .lowrank import (
    build_factor_model,
    principal_projector,
    projector_cov_sigma_pi,
    snr_loss,
    snr_loss_theory,
    steering_vector,
)
from .riemannian import ab_crlb, alpha_beta, biased_crlb_scm, ces_crb, eta, nat_distance, whitened_spectrum
from .sampling import CesDistribution, RandomStream, sample_coupled

ESTIMATORS = ("student", "scm")

# Reserved stream indices, disjoint from per-trial indices (n_idx << 32 | trial).
_MODEL_STREAM = (1 << 62) + 1
_STEER_STREAM = (1 << 62) + 2
_COEFF_STREAM = (1 << 62) + 3

# Metadata keys never written to CSV so identical configs give identical bytes.
_VOLATILE_METADATA = ("wall_time_s",)

_DEFAULT_N_GRID = (40, 62, 95, 147, 228, 352, 543, 838, 1295, 2000)

# Working set of one Newton block of trials solved together; see `_block_trials`. Larger blocks
# solve faster but raise peak memory: 640 KiB adds about 0.7 MB to an eig_small_n campaign.
_BLOCK_BYTES = 640 << 10

# The campaigns' solver budget: twice the public default, from the SCM start. A trial that needs
# more than 200 sweeps (a few do near n = p) still gets its estimate.
_SOLVER = SolverOptions(max_iter=400)


@dataclass
class ExperimentConfig:
    experiment: str = "eigenvalues"
    p: int = 20
    d: float = 3.0
    rho_mod: float = 0.9
    rho_phase: float = math.pi / 4
    n_grid: tuple[int, ...] = _DEFAULT_N_GRID
    trials: int = 1000
    seed: int = 20080
    estimator: str = "student"
    r: int = 5
    gamma2: float = 1.0
    lambda_r: tuple[float, ...] = (100.0, 80.0, 60.0, 40.0, 20.0)
    eigvec_index: int = 1
    out: str | None = None
    svg: str | None = None
    threads: int = 1  # accepted and checked, with no effect: every campaign runs its blocks in order

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}; choose from {ESTIMATORS}")
        for name in ("p", "n_grid", "trials", "seed", "r", "eigvec_index", "threads"):
            value = getattr(self, name)
            for v in value if name == "n_grid" else (value,):
                try:
                    operator.index(v)  # a float such as 50.0 would fail later, in range() or an array shape
                except TypeError:
                    raise ConfigError(f"{name} takes integers only, got {v!r}") from None
        if self.p < 2:
            raise ConfigError("p must be >= 2")
        if not 0 < self.d < math.inf:
            raise ConfigError(f"d must be finite and > 0, got {self.d:g}")
        if not 0 <= self.rho_mod < 1:
            raise ConfigError("rho_mod must be in [0, 1)")
        if not math.isfinite(self.rho_phase):
            raise ConfigError(f"rho_phase must be finite, got {self.rho_phase:g}")
        if not self.n_grid:
            raise ConfigError("n_grid must name at least one sample size")
        if any(n <= self.p for n in self.n_grid):
            raise ConfigError(f"n_grid entries must exceed p={self.p}: the estimators need n > p samples")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if not 1 <= self.trials < 2**31:
            raise ConfigError("trials must be in [1, 2^31)")
        if not 0 <= self.seed < 2**64:  # a stream keys on the seed's low 64 bits: others would alias
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not 1 <= self.eigvec_index <= self.p:
            raise ConfigError(f"eigvec_index must be in 1..{self.p}")
        experiment = _EXPERIMENT_TABLE[self.experiment]
        if experiment.factor_model:
            if not 1 <= self.r < self.p:
                raise ConfigError(f"rank r must satisfy 1 <= r < p, got r={self.r}, p={self.p}")
            if len(self.lambda_r) != self.r:
                raise ConfigError(f"lambda_r must have length r={self.r}, got {len(self.lambda_r)}")
            lam = self.lambda_r
            if not all(0 < x < math.inf for x in lam) or any(b >= a for a, b in zip(lam, lam[1:])):
                raise ConfigError(f"lambda_r must be finite, positive and strictly descending, got {lam}")
            if not 0 < self.gamma2 < math.inf:
                raise ConfigError(f"gamma2 must be finite and > 0, got {self.gamma2:g}")
        # The scm estimator's scale p / E[Q] is finite only for d > 2, and its theta1 = (d-2)/(d-4) only for d > 4.
        d_min = 4 if experiment.coeffs else 2
        if self.estimator == "scm" and not self.d > d_min:
            raise ConfigError(f"estimator 'scm' needs d > {d_min} for {self.experiment!r}, got d={self.d:g}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]
    metadata: dict


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


def _block_trials(p: int, n: int) -> int:
    """Trials per block at sample size n: one above Newton's crossover, else as many as fit in _BLOCK_BYTES.

    The Anderson sweeps solve one sample at a time, so only Newton's method
    gains from a block. A Newton member holds two n x n arrays, the complex
    Gram matrix of its whitened sample and the real Jacobian (24 n^2 bytes),
    six p x p complex arrays for its iterates and about five p x n complex
    arrays: its coupled sample, its row of the stack (copied again when a
    stack-mate finishes and the stack is compacted) and the step temporaries.
    At p = 20 that gives 4 and 2 trials at n = 40 and 62.
    """
    if not _uses_newton(p, n):
        return 1
    member = 24 * n * n + 16 * p * (6 * p + 5 * n)
    return max(1, _BLOCK_BYTES // member)


def _or_error(fn, *args):
    """fn(*args), or the NumericError it raises."""
    try:
        return fn(*args)
    except NumericError as exc:
        return exc


@functools.cache
def _scm_sigma(d: float, p: int) -> float:
    """The `scm` estimator's scale for Student-t data with d degrees of freedom, calibrated once per process.

    `unit_weight_sigma` draws the same 4M pinned variates for every call at
    (d, p) and returns the same float whatever its piece size, so a later
    campaign at the same (d, p) reuses it with the same bits. A
    CalibrationError is raised again, not cached.
    """
    return unit_weight_sigma(CesDistribution.student_t(d), p)


def _pd_scm(Z):
    """The unit weight's fixed point, which is exactly the SCM, computed without iterating.

    A sample whose SCM is not positive definite is degenerate (DegeneracyError),
    as it is for the solver, whose Cholesky factorization rejects it.
    """
    S = scm(Z)
    try:
        np.linalg.cholesky(S.entries)
    except np.linalg.LinAlgError:
        raise DegeneracyError("sample covariance is not positive definite") from None
    return S


class _Campaign:
    """Per-campaign context: model, estimator spec, theory coefficients and the experiment's set-up values.

    `metadata` collects the set-up values that go into the CSV metadata, in order.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.experiment = _EXPERIMENT_TABLE[config.experiment]
        self.dist = CesDistribution.student_t(config.d)
        p = config.p

        if config.estimator == "student":
            self.spec = student_spec(p, config.d)
        else:
            self.spec = gaussian_spec().with_sigma(_scm_sigma(config.d, p))
        self.sigma_scale = self.spec.sigma
        self.metadata = {"sigma_scale": self.sigma_scale}
        if self.experiment.coeffs:
            if config.estimator == "student":
                co = coeffs_closed_form_student(p, config.d)
            else:
                co = coeffs_numeric(self.spec, self.dist, p, stream=RandomStream(config.seed, _COEFF_STREAM))
            self.coeffs = co
            self.metadata.update(theta1=co.theta1, theta2=co.theta2, sigma1=co.sigma1, sigma2=co.sigma2)

        if self.experiment.factor_model:
            rng = RandomStream(config.seed, _MODEL_STREAM).generator()
            raw = rng.standard_normal((2, p, config.r))
            Ur, _ = np.linalg.qr(raw[0] + 1j * raw[1])
            self.model = build_factor_model(Ur, np.asarray(config.lambda_r, dtype=float), config.gamma2)
            self.Sigma = self.model.sigma
        else:
            self.Sigma = toeplitz_scatter(p, config.rho_mod * np.exp(1j * config.rho_phase))
        self.Sigma.sqrt  # the sampler's root, cached on the scatter here rather than in the first block
        self.experiment.setup(self)

    def block(self, n: int, streams: list) -> list:
        """Statistics of a block of trials, one stream each; a NumericError for an excluded trial.

        The Student estimates of the block come from one
        `fixed_point_solve_stack` call with the `_SOLVER` budget; a trial that
        call cannot finish is excluded with its ConvergenceError or
        DegeneracyError, and a trial whose statistic raises a NumericError
        with that. Each trial's sample, estimate and statistics are those it
        has on its own.
        """
        samples = [sample_coupled(self.dist, self.Sigma, n, stream) for stream in streams]
        if self.config.estimator == "student":
            estimates = fixed_point_solve_stack(self.spec, [cs.Z for cs in samples], _SOLVER)
        else:
            estimates = [_or_error(_pd_scm, cs.Z) for cs in samples]
        stat = self.experiment.stat
        return [SM if isinstance(SM, NumericError) else _or_error(stat, self, cs, SM)
                for cs, SM in zip(samples, estimates)]


@dataclass(frozen=True)
class _Experiment:
    """One experiment: CSV columns, statistics per trial, theory row and set-up.

    `stat(camp, cs, SM)` gives one trial's `n_stats` statistics from its coupled sample
    and robust estimate, or raises the NumericError that excludes the trial;
    `row(camp, n, means)` turns the trial means at n into the CSV row; `setup(camp)` runs
    once, after the scatter, the factor model (if `factor_model`) and the coefficients
    theta/sigma (if `coeffs`). These functions look up what they call in this module
    when they run, since tests and the tracer swap it.
    """

    columns: tuple[str, ...]
    n_stats: int
    stat: Callable
    row: Callable
    setup: Callable = lambda camp: None
    factor_model: bool = False
    coeffs: bool = False


def _mse_row(limit):
    """Row of an MSE experiment; `limit(camp, c1, c2)` is n times its limiting MSE for coefficients (c1, c2)."""

    def row(camp, n, means):
        co = camp.coeffs
        t_std = limit(camp, co.theta1, co.theta2) / n
        t_gcwe = limit(camp, co.sigma1, co.sigma2) / n
        return (n, _db(means[0]), _db(t_std), _db(means[1]), _db(t_gcwe))

    return row


def _true_evd(camp) -> None:
    camp.evd_true = hermitian_evd(camp.Sigma)


def _eigenvalue_trial(camp, cs, SM) -> tuple[float, float]:
    """Only eigenvalues are needed, so eigvalsh of both estimates; a failed eigensolver excludes the trial."""
    lam, sig = camp.evd_true.eigenvalues, camp.sigma_scale
    try:
        lm = np.linalg.eigvalsh(SM.entries)[::-1]
        lg = np.linalg.eigvalsh(scm(cs.X).entries)[::-1]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from None
    return (float(np.sum((sig * lm - lam) ** 2)), float(np.sum((sig * lm - lg) ** 2)))


def _eigenvector_trial(camp, cs, SM) -> tuple[float, float]:
    j = camp.config.eigvec_index
    uj = camp.evd_true.eigenvectors[:, j - 1]
    uM = hermitian_evd(SM).eigenvectors[:, j - 1]
    uG = hermitian_evd(scm(cs.X)).eigenvectors[:, j - 1]
    perp = lambda v: v - uj * np.vdot(uj, v)
    diff = phase_align(uM, uj) - phase_align(uG, uj)
    return (float(np.linalg.norm(perp(uM)) ** 2), float(np.linalg.norm(perp(diff)) ** 2))


def _projector_trial(camp, cs, SM) -> tuple[float, float]:
    Pi = camp.model.projector.entries
    PiM = principal_projector(SM, camp.config.r).entries
    PiG = principal_projector(scm(cs.X), camp.config.r).entries
    return (float(np.linalg.norm(PiM - Pi) ** 2), float(np.linalg.norm(PiM - PiG) ** 2))


def _intrinsic_bias_trial(camp, cs, SM) -> tuple[float, float]:
    """-trace(Sigma^{-1} logmap)/p of both estimates, via their whitened eigenvalues."""
    scalar = lambda S: float(-np.mean(np.log(whitened_spectrum(camp.Sigma, S))))
    return (scalar(camp.sigma_scale * SM.entries), scalar(scm(cs.X).entries))


def _intrinsic_bias_row(camp, n, means) -> tuple:
    if means[0] <= 0 or means[1] <= 0:
        raise CampaignError(
            f"empirical intrinsic bias came out non-positive at n={n}: mean {means[0]:.3g} for the estimate, "
            f"{means[1]:.3g} for the core SCM, over {camp.config.trials} trials; increase trials"
        )
    return (n, _db(means[0]), _db(means[1]), _db(eta(camp.config.p, n)))


def _crlb_setup(camp) -> None:
    camp.alpha, camp.beta = alpha_beta(camp.dist, camp.config.p)
    camp.metadata.update(alpha=camp.alpha, beta=camp.beta)


def _crlb_row(camp, n, means) -> tuple:
    p, a, b = camp.config.p, camp.alpha, camp.beta
    return (n, _db(means[0]), _db(ces_crb(p, n, a, b).value), _db(ab_crlb(p, n, a, b).value),
            _db(biased_crlb_scm(p, n).value))


def _steering_setup(camp) -> None:
    camp.steer = steering_vector(camp.model, RandomStream(camp.config.seed, _STEER_STREAM))


def _snr_loss_trial(camp, cs, SM) -> tuple[float, float, float]:
    """Loss of the filters built from the robust estimate, the core SCM and the plain SCM of the data."""
    eye = np.eye(camp.config.p)
    loss = lambda S: snr_loss(eye - principal_projector(S, camp.config.r).entries, camp.model, camp.steer)
    return (loss(SM), loss(scm(cs.X)), loss(scm(cs.Z)))


_MSE_COLUMNS = ("n", "mse_emp_std_db", "mse_theory_std_db", "mse_emp_gcwe_db", "mse_theory_gcwe_db")

# name -> (columns, n_stats, stat, row, setup, factor_model, coeffs)
_EXPERIMENT_TABLE = {
    "eigenvalues": _Experiment(
        _MSE_COLUMNS, 2, _eigenvalue_trial,
        _mse_row(lambda camp, c1, c2: eigenvalue_cov_trace(camp.evd_true.eigenvalues, c1, c2)),
        _true_evd, coeffs=True,
    ),
    "eigenvectors": _Experiment(
        _MSE_COLUMNS, 2, _eigenvector_trial,
        _mse_row(lambda camp, c1, c2: eigenvector_cov_xi_trace(camp.evd_true, camp.config.eigvec_index, c1)),
        _true_evd, coeffs=True,
    ),
    "projector": _Experiment(
        _MSE_COLUMNS, 2, _projector_trial,
        _mse_row(lambda camp, c1, c2: c1 * projector_cov_sigma_pi(camp.model)),
        factor_model=True, coeffs=True,
    ),
    "intrinsic_bias": _Experiment(
        ("n", "eta_emp_est_db", "eta_emp_gcwe_db", "eta_theory_db"), 2,
        _intrinsic_bias_trial, _intrinsic_bias_row,
    ),
    "crlb": _Experiment(
        ("n", "dnat2_emp_db", "crlb_ces_db", "crlb_ab_db", "crlb_biased_gauss_db"), 1,
        lambda camp, cs, SM: (nat_distance(camp.Sigma, camp.sigma_scale * SM.entries) ** 2,),
        _crlb_row, _crlb_setup,
    ),
    "snr_loss": _Experiment(
        ("n", "snr_emp_est_db", "snr_emp_gcwe_db", "snr_emp_scm_db", "snr_theory_db"), 3,
        _snr_loss_trial,
        lambda camp, n, m: (n, _db(m[0]), _db(m[1]), _db(m[2]), _db(snr_loss_theory(camp.config.r, n))),
        _steering_setup, factor_model=True,
    ),
}
EXPERIMENTS = tuple(_EXPERIMENT_TABLE)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one campaign, block after block; deterministic given `config`."""
    config.validate()
    start = time.perf_counter()
    camp = _Campaign(config)
    stats = np.full((len(config.n_grid), config.trials, camp.experiment.n_stats), np.nan)
    excluded: dict[int, int] = {}

    for i, n in enumerate(config.n_grid):
        size = _block_trials(config.p, n)
        streams = [RandomStream(config.seed, (i << 32) | k) for k in range(config.trials)]
        results = [res for k in range(0, config.trials, size) for res in camp.block(n, streams[k:k + size])]
        bad = 0
        for k, res in enumerate(results):
            if isinstance(res, NumericError):
                bad += 1
            else:
                stats[i, k, :] = res
        if bad:
            excluded[n] = bad
        if bad > 0.01 * config.trials:
            raise CampaignError(
                f"{bad}/{config.trials} trials failed at n={n} (more than 1%); aborting campaign"
            )

    rows = [camp.experiment.row(camp, n, np.nanmean(stats[i], axis=0)) for i, n in enumerate(config.n_grid)]
    metadata = {f.name: getattr(config, f.name) for f in fields(config)}
    metadata.update(camp.metadata)
    metadata["excluded"] = ",".join(f"{n}:{c}" for n, c in excluded.items()) or "none"
    metadata["wall_time_s"] = time.perf_counter() - start
    return ExperimentResult(config=config, columns=camp.experiment.columns, rows=rows, metadata=metadata)


# ---- output ----------------------------------------------------------------


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (tuple, list)):
        return ",".join(_format_value(x) for x in v)
    return str(v)


def write_csv(result: ExperimentResult, path) -> None:
    """Named columns, one row per n, 17 significant digits, '#' metadata lines.

    Volatile metadata (wall time) is omitted so identical configurations
    produce byte-identical files.
    """
    lines = [f"# {k} = {_format_value(v)}" for k, v in result.metadata.items() if k not in _VOLATILE_METADATA]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


def read_csv(path) -> tuple[tuple[str, ...], np.ndarray, dict[str, str]]:
    """Inverse of `write_csv` for the numeric payload: (columns, rows, metadata)."""
    metadata: dict[str, str] = {}
    columns: tuple[str, ...] | None = None
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].partition("=")
                    metadata[key.strip()] = value.strip()
                elif columns is None:
                    columns = tuple(line.split(","))
                else:
                    rows.append(tuple(float(v) for v in line.split(",")))
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path!r}: {exc}") from exc
    if columns is None:
        raise CesEvdError(f"no header line in {path!r}")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(columns)))
    return columns, data, metadata


_PALETTE = ("#c0392b", "#2c3e50", "#2980b9", "#27ae60", "#8e44ad", "#d35400")


def render_svg(result: ExperimentResult, path) -> None:
    """Self-contained log-x line chart with one polyline per data column."""
    width, height = 880, 560
    ml, mr, mt, mb = 70, 30, 40, 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="15">'
        f"{result.config.experiment} (p={result.config.p}, d={result.config.d:g}, "
        f"trials={result.config.trials})</text>",
    ]
    data = np.array([[float(v) for v in row] for row in result.rows])
    if data.size:
        xs = np.log10(data[:, 0])
        x_lo, x_hi = (xs.min(), xs.max()) if xs.min() < xs.max() else (xs.min() - 0.5, xs.max() + 0.5)
        ys = data[:, 1:]
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def px(x):
            return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

        def py(y):
            return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

        for yt in np.linspace(y_lo, y_hi, 6):
            parts.append(
                f'<line x1="{ml}" y1="{py(yt):.1f}" x2="{width - mr}" y2="{py(yt):.1f}" '
                f'stroke="#dddddd"/>'
                f'<text x="{ml - 6}" y="{py(yt) + 4:.1f}" text-anchor="end">{yt:.1f}</text>'
            )
        for n in data[:, 0]:
            x = px(math.log10(n))
            parts.append(
                f'<line x1="{x:.1f}" y1="{mt}" x2="{x:.1f}" y2="{height - mb}" stroke="#eeeeee"/>'
                f'<text x="{x:.1f}" y="{height - mb + 16}" text-anchor="middle">{int(n)}</text>'
            )
        for ci, name in enumerate(result.columns[1:]):
            color = _PALETTE[ci % len(_PALETTE)]
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, data[:, ci + 1]))
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
            ly = mt + 16 * ci + 10
            parts.append(
                f'<line x1="{width - mr - 170}" y1="{ly}" x2="{width - mr - 140}" y2="{ly}" '
                f'stroke="{color}" stroke-width="1.5"/>'
                f'<text x="{width - mr - 134}" y="{ly + 4}">{name}</text>'
            )
    parts.append(
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>'
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>'
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle">n (log scale)</text>'
        f'<text x="16" y="{height / 2:.1f}" transform="rotate(-90 16 {height / 2:.1f})" '
        f'text-anchor="middle">dB</text>'
    )
    parts.append("</svg>")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path!r}: {exc}") from exc


# ---- configuration files ----------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` file; '#' comments and blank lines ignored."""
    mapping: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                mapping[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return mapping


def _coerce(name: str, kind: str, value):
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind in ("int_list", "float_list"):
            if isinstance(value, str):
                value = value.replace(",", " ").split()
            return tuple((int if kind == "int_list" else float)(v) for v in value)
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {name!r}: cannot parse {value!r} as {kind}") from exc


_ANNOTATION_KINDS = {"int": "int", "float": "float", "str": "str", "str | None": "str",
                     "tuple[int, ...]": "int_list", "tuple[float, ...]": "float_list"}
# Config keys and CLI flags: the ExperimentConfig fields, in declaration order.
_FIELD_KINDS = {f.name: _ANNOTATION_KINDS[f.type] for f in fields(ExperimentConfig)}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a validated config from string-ish key/value pairs."""
    unknown = set(mapping) - set(_FIELD_KINDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: _coerce(k, _FIELD_KINDS[k], v) for k, v in mapping.items() if v is not None}
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


__all__ = [
    "EXPERIMENTS",
    "ESTIMATORS",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "write_csv",
    "read_csv",
    "render_svg",
    "parse_config_file",
    "config_from_mapping",
]
