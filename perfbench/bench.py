"""Measurement side of the benchmark: timed campaigns, fresh-process probes, traced runs.

Imported by run.py once `src/` is on the path.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import cesevd.experiments as experiments
import numpy as np
from cesevd import CesEvdError, ExperimentConfig, run_experiment, write_csv

import checks
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 7  # fresh CLI processes per run for setup_s
IMPORT_REPS = 5  # fresh processes per traced run for cli.import_s
KERNEL_REPS = 200  # bare products per kernel-floor timing
CONTRACT_TRIALS = 2  # solver-contract trials per grid point
# Workloads whose reference campaign is repeated at threads=2 (== nproc on the reference machine).
THREAD_CHECK = ("eig_small_n",)

LAYERS = ("sampling", "estimators", "linalg", "lowrank", "riemannian", "asymptotics")

RSS_PROBE = """\
import json, resource, sys
from cesevd import CesEvdError, ExperimentConfig, run_experiment, write_csv
cfg = json.loads(sys.argv[1])
cfg["n_grid"] = tuple(cfg["n_grid"])
try:
    write_csv(run_experiment(ExperimentConfig(**cfg)), sys.argv[2])
except CesEvdError:
    pass  # no CSV; the caller compares that with its own campaign's outcome
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

IMPORT_PROBE = """\
import time
t = time.perf_counter()
import cesevd.cli
print(time.perf_counter() - t)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=150)
    return time.perf_counter() - start, proc


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when nothing was measured (a campaign that failed before its first solve)."""
    return a / b if b else 0.0


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Bench:
    """One benchmark run of one workload: checks, then the timed (or traced) loop; CSVs go to `work`."""

    def __init__(self, workload: str, seed: int, seconds: float, work: str):
        self.workload = workload
        self.cfg = workloads.config_kwargs(workload, seed)
        self.config = ExperimentConfig(**self.cfg)
        self.trials = self.config.trials * len(self.config.n_grid)
        self.seconds = seconds
        self.work = work
        self.checks: dict = {}
        self.attempted = 0
        self.failed = 0
        self.first: bytes | None = None  # the first timed campaign's CSV

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def campaign(self, csv: str, run=run_experiment) -> float:
        """One timed campaign; counts its trials as attempted and its exclusions as failed.

        A campaign that raises a library error (an abort, or a failure in its
        set-up) leaves no CSV and counts all its trials as failed.
        """
        self.attempted += self.trials
        start = time.perf_counter()
        try:
            result = run(self.config)
            write_csv(result, csv)
        except CesEvdError as exc:
            self.failed += self.trials
            self.checks["campaign_error"] = f"{type(exc).__name__}: {exc}"
            if os.path.exists(csv):
                os.remove(csv)  # no stale CSV may pass the identity checks
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        excluded = result.metadata["excluded"]
        if excluded != "none":
            self.failed += sum(int(item.split(":")[1]) for item in excluded.split(","))
        return elapsed

    # ---- checks -------------------------------------------------------------

    def reference_checks(self) -> None:
        """Reference campaign at the default seed (also the warm-up), thread determinism, solver contract."""
        ref_cfg = workloads.config_kwargs(self.workload, workloads.DEFAULT_SEED)
        write_csv(run_experiment(ExperimentConfig(**ref_cfg)), self.path("reference.csv"))
        reference = os.path.join(HERE, "reference", f"{self.workload}.csv")
        self.checks["reference"] = checks.compare_payload(reference, self.path("reference.csv"))
        if self.workload in THREAD_CHECK:
            write_csv(run_experiment(ExperimentConfig(**dict(ref_cfg, threads=2))), self.path("threads2.csv"))
            self.checks["threads2_equal"] = checks.same_payload(self.path("reference.csv"), self.path("threads2.csv"))
        self.checks["solver_contract"] = checks.solver_contract(self.cfg, CONTRACT_TRIALS)

    def output(self, name: str) -> bytes | None:
        """Bytes of a CSV in the work directory; None when its campaign failed and wrote none."""
        try:
            with open(self.path(name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def failed_trials(self) -> int:
        """Excluded and aborted trials; every attempted trial once a correctness check has failed."""
        return self.failed if self.correct() else self.attempted

    def correct(self) -> bool:
        c = self.checks
        return bool(
            c["reference"]["ok"]
            and c.get("threads2_equal", True)
            and c["solver_contract"]["ok"]
            and c.get("repeat_identical", True)
            and c.get("setup_exit_ok", True)
            and c.get("rss_probe_identical", True)
            and c.get("traced_identical", True)
        )

    def timed_loop(self, times: list, per_step: int = 1):
        """Yield until one more step (of `per_step` campaigns) would overrun `--seconds`; at least once."""
        start = time.perf_counter()
        yield
        while time.perf_counter() - start + per_step * statistics.median(times) <= self.seconds:
            yield

    # ---- end-to-end ---------------------------------------------------------

    def run_untraced(self) -> dict:
        times = []
        for _ in self.timed_loop(times):
            times.append(self.campaign(self.path("campaign.csv")))
            if len(times) == 1:
                self.first = self.output("campaign.csv")
            elif self.output("campaign.csv") != self.first:
                self.checks["repeat_identical"] = False
        self.checks.setdefault("repeat_identical", True)

        setup = [self.setup_once() for _ in range(SETUP_REPS)]
        rss_kib = self.rss_once()
        self.raw = {"campaign_s": times, "setup_s": setup, "peak_rss_kib": rss_kib}
        return {
            "campaign_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
            "trial_success_frac": (1.0 - self.failed_trials() / self.attempted, "frac"),
        }

    def setup_once(self) -> float:
        """Wall time of a fresh CLI campaign cut to one trial at the smallest n.

        The CLI must exit 0, or fail too when this process's campaign failed.
        """
        c = self.cfg
        flags = dict(experiment=c["experiment"], estimator=c["estimator"], p=c["p"], d=repr(c["d"]),
                     rho_mod=repr(c["rho_mod"]), rho_phase=repr(c["rho_phase"]), n_grid=c["n_grid"][0],
                     trials=1, seed=c["seed"], threads=c["threads"], out=self.path("setup.csv"))
        cmd = [sys.executable, "-m", "cesevd.cli", "run"]
        for key, value in flags.items():
            cmd += [f"--{key}", str(value)]
        elapsed, proc = _run_child(cmd)
        if (proc.returncode == 0) != (self.first is not None):
            self.checks["setup_exit_ok"] = False
            self.checks["setup_stderr"] = proc.stderr[-2000:]
        return elapsed

    def rss_once(self) -> float:
        """Peak RSS (KiB) of a fresh process running one campaign; its CSV (or none) must match this process's."""
        cfg = dict(self.cfg, n_grid=list(self.cfg["n_grid"]))
        _, proc = _run_child([sys.executable, "-c", RSS_PROBE, json.dumps(cfg), self.path("rss.csv")])
        ok = proc.returncode == 0 and self.output("rss.csv") == self.first
        self.checks["rss_probe_identical"] = ok
        return float(proc.stdout.split()[-1]) if ok else 0.0

    # ---- traced -------------------------------------------------------------

    def run_traced(self) -> dict:
        tracer = Tracer()
        plain, traced = [], []
        for _ in self.timed_loop(plain, per_step=2):
            plain.append(self.campaign(self.path("campaign.csv")))
            with tracer.patch(experiments):
                traced.append(self.campaign(self.path("traced.csv"), run=tracer.wrap(experiments.run_experiment)))
            if self.output("campaign.csv") != self.output("traced.csv"):
                self.checks["traced_identical"] = False
        self.checks.setdefault("traced_identical", True)
        self.tracer = tracer

        p, n_max = self.config.p, max(self.config.n_grid)
        zzh_ms, sz_ms = kernel_floor(p, n_max)
        imports = []
        for _ in range(IMPORT_REPS):
            _, proc = _run_child([sys.executable, "-c", IMPORT_PROBE])
            imports.append(float(proc.stdout.split()[-1]))

        metrics = span_metrics(tracer, n_max, zzh_ms + sz_ms)
        metrics.update({
            "kernel.zzh.ms": (zzh_ms, "ms"),
            "kernel.sz.ms": (sz_ms, "ms"),
            "kernel.mflop_per_product_computed": (8 * p * p * n_max / 1e6, "MFLOP"),
            "cli.import_s": (statistics.median(imports), "s"),
            "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0, "frac"),
        })
        self.raw = {"campaign_s": plain, "traced_campaign_s": traced, "import_s": imports}
        return metrics


def kernel_floor(p: int, n: int) -> tuple[float, float]:
    """Median ms of a bare `Z @ Z^H` and `S @ Z`: the two complex products a solver sweep needs."""
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    S = Z @ Z.conj().T / n

    def median_ms(op) -> float:
        times = []
        for _ in range(KERNEL_REPS):
            start = time.perf_counter()
            op()
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    return median_ms(lambda: Z @ Z.conj().T), median_ms(lambda: S @ Z)


def span_metrics(tracer, n_max: int, floor_ms: float) -> dict:
    """Per-layer metrics from the spans of all traced campaigns (each rooted at run_experiment)."""
    kids = defaultdict(list)
    for span in tracer.spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    roots = tracer.roots()
    durations = defaultdict(list)
    shares = defaultdict(list)
    setup, self_time = [], []
    retries = failures = 0
    for r in roots:
        root, children = tracer.spans[r], kids[r]
        layer_time = defaultdict(float)
        last_failed = False
        for s in children:
            durations[s.name].append(s.duration)
            layer_time[s.layer] += s.duration
            if s.name == "sample_coupled":
                last_failed = False
            elif s.name == "fixed_point_solve":
                retries += last_failed
                failures += s.error is not None
                last_failed = s.error is not None
        for layer in LAYERS:
            shares[layer].append(layer_time[layer] / root.duration)
        first_sample = next((s.start for s in children if s.name == "sample_coupled"), root.end)
        setup.append(first_sample - root.start)
        self_time.append(root.duration - sum(s.duration for s in children))

    solves = [s for s in tracer.spans if s.name == "fixed_point_solve"]
    at_max = [s for s in solves if s.n == n_max]
    u_calls = sum(s.counts.get("u", 0) for s in solves)
    u_calls_at_max = sum(s.counts.get("u", 0) for s in at_max)

    def ms_p50(name):
        return (1e3 * _percentile(durations[name], 0.5), "ms")

    def s_median(name):
        return (statistics.median(durations[name]) if durations[name] else 0.0, "s")

    metrics = {
        "sampling.sample_coupled.ms_p50": ms_p50("sample_coupled"),
        "estimators.fixed_point_solve.ms_p50": ms_p50("fixed_point_solve"),
        "estimators.fixed_point_solve.ms_p99": (1e3 * _percentile(durations["fixed_point_solve"], 0.99), "ms"),
        "estimators.weight_evals_per_solve": (_ratio(u_calls, len(solves)), "count"),
        "estimators.psi_evals_per_solve": (_ratio(sum(s.counts.get("psi", 0) for s in solves), len(solves)), "count"),
        "estimators.ms_per_weight_eval": (_ratio(1e3 * sum(s.duration for s in solves), u_calls), "ms"),
        "estimators.sweep_floor_frac": (_ratio(floor_ms * u_calls_at_max, 1e3 * sum(s.duration for s in at_max)), "frac"),
        "estimators.scm.ms_p50": ms_p50("scm"),
        "estimators.solve_sigma.s": s_median("solve_sigma"),
        "estimators.solve_retries": (retries / len(roots), "count"),
        "estimators.solve_failures": (failures / len(roots), "count"),
        "linalg.hermitian_evd.ms_p50": ms_p50("hermitian_evd"),
        "lowrank.principal_projector.ms_p50": ms_p50("principal_projector"),
        "lowrank.snr_loss.ms_p50": ms_p50("snr_loss"),
        "riemannian.nat_distance.ms_p50": ms_p50("nat_distance"),
        "asymptotics.coeffs_numeric.s": s_median("coeffs_numeric"),
        "experiments.setup_s": (statistics.median(setup), "s"),
        "experiments.self_s": (statistics.median(self_time), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (statistics.median(shares[layer]), "frac")
    return metrics
