"""Outside-in tracing of a campaign: spans around the calls `cesevd.experiments` makes.

The package itself is not modified. `Tracer.patch` swaps the module-level
names that `cesevd.experiments` calls for recording wrappers and restores them
on exit, so only campaigns run inside the `with` block are traced. Spans stay
in memory; `Tracer.dump` writes them out once the run is over.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from time import perf_counter

# Names looked up in `cesevd.experiments` at call time. Calls made inside the
# other modules go through their own namespaces and are not split further, so
# a span covers everything its layer does for that call.
TRACED_NAMES = (
    "sample_coupled",
    "fixed_point_solve",
    "scm",
    "solve_sigma",
    "hermitian_evd",
    "principal_projector",
    "snr_loss",
    "build_factor_model",
    "steering_vector",
    "snr_loss_theory",
    "projector_cov_sigma_pi",
    "nat_distance",
    "whitened_spectrum",
    "alpha_beta",
    "eta",
    "ces_crb",
    "ab_crlb",
    "biased_crlb_scm",
    "coeffs_numeric",
    "coeffs_closed_form_student",
    "eigenvalue_cov_trace",
    "eigenvector_cov_xi_trace",
)
# Factories whose returned specs get call-counting `u`, `psi` and `psi_prime`.
SPEC_FACTORIES = ("student_spec", "gaussian_spec")


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = float("nan")
    error: str | None = None
    n: int | None = None  # sample count, recorded for solver spans
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn):
        """`fn` recording one span per call, parented to the innermost open span; its layer is its module."""
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__

        def traced(*args, **kwargs):
            span = Span(name, layer, self._stack[-1] if self._stack else None, 0.0)
            if name == "fixed_point_solve":
                span.n = args[1].shape[1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()

        return traced

    def _counted(self, fn, key: str):
        def counted(t):
            if self._stack:
                counts = self.spans[self._stack[-1]].counts
                counts[key] = counts.get(key, 0) + 1
            return fn(t)

        return counted

    def _counting_factory(self, factory):
        def traced_factory(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(
                spec,
                u=self._counted(spec.u, "u"),
                psi=self._counted(spec.psi, "psi"),
                psi_prime=self._counted(spec.psi_prime, "psi_prime"),
            )

        return traced_factory

    @contextmanager
    def patch(self, module):
        """Trace every call `module` makes through TRACED_NAMES and SPEC_FACTORIES."""
        saved = {name: getattr(module, name) for name in TRACED_NAMES + SPEC_FACTORIES}
        try:
            for name in TRACED_NAMES:
                setattr(module, name, self.wrap(saved[name]))
            for name in SPEC_FACTORIES:
                setattr(module, name, self._counting_factory(saved[name]))
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None]

    def dump(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name, s.layer, s.parent, s.start - t0, s.end - t0, s.error, s.n, s.counts or None]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "parent", "start_s", "end_s", "error", "n", "counts"],
                       "spans": rows}, fh)
