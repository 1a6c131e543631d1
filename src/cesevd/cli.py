"""Command line interface: `ces-evd run | coeffs | version`.

Exit codes: 0 on success, 2 on configuration errors, 3 on campaign errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .asymptotics import COEFF_MIN_DRAWS, coeffs_closed_form_student, coeffs_numeric
from .errors import CampaignError, CesEvdError, ConfigError
from .experiments import (
    _FIELD_KINDS,
    config_from_mapping,
    parse_config_file,
    render_svg,
    run_experiment,
    write_csv,
)
from .estimators import student_spec
from .sampling import CesDistribution


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ces-evd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo experiment campaign")
    run.add_argument("--config", help="flat key = value configuration file")
    for key in _FIELD_KINDS:
        run.add_argument(f"--{key}", default=None, help=f"override config key {key!r}")
    run.set_defaults(func=_cmd_run)

    coeffs = sub.add_parser("coeffs", help="print closed-form and Monte Carlo coefficients")
    coeffs.add_argument("--p", type=int, required=True)
    coeffs.add_argument("--d", type=float, required=True)
    coeffs.add_argument("--draws", type=int, default=1_000_000)
    coeffs.set_defaults(func=_cmd_coeffs)

    version = sub.add_parser("version", help="print build information")
    version.set_defaults(func=_cmd_version)
    return parser


def _cmd_run(args) -> int:
    mapping: dict = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for key in _FIELD_KINDS:
        value = getattr(args, key)
        if value is not None:
            mapping[key] = value
    config = config_from_mapping(mapping)
    out = config.out or "results.csv"
    for path in filter(None, (out, config.svg)):
        folder = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
            raise ConfigError(f"cannot write {path!r}: {folder!r} is not a writable directory")
    result = run_experiment(config)
    write_csv(result, out)
    print(f"experiment={config.experiment} rows={len(result.rows)} -> {out}")
    if config.svg:
        render_svg(result, config.svg)
        print(f"plot -> {config.svg}")
    excluded = result.metadata.get("excluded", "none")
    if excluded != "none":
        print(f"excluded trials: {excluded}")
    print(f"wall time: {result.metadata['wall_time_s']:.2f} s")
    return 0


def _cmd_coeffs(args) -> int:
    if args.p < 1:
        raise ConfigError(f"p must be >= 1, got {args.p}")
    if not 0 < args.d < math.inf:
        raise ConfigError(f"d must be finite and > 0, got {args.d:g}")
    if args.draws < COEFF_MIN_DRAWS:
        raise ConfigError(f"draws must be >= {COEFF_MIN_DRAWS}, got {args.draws}")
    closed = coeffs_closed_form_student(args.p, args.d)
    numeric = coeffs_numeric(student_spec(args.p, args.d), CesDistribution.student_t(args.d), args.p, args.draws)
    print(f"closed form (p={args.p}, d={args.d:g}):")
    print(f"  theta1={closed.theta1:.9f}  theta2={closed.theta2:.9f}")
    print(f"  sigma1={closed.sigma1:.9f}  sigma2={closed.sigma2:.9f}")
    print(f"monte carlo ({args.draws} draws):")
    print(f"  theta1={numeric.theta1:.9f}  theta2={numeric.theta2:.9f}")
    print(f"  sigma1={numeric.sigma1:.9f}  sigma2={numeric.sigma2:.9f}")
    print(f"  a={numeric.a:.6f}  b={numeric.b:.6f}  c={numeric.c:.6f}")
    return 0


def _cmd_version(args) -> int:
    print(f"ces-evd {__version__}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 3
    except CesEvdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
