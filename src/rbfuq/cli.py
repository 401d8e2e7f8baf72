"""Command-line front end.

Subcommands:

* ``sample``           write the first N mapped low-discrepancy points as CSV
* ``mean``             run the full mean-estimation pipeline once
* ``study``            run a convergence study, write CSV + JSON sidecar
* ``reference``        compute and store a reference mean field
* ``validate-config``  check a config file and exit

``mean``, ``reference`` and ``study`` all compute through
``study.estimate``, so the CLI and the library give bitwise the same
numbers.

Exit codes: 0 success, 2 configuration error (including usage errors),
3 numerical failure (singular or unusable collocation system, named by
kernel and N, or a non-finite model output), 4 external-solver failure.  Flags override config keys,
which override package defaults.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

# assemble_gram, kernel_moments, moment_weights and evaluate_samples are unused
# here (study.estimate calls them), but perfbench/layers.py wraps them on this module.
from .collocation import SingularGramError, assemble_gram  # noqa: F401
from .config import ConfigError, RunConfig, load_config
from .models import External, ExternalError, NonFiniteFieldError, write_qoi
from .param_space import halton_points
from .quadrature import _moment_plan, kernel_moments, moment_weights  # noqa: F401
from .study import StudyError, _check_reference, _kernel_groups, _write_csv, _write_json, config_echo, estimate, evaluate_samples, run_study, write_report  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_EXTERNAL = 4


def _load(args) -> RunConfig:
    """The config with the given flags applied; RunConfig checks them as it checks their keys."""
    flags = {"jobs": "jobs", "out": "out_dir", "n": "n"}
    given = {key: getattr(args, flag) for flag, key in flags.items() if getattr(args, flag, None) is not None}
    return dataclasses.replace(load_config(args.config), **given)


def _out_path(cfg: RunConfig, name: str) -> str:
    """The path of output ``name``; its directory is made here, before the model runs."""
    path = os.path.join(cfg.out_dir, name)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the directory of output {path}: {exc}") from exc
    return path


def cmd_sample(args) -> int:
    cfg = _load(args)
    n = cfg.sample_count()
    if args.dry_run:
        print(f"samples: {n}")
        print(f"would write {os.path.join(cfg.out_dir, 'points.csv')}")
        return EXIT_OK
    rows = halton_points(cfg.domain, n).points if n > 0 else []
    path = _out_path(cfg, "points.csv")
    _write_csv(path, [f"y{d + 1}" for d in range(cfg.domain.dim)], rows)
    print(f"wrote {n} points to {path}")
    return EXIT_OK


def _print_plan(cfg: RunConfig, n: int, settings) -> None:
    """The plan of a run whose kernel moments are those of ``settings``."""
    print(f"samples: {n}")
    print(f"collocation system: {n} x {n}")
    engines = {}
    for family in dict.fromkeys(s.family for s in settings):
        engines.setdefault(_moment_plan(family, cfg.domain.dim), []).append(family)
    for plan, families in engines.items():
        print(f"{', '.join(families)} kernel moments: {plan}")
    if isinstance(cfg.model, External):
        print(f"external command: {cfg.model.command}")
        print(f"sample root: {cfg.model.samples_dir}")


def cmd_mean(args) -> int:
    cfg = _load(args)
    n = cfg.sample_count()
    if n < 1:
        raise ConfigError(f"config.n must be >= 1 for mean, got {n}")
    setting = cfg.first_kernel()
    if args.dry_run:
        _print_plan(cfg, n, [setting])
        return EXIT_OK
    mean_path, weights_path = _out_path(cfg, "mean.bin"), _out_path(cfg, "weights.csv")
    result = estimate(cfg.model, cfg.domain, {setting: (n,)}, cfg.jobs)
    weights, mean = result.weights[setting, n], result.means[setting, n]
    write_qoi(mean_path, mean)
    header = ["index", *(f"y{d + 1}" for d in range(cfg.domain.dim)), "weight"]
    rows = ((i, *row, w) for i, (row, w) in enumerate(zip(result.points.points, weights.omega)))
    _write_csv(weights_path, header, rows)
    if mean.size == 1:
        print(f"mean estimate: {mean[0]:.17g}")
    print(f"wrote {mean_path} ({mean.size} values) and {weights_path}")
    return EXIT_OK


def cmd_study(args) -> int:
    cfg = _load(args)
    study_cfg = cfg.study()
    if args.dry_run:
        requests = study_cfg.requests()  # as run_study passes them to estimate
        _print_plan(cfg, max(map(max, requests.values())), requests)
        print(f"schedule: {list(study_cfg.schedule)}")
        print(f"kernels: {[k.column for k in study_cfg.kernels]}")
        kinds, cols = len(_kernel_groups(requests, cfg.domain.dim)), len(study_cfg.kernels)
        kinds = f"{kinds} distinct kernel{'s' * (kinds != 1)}"
        print(f"gram systems: {kinds} for {cols} column{'s' * (cols != 1)}")
        return EXIT_OK
    csv_path = _out_path(cfg, cfg.csv_name)  # the JSON sidecar goes beside it
    report = run_study(study_cfg)
    csv_path, json_path = write_report(report, csv_path)
    for column in report.columns:
        order = report.orders[column]
        shown = "n/a" if order is None else f"{order:.3f}"
        print(f"{column}: final error {report.errors[column][-1]:.3e}, order {shown}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_reference(args) -> int:
    cfg = _load(args)
    ref = cfg.reference
    _check_reference(ref, cfg.model, cfg.domain)  # StudyConfig's rule, so a dry run is refused too
    if args.dry_run:
        if ref.kind == "exact":  # no samples, no system: the model states its mean
            print(f"reference: the exact mean of {type(cfg.model).__name__}")
        else:
            _print_plan(cfg, ref.n_max, [ref.kernel])
        return EXIT_OK
    path, meta_path = _out_path(cfg, "reference.bin"), _out_path(cfg, "reference.json")
    if ref.kind == "exact":
        values = cfg.model.exact_mean().values
    else:
        means = estimate(cfg.model, cfg.domain, {ref.kernel: (ref.n_max,)}, cfg.jobs).means
        values = means[ref.kernel, ref.n_max]
    write_qoi(path, values)
    _write_json(meta_path, {"reference": config_echo(ref), "m": int(values.size)})
    print(f"wrote {path} ({values.size} values)")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    if cfg.schedule is not None and cfg.kernels:
        cfg.study()
    print(f"config ok: {args.config}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfuq",
        description="Kernel-based stochastic collocation for forward UQ",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=False):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--jobs", type=int, help="max concurrent external solves")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--dry-run", action="store_true", help="print the plan only")
        if with_n:
            p.add_argument("--n", type=int, help="sample count (overrides config)")

    p = sub.add_parser("sample", help="write the first N collocation points")
    common(p, with_n=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mean", help="estimate the mean once")
    common(p, with_n=True)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("study", help="run a convergence study")
    common(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("reference", help="compute and store a reference mean")
    common(p)
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("validate-config", help="check a config file")
    p.add_argument("--config", required=True, help="JSON config file")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularGramError, StudyError, NonFiniteFieldError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ExternalError as exc:
        print(f"external solver failure: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
