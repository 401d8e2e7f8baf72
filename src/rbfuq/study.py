"""Convergence-study harness: mean estimation across kernel/N sweeps.

A study evaluates the model once on the longest Halton prefix, then for
every (kernel, N) pair reuses the first N samples.  Columns that differ
only in regularization share a kernel: it gets one Gram matrix and one
moment vector on the longest prefix, and each N solves on the leading
N x N block (the low-discrepancy sequence is nested, so prefixes are
valid sample sets), with one SVD per block for all TSVD columns.
Errors against the reference are reported per (kernel, N), with a
least-squares order fitted on the tail of each log-log curve.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .collocation import (
    GramMatrix,
    Regularization,
    SingularGramError,
    Tikhonov,
    TSVD,
    assemble_gram,
)
from .kernels import FAMILIES, KernelSpec, NormSpec
from .models import External, GridField, GridSpec, run_campaign
from .param_space import CollocationSet, ParameterDomain, halton_points
from .quadrature import cc_rule, estimate_mean, kernel_moments, moment_weights

NORM_TAGS = ("abs_l2", "rel_l2", "abs_scalar", "rel_scalar")


class StudyError(RuntimeError):
    """Solve or model failure annotated with its (kernel, N) location."""

    def __init__(self, kernel: str, n: int, cause: Exception):
        super().__init__(f"kernel '{kernel}' at N={n}: {cause}")
        self.kernel = kernel
        self.n = n


@dataclass(frozen=True)
class KernelSetting:
    """One kernel column of a study: family plus shape and regularization.

    ``label`` overrides the CSV column name, so sweeps over a single
    family can report one column per parameter value.
    """

    family: str
    zeta: float = 1.0
    epsilon: float = 1.0
    regularization: Regularization = Tikhonov(1e-12)
    label: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family '{self.family}'")

    @property
    def column(self) -> str:
        return self.label if self.label is not None else self.family

    def spec(self, dim: int) -> KernelSpec:
        return KernelSpec(
            family=self.family,
            dim=dim,
            epsilon=self.epsilon,
            norm=NormSpec(zeta=self.zeta),
        )


@dataclass(frozen=True)
class ReferenceSpec:
    """Ground truth: the model's exact mean, or a fine kernel estimate."""

    kind: str
    n_max: int | None = None
    kernel: KernelSetting | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "kernel"):
            raise ValueError(f"reference kind must be 'exact' or 'kernel', got '{self.kind}'")
        if self.kind == "kernel":
            if self.n_max is None or self.n_max < 1:
                raise ValueError("kernel reference needs a positive n_max")
            if self.kernel is None:
                raise ValueError("kernel reference needs a kernel setting")

    @classmethod
    def exact(cls) -> "ReferenceSpec":
        return cls(kind="exact")

    @classmethod
    def kernel_at(cls, n_max: int, kernel: KernelSetting) -> "ReferenceSpec":
        return cls(kind="kernel", n_max=n_max, kernel=kernel)


@dataclass(frozen=True)
class StudyConfig:
    model: object
    domain: ParameterDomain
    kernels: tuple
    schedule: tuple
    level: int = 7
    norm: str = "abs_l2"
    reference: ReferenceSpec = field(default_factory=ReferenceSpec.exact)
    jobs: int = 1
    max_quad_points: int = 10 ** 8
    fit_window: int = 4

    def __post_init__(self):
        kernels = tuple(self.kernels)
        schedule = tuple(int(n) for n in self.schedule)
        if not kernels:
            raise ValueError("study needs at least one kernel")
        if not schedule or any(n < 1 for n in schedule):
            raise ValueError("schedule must hold positive sample counts")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        if self.norm not in NORM_TAGS:
            raise ValueError(f"unknown norm tag '{self.norm}'")
        columns = [k.column for k in kernels]
        if len(set(columns)) != len(columns):
            raise ValueError("kernel columns collide; set distinct labels")
        if self.reference.kind == "kernel" and self.reference.n_max < schedule[-1]:
            raise ValueError("kernel reference n_max must cover the schedule")
        if self.reference.kind == "exact" and not hasattr(self.model, "exact_mean"):
            raise ValueError(
                "model has no exact mean; use a kernel reference"
            )
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "schedule", schedule)


@dataclass(frozen=True)
class StudyReport:
    """Errors per (kernel, N), fitted tail orders, and a config echo."""

    schedule: tuple
    columns: tuple
    errors: dict
    orders: dict
    fit_points: dict
    config_echo: dict
    wall_time: float


def evaluate_samples(model, points: CollocationSet, jobs: int = 1) -> np.ndarray:
    """Model outputs for every collocation point, one row per sample."""
    if isinstance(model, External):
        return run_campaign(model, points, jobs=jobs).table
    rows = [model.evaluate(y).values for y in points.points]
    return np.vstack(rows)


def _model_grid(model, m: int) -> GridSpec:
    return model.grid if hasattr(model, "grid") else GridSpec.index_line(m)


def _norm_values(estimate: np.ndarray, reference: np.ndarray, tag: str) -> float:
    e = np.asarray(estimate, dtype=float).ravel()
    r = np.asarray(reference, dtype=float).ravel()
    if e.shape != r.shape:
        raise ValueError(f"size mismatch: estimate {e.shape}, reference {r.shape}")
    if tag in ("abs_scalar", "rel_scalar") and e.size != 1:
        raise ValueError(f"norm '{tag}' needs scalar fields, got {e.size} values")
    diff = e - r
    if tag == "abs_l2":
        return float(np.sqrt(np.mean(diff * diff)))
    if tag == "rel_l2":
        denom = float(np.sqrt(np.mean(r * r)))
        if denom == 0.0:
            raise ValueError("relative norm with zero reference")
        return float(np.sqrt(np.mean(diff * diff))) / denom
    if tag == "abs_scalar":
        return abs(float(diff[0]))
    if tag == "rel_scalar":
        if r[0] == 0.0:
            raise ValueError("relative norm with zero reference")
        return abs(float(diff[0]) / float(r[0]))
    raise ValueError(f"unknown norm tag '{tag}'")


def error_norm(estimate: GridField, reference: GridField, tag: str) -> float:
    """Discrete error between two fields on the same grid.

    abs_l2 is the root mean square sqrt(sum (e_j - r_j)^2 / M); rel_l2
    divides by the reference's RMS; the *_scalar tags require M = 1.
    """
    if estimate.grid != reference.grid:
        raise ValueError("estimate and reference live on different grids")
    return _norm_values(estimate.values, reference.values, tag)


def _fit_tail(points, window: int, floor: float) -> tuple:
    """Fitted order and the sample counts it used, or (None, ())."""
    tail = list(points)[-window:]
    if any(e <= 0.0 for _, e in tail):
        raise ValueError("nonpositive error in fit window")
    usable = [(n, e) for n, e in tail if e > 10.0 * floor]
    if len(usable) < 2:
        return None, ()
    ns = np.log([n for n, _ in usable])
    es = np.log([e for _, e in usable])
    slope = np.polyfit(ns, es, 1)[0]
    return -float(slope), tuple(n for n, _ in usable)


def fit_order(points, window: int = 4, floor: float = 0.0):
    """Negated log-log slope of error vs N over the tail window.

    Points whose error is within a factor 10 of ``floor`` (the
    regularization level) are excluded as plateaued; with fewer than two
    usable points no order is fitted and None is returned.
    """
    return _fit_tail(points, window, floor)[0]


def _kernel_groups(config: StudyConfig) -> dict:
    """The study's kernel settings grouped by their kernel, in order."""
    groups = {}
    for setting in config.kernels:
        groups.setdefault(setting.spec(config.domain.dim), []).append(setting)
    return groups


def _estimates(settings, points: CollocationSet, table, rule, ns) -> dict:
    """``{column: [estimate per N]}`` for settings that share one kernel.

    One Gram matrix and one moment vector on the longest prefix serve
    them all; each N solves on the leading N x N block, a view, whose SVD
    the TSVD settings share.
    """
    spec = settings[0].spec(points.dim)
    points = points.prefix(ns[-1])
    gram_full = assemble_gram(spec, points).values
    b_full = kernel_moments(spec, points, rule)
    out = {setting.column: [] for setting in settings}
    for n in ns:
        gram = GramMatrix(values=gram_full[:n, :n], spec=spec, points=points.prefix(n))
        for setting in settings:
            try:
                weights = moment_weights(gram, setting.regularization, b_full[:n])
            except (SingularGramError, np.linalg.LinAlgError) as exc:
                raise StudyError(setting.column, n, exc) from exc
            out[setting.column].append(estimate_mean(weights, table[:n]))
    return out


def run_study(config: StudyConfig) -> StudyReport:
    """Run the full sweep; deterministic end-to-end for analytic models."""
    t0 = time.monotonic()
    ref = config.reference  # a kernel reference covers the schedule
    n_total = ref.n_max if ref.kind == "kernel" else config.schedule[-1]
    points = halton_points(config.domain, n_total)
    table = evaluate_samples(config.model, points, jobs=config.jobs)
    rule = cc_rule(config.domain, config.level, max_points=config.max_quad_points)

    if ref.kind == "exact":
        ref_values = config.model.exact_mean().values
    else:
        by_column = _estimates([ref.kernel], points, table, rule, (ref.n_max,))
        ref_values = by_column[ref.kernel.column][0]

    estimates = {}
    for settings in _kernel_groups(config).values():
        estimates.update(_estimates(settings, points, table, rule, config.schedule))
    errors, orders, fit_points = {}, {}, {}
    for setting in config.kernels:
        column = setting.column
        errors[column] = tuple(
            _norm_values(est, ref_values, config.norm) for est in estimates[column]
        )
        pairs = zip(config.schedule, errors[column])
        reg = setting.regularization
        floor = reg.eps_reg if isinstance(reg, Tikhonov) else 0.0
        try:
            orders[column], fit_points[column] = _fit_tail(pairs, config.fit_window, floor)
        except ValueError:  # an estimate equal to the reference has no order
            orders[column], fit_points[column] = None, ()

    return StudyReport(
        schedule=config.schedule,
        columns=tuple(k.column for k in config.kernels),
        errors=errors,
        orders=orders,
        fit_points=fit_points,
        config_echo=config_echo(config),
        wall_time=time.monotonic() - t0,
    )


def kernel_reference(config: StudyConfig, n_max: int, setting: KernelSetting) -> GridField:
    """Fine-sampling mean estimate used as ground truth.

    Uses the first ``n_max`` points of the same low-discrepancy sequence
    as the study (the reference kernel may differ from the study kernels).
    """
    if n_max < max(config.schedule):
        raise ValueError("reference n_max must cover the schedule")
    points = halton_points(config.domain, n_max)
    table = evaluate_samples(config.model, points, jobs=config.jobs)
    rule = cc_rule(config.domain, config.level, max_points=config.max_quad_points)
    est = _estimates([setting], points, table, rule, (n_max,))[setting.column][0]
    return GridField(grid=_model_grid(config.model, est.size), values=est)


def mc_baseline(model, domain: ParameterDomain, n: int, seed: int = 0, method: str = "mc") -> np.ndarray:
    """Equal-weight mean baseline: pseudo-random or low-discrepancy.

    ``mc`` draws n uniform points with a seeded generator; ``qmc`` takes
    the first n Halton points.  Both average model outputs with weight 1/n.
    """
    if method == "mc":
        rng = np.random.default_rng(seed)
        raw = domain.lower + rng.random((n, domain.dim)) * domain.lengths
        points = CollocationSet(points=raw, source=f"mc(seed={seed})")
    elif method == "qmc":
        points = halton_points(domain, n)
    else:
        raise ValueError(f"unknown baseline method '{method}'")
    table = evaluate_samples(model, points)
    return table.mean(axis=0)


def _reg_echo(reg: Regularization) -> dict:
    if reg is None:
        return {"type": "none"}
    if isinstance(reg, Tikhonov):
        return {"type": "tikhonov", "eps_reg": reg.eps_reg}
    if isinstance(reg, TSVD):
        return {"type": "tsvd", "drop_tol": reg.drop_tol}
    raise TypeError(f"unknown regularization {reg!r}")


def _model_echo(model) -> dict:
    if isinstance(model, External):
        return {
            "kind": "external",
            "command": model.command,
            "root": str(model.root),
            "timeout": model.timeout,
            "expected_m": model.expected_m,
        }
    echo = {"kind": type(model).__name__.lower()}
    if hasattr(model, "dim"):
        echo["dim"] = int(model.dim)
    if hasattr(model, "correlation_length"):
        echo["correlation_length"] = model.correlation_length
    if hasattr(model, "grid"):
        echo["grid_counts"] = list(model.grid.counts)
        echo["grid_extents"] = [list(e) for e in model.grid.extents]
    return echo


def config_echo(config: StudyConfig) -> dict:
    """JSON-ready snapshot of the full study configuration."""
    ref = {"kind": config.reference.kind}
    if config.reference.kind == "kernel":
        ref["n_max"] = config.reference.n_max
        ref["kernel"] = _kernel_echo(config.reference.kernel)
    return {
        "model": _model_echo(config.model),
        "domain": {
            "lower": config.domain.lower.tolist(),
            "upper": config.domain.upper.tolist(),
        },
        "kernels": [_kernel_echo(k) for k in config.kernels],
        "schedule": list(config.schedule),
        "level": config.level,
        "norm": config.norm,
        "reference": ref,
        "jobs": config.jobs,
        "max_quad_points": config.max_quad_points,
        "fit_window": config.fit_window,
    }


def _kernel_echo(setting: KernelSetting) -> dict:
    return {
        "family": setting.family,
        "label": setting.column,
        "zeta": setting.zeta,
        "epsilon": setting.epsilon,
        "regularization": _reg_echo(setting.regularization),
    }


def write_report(report: StudyReport, csv_path) -> tuple:
    """Write the error table as CSV plus a JSON metadata sidecar.

    CSV: header ``collocationpoints`` then one column per kernel, values
    in %.17g, Unix newlines.  The sidecar carries the config echo, fitted
    orders, fit windows, and wall time.
    """
    csv_path = os.fspath(csv_path)
    lines = ["collocationpoints," + ",".join(report.columns)]
    for i, n in enumerate(report.schedule):
        cells = [str(n)]
        cells += [format(report.errors[c][i], ".17g") for c in report.columns]
        lines.append(",".join(cells))
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "config": report.config_echo,
        "orders": {c: report.orders[c] for c in report.columns},
        "fit_points": {c: list(report.fit_points[c]) for c in report.columns},
        "wall_time_s": report.wall_time,
    }
    json_path = os.path.splitext(csv_path)[0] + ".json"
    with open(json_path, "w", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path
