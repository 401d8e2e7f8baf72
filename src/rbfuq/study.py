"""Convergence-study harness: mean estimation across kernel/N sweeps.

``estimate`` is the one pipeline behind ``run_study`` and the CLI's
``mean`` and ``reference``.  It evaluates the model once on
the longest Halton prefix asked for, then for every (setting, N) pair
reuses the first N samples.  Settings that share a kernel (a kernel
reference included) get one Gram matrix and one moment vector on their
longest prefix, and each N solves on the leading N x N block (the
low-discrepancy sequence is nested, so prefixes are valid sample sets).
Plain and Tikhonov settings share one Cholesky factor per shift, whose
leading blocks factor every prefix, and all TSVD settings share one
eigendecomposition per block.  Errors against the
reference are reported per (kernel, N), with a least-squares order
fitted on the tail of each log-log curve.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .collocation import (
    Regularization,
    SingularGramError,
    Tikhonov,
    TSVD,
    _CholFactor,
    assemble_gram,
)
from .kernels import KernelSpec, NormSpec
from .models import External, GridField, run_campaign
from .models.external import _check_jobs
from .param_space import CollocationSet, ParameterDomain, halton_points
from .quadrature import _level_nodes, cc_rule, estimate_mean, kernel_moments, moment_weights

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
        self.spec(1)  # the kernel refuses a bad family, zeta or epsilon
        if not isinstance(self.regularization, Regularization):
            raise ValueError(f"regularization must be Tikhonov, TSVD or None, got {self.regularization!r}")

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
    fit_window: int = 4

    def __post_init__(self):
        kernels = tuple(self.kernels)
        if not kernels:
            raise ValueError("study needs at least one kernel")
        schedule = _check_schedule(self.schedule)
        _level_nodes(self.level)
        _check_norm(self.norm)
        _check_columns(kernels)
        _check_jobs(self.jobs)
        _check_fit_window(self.fit_window)
        if self.reference.kind == "kernel" and self.reference.n_max < schedule[-1]:
            raise ValueError("kernel reference n_max must cover the schedule")
        _check_reference(self.reference, self.model)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "schedule", schedule)

    def requests(self) -> dict:
        """``estimate``'s requests: the schedule per column, n_max for a kernel reference."""
        requests = {setting: self.schedule for setting in self.kernels}
        ref = self.reference
        if ref.kind == "kernel":
            requests[ref.kernel] = (*requests.get(ref.kernel, ()), ref.n_max)
        return requests


# One function per rule, shared by StudyConfig, estimate, config.parse_config and the CLI.
def _check_schedule(schedule) -> tuple:
    schedule = tuple(int(n) for n in schedule)
    if not schedule or any(n < 1 for n in schedule):
        raise ValueError(f"schedule must hold positive sample counts, got {list(schedule)}")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be strictly increasing, got {list(schedule)}")
    return schedule


def _check_columns(kernels) -> None:
    columns = [k.column for k in kernels]
    if len(set(columns)) != len(columns):
        raise ValueError("kernel columns collide; set distinct labels")


def _check_norm(tag) -> None:
    if tag not in NORM_TAGS:
        raise ValueError(f"unknown norm tag {tag!r}; expected one of {NORM_TAGS}")


def _check_fit_window(window) -> None:
    if window < 2:
        raise ValueError(f"fit_window must be >= 2, got {window}")


def _check_reference(reference: ReferenceSpec, model) -> None:
    if reference.kind == "exact" and not hasattr(model, "exact_mean"):
        raise ValueError("model has no exact mean; use a kernel reference")


def _check_model_dim(model, domain: ParameterDomain) -> None:
    """A model with a ``dim`` must match the domain's; one without, such as ``External``, takes any."""
    if getattr(model, "dim", domain.dim) != domain.dim:
        raise ValueError(
            f"model of dimension {model.dim} on a domain of dimension {domain.dim}"
        )


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


def _norm_values(estimate: np.ndarray, reference: np.ndarray, tag: str) -> float:
    _check_norm(tag)
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
    if r[0] == 0.0:  # rel_scalar
        raise ValueError("relative norm with zero reference")
    return abs(float(diff[0]) / float(r[0]))


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


def _kernel_groups(settings, dim: int) -> dict:
    """Kernel settings grouped by their kernel in ``dim`` dimensions, in order."""
    groups = {}
    for setting in settings:
        groups.setdefault(setting.spec(dim), []).append(setting)
    return groups


@dataclass(frozen=True)
class Estimates:
    """Points and sample table, and per ``(setting, n)`` the weights and mean."""

    points: CollocationSet
    table: np.ndarray
    weights: dict
    means: dict


def estimate(
    model, domain: ParameterDomain, requests: dict, level: int = 7, jobs: int = 1
) -> Estimates:
    """Mean estimates of every ``KernelSetting`` in ``requests`` at each of its N.

    The model runs once, on the longest Halton prefix asked for.  Settings
    that share a kernel share one Gram matrix and one moment vector on
    their longest prefix; each N solves on the leading N x N block, a
    view.  Plain and Tikhonov settings share one Cholesky factor per
    shift, taken on the longest prefix that shift asks for, and one
    factor is alive at a time; the TSVD settings share each block's
    eigendecomposition.  A failed solve raises ``StudyError`` naming the
    setting's column and N.  Every input is checked before the model
    runs: the model's and the domain's dimension, ``jobs``, each sample
    count and the level, so a refused call evaluates nothing.
    """
    _check_model_dim(model, domain)
    _check_jobs(jobs)
    counts = {setting: _check_schedule(sorted({int(n) for n in ns})) for setting, ns in requests.items()}
    rule = cc_rule(domain, level, max_points=None)  # kernel_moments never expands it
    points = halton_points(domain, max(ns[-1] for ns in counts.values()))
    table = evaluate_samples(model, points, jobs=jobs)
    weights = {}
    for spec, settings in _kernel_groups(counts, domain.dim).items():
        top = max(counts[setting][-1] for setting in settings)
        gram_full = assemble_gram(spec, points.prefix(top))
        b_full = kernel_moments(spec, points.prefix(top), rule)
        tsvd = [s for s in settings if isinstance(s.regularization, TSVD)]
        for reg in dict.fromkeys(s.regularization for s in settings if s not in tsvd):
            group = [s for s in settings if s.regularization == reg]
            factor = _CholFactor(gram_full.leading(max(counts[s][-1] for s in group)), reg)
            _solve_prefixes(weights, gram_full, b_full, group, counts, factor)
            del factor  # freed before the next factor or eigendecomposition is taken
        _solve_prefixes(weights, gram_full, b_full, tsvd, counts)
        del gram_full  # free this kernel's matrix before the next is assembled
    means = {(setting, n): estimate_mean(w, table[:n]) for (setting, n), w in weights.items()}
    return Estimates(points=points, table=table, weights=weights, means=means)


def _solve_prefixes(weights: dict, gram_full, b_full, settings, counts: dict, factor=None) -> None:
    """Weights of ``settings`` at each of their N, on leading blocks of ``gram_full``."""
    for n in sorted({n for setting in settings for n in counts[setting]}):
        gram = gram_full.leading(n, factor)
        for setting in (s for s in settings if n in counts[s]):
            try:
                weights[setting, n] = moment_weights(gram, setting.regularization, b_full[:n])
            except (SingularGramError, np.linalg.LinAlgError) as exc:
                raise StudyError(setting.column, n, exc) from exc


def run_study(config: StudyConfig) -> StudyReport:
    """Run the full sweep; deterministic end-to-end for analytic models."""
    t0 = time.monotonic()
    means = estimate(config.model, config.domain, config.requests(), config.level, config.jobs).means
    ref = config.reference
    if ref.kind == "exact":
        ref_values = config.model.exact_mean().values
    else:
        ref_values = means[ref.kernel, ref.n_max]

    errors, orders, fit_points = {}, {}, {}
    for setting in config.kernels:
        column = setting.column
        errors[column] = tuple(
            _norm_values(means[setting, n], ref_values, config.norm)
            for n in config.schedule
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
