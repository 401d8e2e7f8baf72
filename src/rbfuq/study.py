"""Convergence-study harness: mean estimation across kernel/N sweeps.

``estimate`` is the one pipeline behind ``run_study`` and the CLI's
``mean`` and ``reference``: weights before samples.  It solves every
system on the longest Halton prefix asked for, computing each kernel
number once, before the model first runs; then it evaluates the model
once per point and streams the samples through one contraction with the
stacked weights, so no model's table is ever held (its docstring says
how).  Errors against the reference are reported per
(kernel, N), with a least-squares order fitted on the tail of each
log-log curve.  The JSON sidecar beside the error table echoes the
config by one rule (``config_echo``): each config object as its type and
its fields by name, which ``config`` builds back into the same config.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np
from scipy.linalg.blas import dgemm

from ._checks import _integer, _items, _string
from .collocation import Regularization, SingularGramError, Tikhonov, TSVD, _InPlace, assemble_gram
from .kernels import KernelSpec
from .models import External, run_campaign
from .models.external import _Table, _check_jobs, _write_atomic
from .param_space import CollocationSet, ParameterDomain, halton_points
from .quadrature import _check_moments, _level_nodes, kernel_moments, moment_weights

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
        spec = self.spec(1)  # the kernel refuses a bad family, zeta or epsilon
        object.__setattr__(self, "zeta", spec.zeta)
        object.__setattr__(self, "epsilon", spec.epsilon)
        if not isinstance(self.regularization, Regularization):
            raise ValueError(f"regularization must be Tikhonov, TSVD or None, got {self.regularization!r}")
        if self.label is not None:
            _string(self.label, "label")

    @property
    def column(self) -> str:
        return self.label if self.label is not None else self.family

    def spec(self, dim: int) -> KernelSpec:
        return KernelSpec(
            family=self.family,
            dim=dim,
            epsilon=self.epsilon,
            zeta=self.zeta,
        )


@dataclass(frozen=True)
class ReferenceSpec:
    """Ground truth: the model's exact mean, or a fine kernel estimate."""

    kind: str
    n_max: int | None = None
    kernel: KernelSetting | None = None

    def __post_init__(self):
        if _string(self.kind, "reference kind") not in ("exact", "kernel"):
            raise ValueError(f"reference kind must be 'exact' or 'kernel', got '{self.kind}'")
        if self.kind == "exact":
            if self.n_max is not None or self.kernel is not None:
                raise ValueError("an exact reference takes no n_max or kernel")
        elif self.n_max is None or _integer(self.n_max, "n_max") < 1:
            raise ValueError("kernel reference needs a positive n_max")
        elif not isinstance(self.kernel, KernelSetting):
            raise ValueError(f"kernel reference needs a kernel setting, got {self.kernel!r}")

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
        kernels = _items(self.kernels, "kernels")
        if not kernels:
            raise ValueError("study needs at least one kernel")
        typed = [("each kernel", k, KernelSetting) for k in kernels]
        for name, value, cls in (*typed, ("domain", self.domain, ParameterDomain), ("reference", self.reference, ReferenceSpec)):
            if not isinstance(value, cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
        schedule = _check_schedule(self.schedule)
        _level_nodes(self.level)  # the level is checked as a config value; no study number reads it
        _check_norm(self.norm)
        _check_columns(kernels)
        _check_jobs(self.jobs)
        _check_fit_window(self.fit_window)
        if self.reference.kind == "kernel" and self.reference.n_max < schedule[-1]:
            raise ValueError("kernel reference n_max must cover the schedule")
        _check_reference(self.reference, self.model, self.domain)
        for setting in self.requests():
            _check_moments(setting.family, self.domain.dim)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "schedule", schedule)

    def requests(self) -> dict:
        """``estimate``'s requests: the schedule per column, n_max for a kernel reference."""
        requests = {setting: self.schedule for setting in self.kernels}
        ref = self.reference
        if ref.kind == "kernel":
            requests[ref.kernel] = (*requests.get(ref.kernel, ()), ref.n_max)
        return requests


# One function per rule, shared by StudyConfig, estimate, config.RunConfig and the CLI.
def _check_schedule(schedule) -> tuple:
    schedule = tuple(_integer(n, f"schedule[{i}]") for i, n in enumerate(_items(schedule, "schedule")))
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
    if _string(tag, "norm") not in NORM_TAGS:
        raise ValueError(f"unknown norm tag {tag!r}; expected one of {NORM_TAGS}")


def _check_fit_window(window) -> None:
    if _integer(window, "fit_window") < 2:
        raise ValueError(f"fit_window must be >= 2, got {window}")


def _check_reference(reference: ReferenceSpec, model, domain: ParameterDomain) -> None:
    """An exact reference needs a model with ``exact_mean`` and, if the
    model states the box of that mean (``mean_box``), this very box.  The
    model rule runs first, so a model of another dimension is refused
    with its own message."""
    _check_model(model, domain)
    if reference.kind != "exact":
        return
    if not hasattr(model, "exact_mean"):
        raise ValueError("model has no exact mean; use a kernel reference")
    box = getattr(model, "mean_box", None)
    if box is not None and not (
        np.array_equal(box.lower, domain.lower) and np.array_equal(box.upper, domain.upper)
    ):
        raise ValueError(
            f"the exact mean of {type(model).__name__} is over {_box_text(box)}, "
            f"not {_box_text(domain)}; use a kernel reference"
        )


def _box_text(domain: ParameterDomain) -> str:
    return " x ".join(f"[{lo:.17g}, {hi:.17g}]" for lo, hi in zip(domain.lower, domain.upper))


def _check_model(model, domain: ParameterDomain) -> None:
    """A model is ``External`` or has ``evaluate``, and one with a ``dim`` matches the domain's."""
    if not isinstance(model, External) and not callable(getattr(model, "evaluate", None)):
        raise ValueError(f"model must be External or have an evaluate method, got {model!r}")
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


def evaluate_samples(model, points: CollocationSet, jobs: int = 1, into=None) -> np.ndarray | None:
    """Model outputs for every collocation point, each handed to
    ``into(index, values)`` in sample order.

    Without ``into`` they fill one ``(N, M)`` table, which is returned.  An
    ``External`` model runs one campaign (``run_campaign``); an in-process
    model refuses a sample whose width differs from the first sample's.
    """
    if isinstance(model, External):
        return run_campaign(model, points, jobs=jobs, into=into).table
    fill = _Table(len(points)) if into is None else into
    for i, y in enumerate(points.points):
        values = model.evaluate(y).values
        if i == 0:
            m = values.size
        elif values.size != m:
            raise ValueError(f"the model returned {values.size} values at y = {y.tolist()}, but {m} at the first sample")
        fill(i, values)
    return fill.rows if into is None else None


def _norm_values(estimate: np.ndarray, reference: np.ndarray, tag: str) -> float:
    """Error under a tag already checked: abs_l2 is sqrt(sum (e_j - r_j)^2 / M), rel_l2
    divides it by the reference's RMS, and the *_scalar tags require M = 1."""
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


def _fit_tail(points, window: int, floor: float) -> tuple:
    """Negated log-log slope of error vs N over the last ``window`` points, and the Ns
    it used; errors within 10x ``floor`` are plateaued, and under two others give (None, ())."""
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


def _kernel_groups(settings, dim: int) -> dict:
    """Kernel settings grouped by the kernel they compute in ``dim`` dimensions, in order.

    Only the Gaussian reads ``epsilon``, so settings of another family
    that differ in it alone share a group, keyed by the kernel at
    epsilon = 1.
    """
    groups = {}
    for setting in settings:
        spec = setting.spec(dim)
        if spec.family != "gaussian":
            spec = replace(spec, epsilon=1.0)
        groups.setdefault(spec, []).append(setting)
    return groups


def _group_moments(tops: dict, points: CollocationSet, domain: ParameterDomain) -> dict:
    """The moment vector of each kernel in ``tops`` on its prefix of ``points``.

    The Wendland kernels of one norm scale share one ``kernel_moments``
    pass on the longest prefix any of them needs, and each takes its own
    leading entries (moments do not depend on the centres beside them);
    every other kernel gets a call of its own.
    """
    passes = {}
    for spec in tops:
        key = ("wendland", spec.zeta) if spec.family.startswith("wendland") else spec
        passes.setdefault(key, []).append(spec)
    moments = {}
    for first, *rest in passes.values():
        prefix = points.prefix(max(tops[spec] for spec in (first, *rest)))
        if first.family.startswith("wendland"):
            rows = kernel_moments(first, prefix, domain, more=tuple(rest))
        else:
            rows = [kernel_moments(first, prefix, domain)]
        moments.update((spec, row[: tops[spec]]) for spec, row in zip((first, *rest), rows))
    return moments


@dataclass(frozen=True)
class Estimates:
    """Points, and per ``(setting, n)`` the weights and mean."""

    points: CollocationSet
    weights: dict
    means: dict


BLOCK_ENTRIES = 1 << 19  # values per sample block of the contraction: 4 MiB of float64


def estimate(model, domain: ParameterDomain, requests: dict, jobs: int = 1) -> Estimates:
    """Mean estimates of every ``KernelSetting`` in ``requests`` at each of its N.

    Weights come before samples: every system is solved on the longest
    Halton prefix asked for before the model first runs, so a failed
    solve raises ``StudyError``, naming the setting's column and N, with
    nothing evaluated or launched.  Settings that share a kernel
    (``_kernel_groups``: the same family, zeta, and for the Gaussian
    epsilon) share one Gram matrix and one moment vector on their longest
    prefix; each N solves on the leading N x N block, a view.  The
    moments of all Wendland kernels of one zeta come from one
    ``kernel_moments`` pass on the longest prefix any of them needs, of
    which each takes its leading entries, bitwise its own vector.  The
    TSVD settings at one N share the block's eigenpairs, from
    ``LANCZOS_MIN_N`` points on only those of largest modulus
    (``GramMatrix.tsvd_eigenpairs``), so a setting's weights do not
    depend on the settings beside it.  Plain and Tikhonov settings share
    one Cholesky factor per shift, taken on the longest prefix that shift
    asks for, one at a time.  ``estimate`` owns each Gram matrix, so a
    factor of the whole matrix is written over its lower triangle
    (``GramMatrix.factored`` with ``in_place``), and solving holds one
    dense N x N array per kernel; only a shift whose longest prefix is a
    strict leading block takes its factor in a private copy.  The TSVD
    settings are solved before the first factor, as their eigensolvers
    read the lower triangle; the weights keep their order, each kernel's
    plain and Tikhonov settings before its TSVD ones.

    The weights then stack into one matrix W, a zero-padded row per
    ``(setting, n)``, and the samples U are contracted in index order
    (``_contract``): the samples of either kind of model stream into a
    block of about ``BLOCK_ENTRIES`` values, ``means += W[:, block] @
    U[block]``, so the whole table is never held.  Only the summation
    order differs from ``omega @ U[:n]``, by at most (n + 1) * eps *
    sum_i |omega_i u_i| per channel.

    Every input is checked before anything is computed: that some
    setting is requested, the model's and the domain's dimension,
    ``jobs``, each sample count, and that each setting's kernel moments
    exist in this dimension (no Wendland kernel in D >= 4).
    """
    if not requests:
        raise ValueError("estimate needs at least one kernel setting; requests is empty")
    _check_model(model, domain)
    _check_jobs(jobs)
    counts = {setting: _check_schedule(sorted({_integer(n, "sample count") for n in ns})) for setting, ns in requests.items()}
    for setting in counts:
        _check_moments(setting.family, domain.dim)
    points = halton_points(domain, max(ns[-1] for ns in counts.values()))
    groups = _kernel_groups(counts, domain.dim)
    tops = {spec: max(counts[setting][-1] for setting in settings) for spec, settings in groups.items()}
    moments = _group_moments(tops, points, domain)
    weights = {}
    for spec, settings in groups.items():
        gram_full = assemble_gram(spec, points.prefix(tops[spec]))
        b_full = moments[spec]
        tsvd = [s for s in settings if isinstance(s.regularization, TSVD)]
        truncated = {}  # solved first: eigh and Lanczos read the lower triangle, which the factors overwrite
        _solve_prefixes(truncated, gram_full, b_full, tsvd, counts)
        in_place = _InPlace(gram_full.values)
        for reg in dict.fromkeys(s.regularization for s in settings if s not in tsvd):
            group = [s for s in settings if s.regularization == reg]
            factored = gram_full.leading(max(counts[s][-1] for s in group)).factored(reg, in_place)
            _solve_prefixes(weights, factored, b_full, group, counts)
            del factored  # its factor is freed before the next factor is taken
        weights.update(truncated)  # the rows of W keep the order of plain and Tikhonov settings, then TSVD
        del gram_full, in_place  # free this kernel's matrix before the next is assembled
    stacked = np.zeros((len(weights), len(points)))
    for row, w in zip(stacked, weights.values()):
        row[: w.omega.size] = w.omega
    sums = _contract(model, points, stacked, jobs)
    return Estimates(points=points, weights=weights, means=dict(zip(weights, sums)))


def _contract(model, points: CollocationSet, stacked: np.ndarray, jobs: int) -> np.ndarray:
    """``stacked @ U`` for the model's samples U at ``points``, in sample order.

    One ``evaluate_samples`` call hands each sample to a block of
    ``BLOCK_ENTRIES // M`` rows (at least one), M being the width of
    sample 0, where the block is allocated; the campaign of an
    ``External`` model streams through it as an in-process model does.
    The first full block is contracted as ``stacked[:, :rows] @ block``,
    and each later one is added by one GEMM in place.  Every block
    multiplies all rows of ``stacked``, those past their N too (they add
    exact zeros), so the BLAS calls that sum a row do not change with the
    N of the rows beside it.
    """
    n = len(points)
    block = sums = None
    start = stop = 0  # the samples the block holds next

    def take(i, values):
        nonlocal block, sums, start, stop
        if block is None:
            block = np.empty((min(n, max(1, BLOCK_ENTRIES // max(1, values.size))), values.size))
            stop = len(block)
        block[i - start] = values
        if i + 1 < stop:
            return
        if sums is None:
            sums = stacked[:, :stop] @ block
        else:
            # sums += stacked[:, start:stop] @ part with no temporary: a C-ordered array is its
            # transpose in Fortran order, so GEMM adds into sums.T in place
            part = block[: stop - start]
            sums = dgemm(1.0, part.T, stacked[:, start:stop].T, beta=1.0, c=sums.T, overwrite_c=True).T
        start, stop = stop, min(stop + len(block), n)

    evaluate_samples(model, points, jobs=jobs, into=take)
    return sums


def _solve_prefixes(weights: dict, gram_full, b_full, settings, counts: dict) -> None:
    """Weights of ``settings`` at each of their N, on leading blocks of ``gram_full``."""
    for n in sorted({n for setting in settings for n in counts[setting]}):
        gram = gram_full.leading(n)
        for setting in (s for s in settings if n in counts[s]):
            try:
                weights[setting, n] = moment_weights(gram, setting.regularization, b_full[:n])
            except (SingularGramError, np.linalg.LinAlgError) as exc:
                raise StudyError(setting.column, n, exc) from exc


def run_study(config: StudyConfig) -> StudyReport:
    """Run the full sweep; deterministic end-to-end for analytic models."""
    t0 = time.monotonic()
    means = estimate(config.model, config.domain, config.requests(), config.jobs).means
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


def config_echo(value):
    """JSON-ready echo of a config object, by one rule: a dataclass is a dict of
    its lower-case type name under ``type`` and each init field, echoed in turn;
    a tuple, list or array is a list; a NumPy scalar is a Python scalar; None,
    str, int and float are themselves; any other object is its type name alone."""
    if is_dataclass(value):
        echo = {"type": type(value).__name__.lower()}
        return echo | {f.name: config_echo(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [config_echo(v) for v in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    return {"type": type(value).__name__.lower()}


def _write_csv(path, header, rows) -> None:
    """Write a header line, then one line per row with every cell in %.17g, Unix newlines."""
    lines = [",".join(header), *(",".join(format(float(v), ".17g") for v in row) for row in rows)]
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def _write_json(path, value) -> None:
    """Write ``value`` as JSON indented by 2, with a trailing newline."""
    _write_atomic(path, (json.dumps(value, indent=2) + "\n").encode())


def write_report(report: StudyReport, csv_path) -> tuple:
    """Write the error table as CSV plus a JSON metadata sidecar.

    CSV: header ``collocationpoints`` then one column per kernel, one row
    per N (``_write_csv``).  The sidecar carries the config echo, fitted
    orders, fit windows, and wall time.
    """
    csv_path = os.fspath(csv_path)
    rows = zip(report.schedule, *(report.errors[c] for c in report.columns))
    _write_csv(csv_path, ("collocationpoints", *report.columns), rows)
    json_path = os.path.splitext(csv_path)[0] + ".json"
    _write_json(json_path, {
        "config": report.config_echo,
        "orders": {c: report.orders[c] for c in report.columns},
        "fit_points": {c: list(report.fit_points[c]) for c in report.columns},
        "wall_time_s": report.wall_time,
    })
    return csv_path, json_path
