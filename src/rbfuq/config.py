"""JSON run configuration: the shape of the file, and its defaults.

This module owns the JSON shape only: value types and finiteness, and
unknown, missing or conflicting keys.  Every value rule belongs to the
object that the value configures; the parser builds that object and
turns its ValueError into a ConfigError that names the key, so a key, a
CLI flag and a Python constructor refuse the same values.  Defaults
(zeta = 1, epsilon = 1, eps_reg = 1e-12, level = 7) are applied here.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .models import External, GFunction, GridSpec, KLField, PoissonExact
from .models.external import _check_jobs
from .param_space import ParameterDomain, _halton_bases
from .quadrature import _check_moments, _level_nodes
from .study import (
    KernelSetting,
    ReferenceSpec,
    StudyConfig,
    _check_columns,
    _check_fit_window,
    _check_model_dim,
    _check_norm,
    _check_schedule,
)
from .collocation import Tikhonov, TSVD


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def _check_keys(obj: dict, allowed: tuple, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing key '{key}' in {where}")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    return value


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _owned(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, the owner's ValueError raised as a ConfigError naming ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string")
    return value


def _parse_domain(obj, where: str = "domain") -> ParameterDomain:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    if "kind" in obj:
        kind = _string(obj["kind"], f"{where}.kind")
        if kind not in ("unit", "symmetric"):
            raise ConfigError(f"{where}.kind must be 'unit' or 'symmetric', got '{kind}'")
        _check_keys(obj, ("kind", "dim", "half_width") if kind == "symmetric" else ("kind", "dim"), where)
        dim = _integer(_require(obj, "dim", where), f"{where}.dim")
        _owned(where, _halton_bases, dim)  # before the box, 16 bytes per dimension, is allocated
        if kind == "unit":
            return _owned(where, ParameterDomain.unit, dim)
        half = _number(_require(obj, "half_width", where), f"{where}.half_width")
        return _owned(where, ParameterDomain.symmetric, half, dim)
    _check_keys(obj, ("lower", "upper"), where)
    lower = _require(obj, "lower", where)
    upper = _require(obj, "upper", where)
    for name, arr in (("lower", lower), ("upper", upper)):
        if not isinstance(arr, list) or not arr:
            raise ConfigError(f"{where}.{name} must be a non-empty list")
        for v in arr:
            _number(v, f"{where}.{name} entries")
    _owned(where, _halton_bases, len(lower))
    return _owned(where, ParameterDomain, lower, upper)


def _parse_model(obj, dim: int, base_dir: Path, where: str = "model"):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _string(_require(obj, "kind", where), f"{where}.kind")
    if kind == "poisson":
        _check_keys(obj, ("kind", "grid_points"), where)
        n = _integer(obj.get("grid_points", 33), f"{where}.grid_points")
        grid = _owned(f"{where}.grid_points", GridSpec, extents=((-0.5, 0.5), (-0.5, 0.5)), counts=(n, n))
        return _owned(f"{where}.grid_points", PoissonExact, grid=grid)
    if kind == "gfunction":
        _check_keys(obj, ("kind",), where)
        return GFunction(dim=dim)
    if kind == "kl":
        _check_keys(obj, ("kind", "correlation_length", "x2_points"), where)
        lc = _number(obj.get("correlation_length", 2.0), f"{where}.correlation_length")
        n = _integer(obj.get("x2_points", 33), f"{where}.x2_points")
        grid = _owned(f"{where}.x2_points", GridSpec, extents=((0.0, 1.0),), counts=(n,))
        return _owned(where, KLField, dim=dim, correlation_length=lc, grid=grid)
    if kind == "external":
        _check_keys(obj, ("kind", "command", "root", "timeout", "expected_m"), where)
        command = _string(_require(obj, "command", where), f"{where}.command")
        root = _string(_require(obj, "root", where), f"{where}.root")
        root_path = Path(root)
        if not root_path.is_absolute():
            root_path = base_dir / root_path
        timeout = _number(obj.get("timeout", 60.0), f"{where}.timeout")
        expected_m = obj.get("expected_m")
        if expected_m is not None:
            expected_m = _integer(expected_m, f"{where}.expected_m")
        return _owned(where, External, command, str(root_path), timeout, expected_m)
    raise ConfigError(
        f"{where}.kind must be one of poisson, gfunction, kl, external; got '{kind}'"
    )


_KERNEL_KEYS = ("family", "zeta", "epsilon", "eps_reg", "tsvd_tol", "regularization", "label")


def _parse_kernel(obj, where: str, dim: int) -> KernelSetting:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(obj, _KERNEL_KEYS, where)
    family = _string(_require(obj, "family", where), f"{where}.family")
    zeta = _number(obj.get("zeta", 1.0), f"{where}.zeta")
    epsilon = _number(obj.get("epsilon", 1.0), f"{where}.epsilon")
    reg_keys = [k for k in ("eps_reg", "tsvd_tol", "regularization") if k in obj]
    if len(reg_keys) > 1:
        raise ConfigError(
            f"{where}: keys {reg_keys} conflict; give at most one regularization"
        )
    if "tsvd_tol" in obj:
        reg = _owned(f"{where}.tsvd_tol", TSVD, _number(obj["tsvd_tol"], f"{where}.tsvd_tol"))
    elif "regularization" in obj:
        word = _string(obj["regularization"], f"{where}.regularization")
        if word != "none":
            raise ConfigError(
                f"{where}.regularization accepts only 'none' "
                "(use eps_reg or tsvd_tol otherwise)"
            )
        reg = None
    else:
        reg = _owned(f"{where}.eps_reg", Tikhonov, _number(obj.get("eps_reg", 1e-12), f"{where}.eps_reg"))
    setting = _owned(
        where, KernelSetting, family=family, zeta=zeta, epsilon=epsilon, regularization=reg, label=obj.get("label")
    )
    _owned(f"{where}.family", _check_moments, family, dim)
    return setting


def _parse_reference(obj, dim: int, where: str = "reference") -> ReferenceSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _string(_require(obj, "kind", where), f"{where}.kind")
    if kind == "kernel":
        _check_keys(obj, ("kind", "n_max", "kernel"), where)
        n_max = _integer(_require(obj, "n_max", where), f"{where}.n_max")
        kernel = _parse_kernel(_require(obj, "kernel", where), f"{where}.kernel", dim)
        return _owned(where, ReferenceSpec.kernel_at, n_max, kernel)
    reference = _owned(where, ReferenceSpec, kind)  # refuses a kind other than exact or kernel
    _check_keys(obj, ("kind",), where)
    return reference


_TOP_KEYS = ("domain", "model", "kernels", "schedule", "level", "norm", "reference", "n", "jobs", "out", "csv", "fit_window")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; study-only fields may be absent.

    ``n``, ``jobs`` and ``out_dir``, which CLI flags override, are checked at construction.
    """

    domain: ParameterDomain
    model: object
    kernels: tuple
    schedule: tuple
    level: int
    norm: str
    reference: ReferenceSpec
    n: int
    jobs: int
    out_dir: str
    csv_name: str
    fit_window: int

    def __post_init__(self):
        if self.n is not None and _integer(self.n, "config.n") < 0:
            raise ConfigError(f"config.n must be >= 0, got {self.n}")
        _owned("config.jobs", _check_jobs, _integer(self.jobs, "config.jobs"))
        _string(self.out_dir, "config.out")

    def first_kernel(self) -> KernelSetting:
        if not self.kernels:
            raise ConfigError("missing key 'kernels' (at least one kernel needed)")
        return self.kernels[0]

    def sample_count(self) -> int:
        if self.n is None:
            raise ConfigError("missing key 'n' (sample count; or pass --n)")
        return self.n

    def study(self) -> StudyConfig:
        self.first_kernel()  # refuses a config without kernels
        if self.schedule is None:
            raise ConfigError("missing key 'schedule' (sample counts for the study)")
        # every StudyConfig field is a RunConfig field of the same name
        return _owned("config", StudyConfig, **{f.name: getattr(self, f.name) for f in fields(StudyConfig)})


def parse_config(data, base_dir=".") -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys(data, _TOP_KEYS, "config")
    base_dir = Path(base_dir)
    domain = _parse_domain(_require(data, "domain", "config"))
    model = _parse_model(_require(data, "model", "config"), domain.dim, base_dir)
    _owned("model", _check_model_dim, model, domain)
    kernels = ()
    if "kernels" in data:
        raw = data["kernels"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config.kernels must be a non-empty list")
        kernels = tuple(
            _parse_kernel(obj, f"kernels[{i}]", domain.dim) for i, obj in enumerate(raw)
        )
        _owned("config.kernels", _check_columns, kernels)
    schedule = None
    if "schedule" in data:
        raw = data["schedule"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config.schedule must be a non-empty list")
        schedule = tuple(_integer(v, f"schedule[{i}]") for i, v in enumerate(raw))
        _owned("config.schedule", _check_schedule, schedule)
    level = _integer(data.get("level", 7), "config.level")
    _owned("config.level", _level_nodes, level)
    norm = data.get("norm", "abs_l2")
    _owned("config.norm", _check_norm, norm)
    reference = (
        _parse_reference(data["reference"], domain.dim) if "reference" in data else ReferenceSpec.exact()
    )
    csv_name = _string(data["csv"], "config.csv") if "csv" in data else "study.csv"
    fit_window = _integer(data.get("fit_window", 4), "config.fit_window")
    _owned("config.fit_window", _check_fit_window, fit_window)
    return RunConfig(
        domain=domain,
        model=model,
        kernels=kernels,
        schedule=schedule,
        level=level,
        norm=norm,
        reference=reference,
        n=data.get("n"),
        jobs=data.get("jobs", 1),
        out_dir=data.get("out", "."),
        csv_name=csv_name,
        fit_window=fit_window,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)
