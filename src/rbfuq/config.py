"""JSON run configuration: parsing, validation, defaults.

Configs are validated structurally before any computation: unknown keys
are rejected with the offending location, values are type-checked, and
defaults (zeta = 1, epsilon = 1, eps_reg = 1e-12, level = 7) are applied
here so the rest of the package never sees a partial config.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .models import External, GFunction, GridSpec, KLField, PoissonExact
from .param_space import MAX_DIM, ParameterDomain
from .quadrature import _level_nodes
from .study import (
    KernelSetting,
    ReferenceSpec,
    StudyConfig,
    _check_columns,
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


def _number(value, where: str, minimum=None, strict_min=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(f"{where} must be > {strict_min}, got {value}")
    return value


def _integer(value, where: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    return value


def _study_rule(check, *args, **kwargs):
    """A check of the study or quadrature module, its ValueError raised as a ConfigError."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string")
    return value


def _parse_domain(obj, where: str = "domain") -> ParameterDomain:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    if "kind" in obj:
        kind = _string(obj["kind"], f"{where}.kind")
        if kind == "unit":
            _check_keys(obj, ("kind", "dim"), where)
            dim = _integer(_require(obj, "dim", where), f"{where}.dim", minimum=1)
            return ParameterDomain.unit(dim)
        if kind == "symmetric":
            _check_keys(obj, ("kind", "half_width", "dim"), where)
            half = _number(
                _require(obj, "half_width", where), f"{where}.half_width", strict_min=0.0
            )
            dim = _integer(_require(obj, "dim", where), f"{where}.dim", minimum=1)
            return ParameterDomain.symmetric(half, dim)
        raise ConfigError(f"{where}.kind must be 'unit' or 'symmetric', got '{kind}'")
    _check_keys(obj, ("lower", "upper"), where)
    lower = _require(obj, "lower", where)
    upper = _require(obj, "upper", where)
    for name, arr in (("lower", lower), ("upper", upper)):
        if not isinstance(arr, list) or not arr:
            raise ConfigError(f"{where}.{name} must be a non-empty list")
        for v in arr:
            _number(v, f"{where}.{name} entries")
    try:
        return ParameterDomain(lower, upper)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_model(obj, dim: int, base_dir: Path, where: str = "model"):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _string(_require(obj, "kind", where), f"{where}.kind")
    if kind == "poisson":
        _check_keys(obj, ("kind", "grid_points"), where)
        n = _integer(obj.get("grid_points", 33), f"{where}.grid_points", minimum=2)
        if dim != 1:
            raise ConfigError(f"{where}: poisson model needs a 1-D domain, got {dim}-D")
        return PoissonExact(
            grid=GridSpec(extents=((-0.5, 0.5), (-0.5, 0.5)), counts=(n, n))
        )
    if kind == "gfunction":
        _check_keys(obj, ("kind",), where)
        return GFunction(dim=dim)
    if kind == "kl":
        _check_keys(obj, ("kind", "correlation_length", "x2_points"), where)
        lc = _number(
            obj.get("correlation_length", 2.0),
            f"{where}.correlation_length",
            strict_min=0.0,
        )
        n = _integer(obj.get("x2_points", 33), f"{where}.x2_points", minimum=1)
        return KLField(
            dim=dim,
            correlation_length=lc,
            grid=GridSpec(extents=((0.0, 1.0),), counts=(n,)),
        )
    if kind == "external":
        _check_keys(obj, ("kind", "command", "root", "timeout", "expected_m"), where)
        command = _string(_require(obj, "command", where), f"{where}.command")
        root = _string(_require(obj, "root", where), f"{where}.root")
        root_path = Path(root)
        if not root_path.is_absolute():
            root_path = base_dir / root_path
        timeout = _number(obj.get("timeout", 60.0), f"{where}.timeout", strict_min=0.0)
        expected_m = obj.get("expected_m")
        if expected_m is not None:
            expected_m = _integer(expected_m, f"{where}.expected_m", minimum=1)
        return External(
            command=command,
            root=str(root_path),
            timeout=timeout,
            expected_m=expected_m,
        )
    raise ConfigError(
        f"{where}.kind must be one of poisson, gfunction, kl, external; got '{kind}'"
    )


_KERNEL_KEYS = ("family", "zeta", "epsilon", "eps_reg", "tsvd_tol", "regularization", "label")


def _parse_kernel(obj, where: str) -> KernelSetting:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(obj, _KERNEL_KEYS, where)
    family = _string(_require(obj, "family", where), f"{where}.family")
    zeta = _number(obj.get("zeta", 1.0), f"{where}.zeta", strict_min=0.0)
    epsilon = _number(obj.get("epsilon", 1.0), f"{where}.epsilon", strict_min=0.0)
    reg_keys = [k for k in ("eps_reg", "tsvd_tol", "regularization") if k in obj]
    if len(reg_keys) > 1:
        raise ConfigError(
            f"{where}: keys {reg_keys} conflict; give at most one regularization"
        )
    if "tsvd_tol" in obj:
        reg = TSVD(_number(obj["tsvd_tol"], f"{where}.tsvd_tol", strict_min=0.0))
    elif "regularization" in obj:
        word = _string(obj["regularization"], f"{where}.regularization")
        if word != "none":
            raise ConfigError(
                f"{where}.regularization accepts only 'none' "
                "(use eps_reg or tsvd_tol otherwise)"
            )
        reg = None
    else:
        reg = Tikhonov(_number(obj.get("eps_reg", 1e-12), f"{where}.eps_reg", strict_min=0.0))
    label = obj.get("label")
    if label is not None:
        label = _string(label, f"{where}.label")
    try:
        return KernelSetting(
            family=family, zeta=zeta, epsilon=epsilon, regularization=reg, label=label
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_reference(obj, where: str = "reference") -> ReferenceSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _string(_require(obj, "kind", where), f"{where}.kind")
    if kind == "exact":
        _check_keys(obj, ("kind",), where)
        return ReferenceSpec.exact()
    if kind == "kernel":
        _check_keys(obj, ("kind", "n_max", "kernel"), where)
        n_max = _integer(_require(obj, "n_max", where), f"{where}.n_max", minimum=1)
        kernel = _parse_kernel(_require(obj, "kernel", where), f"{where}.kernel")
        return ReferenceSpec.kernel_at(n_max, kernel)
    raise ConfigError(f"{where}.kind must be 'exact' or 'kernel', got '{kind}'")


_TOP_KEYS = (
    "domain",
    "model",
    "kernels",
    "schedule",
    "level",
    "norm",
    "reference",
    "n",
    "jobs",
    "out",
    "csv",
    "fit_window",
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; study-only fields may be absent."""

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

    def first_kernel(self) -> KernelSetting:
        if not self.kernels:
            raise ConfigError("missing key 'kernels' (at least one kernel needed)")
        return self.kernels[0]

    def sample_count(self) -> int:
        if self.n is None:
            raise ConfigError("missing key 'n' (sample count; or pass --n)")
        return self.n

    def study(self) -> StudyConfig:
        if not self.kernels:
            raise ConfigError("missing key 'kernels' (at least one kernel needed)")
        if self.schedule is None:
            raise ConfigError("missing key 'schedule' (sample counts for the study)")
        # every StudyConfig field is a RunConfig field of the same name
        return _study_rule(StudyConfig, **{f.name: getattr(self, f.name) for f in fields(StudyConfig)})


def parse_config(data, base_dir=".") -> RunConfig:
    """Validate a decoded JSON object into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys(data, _TOP_KEYS, "config")
    base_dir = Path(base_dir)
    domain = _parse_domain(_require(data, "domain", "config"))
    if domain.dim > MAX_DIM:
        raise ConfigError(f"domain dimension {domain.dim} exceeds the limit {MAX_DIM}")
    model = _parse_model(_require(data, "model", "config"), domain.dim, base_dir)
    kernels = ()
    if "kernels" in data:
        raw = data["kernels"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config.kernels must be a non-empty list")
        kernels = tuple(
            _parse_kernel(obj, f"kernels[{i}]") for i, obj in enumerate(raw)
        )
        _study_rule(_check_columns, kernels)
    schedule = None
    if "schedule" in data:
        raw = data["schedule"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config.schedule must be a non-empty list")
        schedule = tuple(
            _integer(v, f"schedule[{i}]", minimum=1) for i, v in enumerate(raw)
        )
        _study_rule(_check_schedule, schedule)
    level = _integer(data.get("level", 7), "config.level")
    _study_rule(_level_nodes, level)
    norm = data.get("norm", "abs_l2")
    _study_rule(_check_norm, norm)
    reference = (
        _parse_reference(data["reference"]) if "reference" in data else ReferenceSpec.exact()
    )
    n = data.get("n")
    if n is not None:
        n = _integer(n, "config.n", minimum=0)
    jobs = _integer(data.get("jobs", 1), "config.jobs", minimum=1)
    out_dir = _string(data.get("out", "."), "config.out") if "out" in data else "."
    csv_name = _string(data.get("csv", "study.csv"), "config.csv") if "csv" in data else "study.csv"
    fit_window = _integer(data.get("fit_window", 4), "config.fit_window", minimum=2)
    return RunConfig(
        domain=domain,
        model=model,
        kernels=kernels,
        schedule=schedule,
        level=level,
        norm=norm,
        reference=reference,
        n=n,
        jobs=jobs,
        out_dir=out_dir,
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
