"""JSON run configuration: one builder for the input file and the study sidecar.

Each value rule, type and finiteness included, belongs to the object the
value configures.  ``_build``, the inverse of ``study.config_echo``,
builds each ``{"type": ...}`` object as its class in ``_TYPES`` and names
the key path of the constructor's refusal, so a key, a CLI flag and a
constructor refuse alike.  A sidecar's ``config`` is built as written, its
``root`` too; the input file's shorthand (``kind``, ``grid_points``,
``eps_reg``, ``"none"``, a relative ``root``, ...) is translated into those
objects, each shorthand sub-object built at its own key.  A relative
``root`` becomes an absolute path against the config file's directory, so
the sidecar echoes a root that reads the same cache from any directory.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from ._checks import _integer, _string
from .collocation import TSVD, Tikhonov
from .models import External, GFunction, GridSpec, KLField, PoissonExact
from .models.external import _check_jobs
from .param_space import ParameterDomain, _halton_bases
from .quadrature import _check_moments, _level_nodes
from .study import KernelSetting, ReferenceSpec, StudyConfig, _check_columns, _check_fit_window, _check_model, _check_norm, _check_schedule


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def _check_keys(obj: dict, allowed, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing key '{key}' in {where}")
    return obj[key]


def _owned(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, the owner's ValueError raised as a ConfigError naming ``where``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# Each dataclass that config_echo writes for a study, under the type name it writes.
_TYPES = {cls.__name__.lower(): cls for cls in (StudyConfig, ParameterDomain, GridSpec, PoissonExact, GFunction,
                                                KLField, External, KernelSetting, Tikhonov, TSVD, ReferenceSpec)}


def _build(value, where: str):
    """A ``{"type": ...}`` object built as its class (``_object``), a list as the
    tuple of its entries built in turn, any other value as it is."""
    if isinstance(value, list):
        return tuple(_build(v, f"{where}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, dict):
        return value
    name = value.get("type")
    if not (isinstance(name, str) and name in _TYPES):
        raise ConfigError(f"{where}: unknown type {name!r}; expected one of {', '.join(_TYPES)}")
    return _object(_TYPES[name], {k: v for k, v in value.items() if k != "type"}, where)


def _object(cls, obj: dict, where: str):
    """``cls`` built from ``obj``, whose keys are init fields of ``cls`` and whose values ``_build`` builds."""
    init = [f for f in fields(cls) if f.init]
    _check_keys(obj, [f.name for f in init], where)
    for f in init:
        if f.default is MISSING and f.default_factory is MISSING:
            _require(obj, f.name, where)
    return _owned(where, cls, **{key: _build(value, f"{where}.{key}") for key, value in obj.items()})


def _domain(obj) -> ParameterDomain:
    if not isinstance(obj, dict):
        raise ConfigError("domain must be an object")
    if "kind" not in obj:
        return _object(ParameterDomain, obj, "domain")
    kind = obj["kind"]
    if kind not in ("unit", "symmetric"):
        raise ConfigError(f"domain.kind must be 'unit' or 'symmetric', got {kind!r}")
    _check_keys(obj, ("kind", "dim", "half_width") if kind == "symmetric" else ("kind", "dim"), "domain")
    dim = _require(obj, "dim", "domain")
    _owned("domain", _halton_bases, dim)  # before the box, 16 bytes per dimension, is allocated
    if kind == "unit":
        return _owned("domain", ParameterDomain.unit, dim)
    return _owned("domain", ParameterDomain.symmetric, _require(obj, "half_width", "domain"), dim)


# The keys of each model kind besides "kind".
_MODEL_KEYS = {"poisson": ("grid_points",), "gfunction": (), "kl": ("correlation_length", "x2_points"),
               "external": ("command", "root", "timeout", "expected_m")}


def _model(obj, dim: int, base_dir: Path):
    if not isinstance(obj, dict):
        raise ConfigError("model must be an object")
    kind = _require(obj, "kind", "model")
    if not (isinstance(kind, str) and kind in _MODEL_KEYS):
        raise ConfigError(f"model.kind must be one of {', '.join(_MODEL_KEYS)}; got {kind!r}")
    given = {key: value for key, value in obj.items() if key != "kind"}
    _check_keys(given, _MODEL_KEYS[kind], "model")
    if kind == "poisson":
        n = given.get("grid_points", 33)
        grid = _object(GridSpec, {"extents": ((-0.5, 0.5), (-0.5, 0.5)), "counts": (n, n)}, "model.grid_points")
        return _object(PoissonExact, {"grid": grid}, "model.grid_points")
    if kind == "external":
        if isinstance(given.get("root"), str) and given["root"]:
            # absolute, so the sidecar's echo names the same root from any working directory;
            # an absolute root stays as it is, and ".." is kept, as a symlink may precede it
            given["root"] = str(base_dir.absolute() / given["root"])
        return _object(External, given, "model")
    if kind == "kl":
        n = given.pop("x2_points", 33)
        given["grid"] = _object(GridSpec, {"extents": ((0.0, 1.0),), "counts": (n,)}, "model.x2_points")
    return _object(KLField if kind == "kl" else GFunction, {**given, "dim": dim}, "model")


def _kernel(obj, where: str) -> KernelSetting:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    regularizations = ("eps_reg", "tsvd_tol", "regularization")
    _check_keys(obj, ("family", "zeta", "epsilon", "label", *regularizations), where)
    reg_keys = [key for key in regularizations if key in obj]
    if len(reg_keys) > 1:
        raise ConfigError(f"{where}: keys {reg_keys} conflict; give at most one regularization")
    given = {key: value for key, value in obj.items() if key not in regularizations}
    if "eps_reg" in obj:
        given["regularization"] = _object(Tikhonov, {"eps_reg": obj["eps_reg"]}, f"{where}.eps_reg")
    elif "tsvd_tol" in obj:
        given["regularization"] = _object(TSVD, {"drop_tol": obj["tsvd_tol"]}, f"{where}.tsvd_tol")
    elif "regularization" in obj:
        if obj["regularization"] != "none":
            raise ConfigError(f"{where}.regularization accepts only 'none' (use eps_reg or tsvd_tol otherwise)")
        given["regularization"] = None
    return _object(KernelSetting, given, where)


def _reference(obj) -> ReferenceSpec:
    if not isinstance(obj, dict):
        raise ConfigError("reference must be an object")
    if obj.get("kind") == "kernel" and "kernel" in obj:
        obj = {**obj, "kernel": _kernel(obj["kernel"], "reference.kernel")}
    return _object(ReferenceSpec, obj, "reference")


_TOP_KEYS = ("domain", "model", "kernels", "schedule", "level", "norm", "reference", "n", "jobs", "out", "csv", "fit_window")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, study-only fields optional; each value, one
    that a CLI flag overrides too, is checked at construction by its owner's rule."""

    domain: ParameterDomain
    model: object
    kernels: tuple = ()
    schedule: tuple | None = None
    level: int = 7
    norm: str = "abs_l2"
    reference: ReferenceSpec = field(default_factory=ReferenceSpec.exact)
    n: int | None = None
    jobs: int = 1
    out_dir: str = "."
    csv_name: str = "study.csv"
    fit_window: int = 4

    def __post_init__(self):
        _owned("domain", _halton_bases, self.domain.dim)
        _owned("model", _check_model, self.model, self.domain)
        _owned("config.kernels", _check_columns, self.kernels)
        for i, kernel in enumerate(self.kernels):
            _owned(f"kernels[{i}].family", _check_moments, kernel.family, self.domain.dim)
        if self.reference.kind == "kernel":
            _owned("reference.kernel.family", _check_moments, self.reference.kernel.family, self.domain.dim)
        if self.schedule is not None:
            object.__setattr__(self, "schedule", _owned("config.schedule", _check_schedule, self.schedule))
        for key, rule in (("level", _level_nodes), ("norm", _check_norm), ("fit_window", _check_fit_window), ("jobs", _check_jobs)):
            _owned(f"config.{key}", rule, getattr(self, key))
        if self.n is not None and _owned("config.n", _integer, self.n, "n") < 0:
            raise ConfigError(f"config.n must be >= 0, got {self.n}")
        _owned("config.out", _string, self.out_dir, "out")
        _owned("config.csv", _string, self.csv_name, "csv")

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
    """Validate a decoded JSON object, an input file or a study sidecar, into a
    RunConfig; an input file's relative External ``root`` resolves against ``base_dir``,
    to an absolute path."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    if "config" in data:  # a study sidecar
        _check_keys(data, ("config", "orders", "fit_points", "wall_time_s"), "sidecar")
        study = _build(data["config"], "config")
        if not isinstance(study, StudyConfig):
            raise ConfigError(f"config: a sidecar's config must be a studyconfig, got {study!r}")
        return RunConfig(**{f.name: getattr(study, f.name) for f in fields(StudyConfig)})
    _check_keys(data, _TOP_KEYS, "config")
    given = {{"out": "out_dir", "csv": "csv_name"}.get(key, key): value for key, value in data.items()}
    given["domain"] = _domain(_require(data, "domain", "config"))
    given["model"] = _model(_require(data, "model", "config"), given["domain"].dim, Path(base_dir))
    if "kernels" in data:
        if not isinstance(data["kernels"], list) or not data["kernels"]:
            raise ConfigError("config.kernels must be a non-empty list")
        given["kernels"] = tuple(_kernel(obj, f"kernels[{i}]") for i, obj in enumerate(data["kernels"]))
    if "reference" in data:
        given["reference"] = _reference(data["reference"])
    return RunConfig(**given)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file or a study sidecar (``parse_config``)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or text that is not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)
