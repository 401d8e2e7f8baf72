import dataclasses
import json
import math
from pathlib import Path

import pytest

from rbfuq import (
    MAX_DIM,
    ConfigError,
    External,
    GFunction,
    GridSpec,
    KernelSetting,
    KLField,
    ParameterDomain,
    PoissonExact,
    ReferenceSpec,
    StudyConfig,
    TSVD,
    Tikhonov,
    halton_points,
    load_config,
    parse_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def minimal(**extra):
    data = {
        "domain": {"kind": "unit", "dim": 2},
        "model": {"kind": "gfunction"},
    }
    data.update(extra)
    return data


class TestDomain:
    def test_unit(self):
        cfg = parse_config(minimal())
        assert cfg.domain.dim == 2
        assert cfg.domain.volume == 1.0

    def test_symmetric(self):
        data = minimal(domain={"kind": "symmetric", "half_width": 2.0, "dim": 3})
        cfg = parse_config(data)
        assert cfg.domain.lower.tolist() == [-2.0, -2.0, -2.0]

    def test_explicit_bounds(self):
        data = minimal(domain={"lower": [0.0, -1.0], "upper": [1.0, 1.0]})
        cfg = parse_config(data)
        assert cfg.domain.upper.tolist() == [1.0, 1.0]

    def test_inverted_bounds_rejected(self):
        data = minimal(domain={"lower": [1.0], "upper": [0.0]})
        data["model"] = {"kind": "poisson"}
        with pytest.raises(ConfigError, match="domain"):
            parse_config(data)

    def test_unknown_domain_kind(self):
        with pytest.raises(ConfigError, match="domain.kind"):
            parse_config(minimal(domain={"kind": "ball", "dim": 2}))

    def test_unknown_domain_key(self):
        with pytest.raises(ConfigError, match="unknown key 'radius' in domain"):
            parse_config(minimal(domain={"kind": "unit", "dim": 2, "radius": 1.0}))


class TestModel:
    def test_poisson_defaults(self):
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            "model": {"kind": "poisson"},
        }
        model = parse_config(data).model
        assert isinstance(model, PoissonExact)
        assert model.grid.counts == (33, 33)

    def test_poisson_needs_1d_domain(self):
        with pytest.raises(ConfigError, match="model: model of dimension 1 on a domain of dimension 2"):
            parse_config(minimal(model={"kind": "poisson"}))

    def test_kl_defaults(self):
        data = minimal(model={"kind": "kl"})
        model = parse_config(data).model
        assert isinstance(model, KLField)
        assert model.correlation_length == 2.0
        assert model.grid.counts == (33,)

    def test_gfunction_takes_domain_dim(self):
        model = parse_config(minimal()).model
        assert isinstance(model, GFunction)
        assert model.dim == 2

    def test_external_relative_root(self, tmp_path):
        data = minimal(
            model={"kind": "external", "command": "solver {params}", "root": "runs/x"}
        )
        model = parse_config(data, base_dir=tmp_path).model
        assert isinstance(model, External)
        assert model.root == str(tmp_path / "runs" / "x")
        assert model.timeout == 60.0
        assert model.expected_m is None

    def test_external_absolute_root(self, tmp_path):
        data = minimal(
            model={
                "kind": "external",
                "command": "solver {params}",
                "root": str(tmp_path),
                "expected_m": 5,
            }
        )
        model = parse_config(data, base_dir="/elsewhere").model
        assert model.root == str(tmp_path)
        assert model.expected_m == 5

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError, match="model.kind"):
            parse_config(minimal(model={"kind": "heat"}))

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError, match="unknown key 'mesh' in model"):
            parse_config(minimal(model={"kind": "gfunction", "mesh": 3}))


class TestKernels:
    def test_defaults(self):
        cfg = parse_config(minimal(kernels=[{"family": "wendland2"}]))
        k = cfg.first_kernel()
        assert k.zeta == 1.0
        assert k.epsilon == 1.0
        assert k.regularization == Tikhonov(1e-12)
        assert k.column == "wendland2"

    def test_tsvd(self):
        cfg = parse_config(minimal(kernels=[{"family": "gaussian", "tsvd_tol": 1e-6}]))
        assert cfg.first_kernel().regularization == TSVD(1e-6)

    def test_regularization_none(self):
        cfg = parse_config(minimal(kernels=[{"family": "gaussian", "regularization": "none"}]))
        assert cfg.first_kernel().regularization is None

    def test_regularization_conflict(self):
        data = minimal(kernels=[{"family": "gaussian", "eps_reg": 1e-10, "tsvd_tol": 1e-6}])
        with pytest.raises(ConfigError, match="conflict"):
            parse_config(data)

    def test_regularization_word_other_than_none(self):
        data = minimal(kernels=[{"family": "gaussian", "regularization": "tikhonov"}])
        with pytest.raises(ConfigError, match="only 'none'"):
            parse_config(data)

    def test_unknown_kernel_key_is_located(self):
        data = minimal(kernels=[{"family": "gaussian"}, {"family": "wendland0", "bw": 2}])
        with pytest.raises(ConfigError, match=r"unknown key 'bw' in kernels\[1\]"):
            parse_config(data)

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            parse_config(minimal(kernels=[{"family": "spline"}]))

    def test_label_collision(self):
        data = minimal(kernels=[{"family": "gaussian"}, {"family": "gaussian", "zeta": 2.0}])
        with pytest.raises(ConfigError, match="collide"):
            parse_config(data)


class TestReferenceAndTopLevel:
    def test_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.level == 7
        assert cfg.norm == "abs_l2"
        assert cfg.reference.kind == "exact"
        assert cfg.jobs == 1
        assert cfg.fit_window == 4

    def test_kernel_reference(self):
        data = minimal(
            reference={"kind": "kernel", "n_max": 128, "kernel": {"family": "gaussian"}}
        )
        ref = parse_config(data).reference
        assert ref.kind == "kernel"
        assert ref.n_max == 128
        assert ref.kernel.family == "gaussian"

    def test_reference_kernel_needs_n_max(self):
        data = minimal(reference={"kind": "kernel", "kernel": {"family": "gaussian"}})
        with pytest.raises(ConfigError, match="n_max"):
            parse_config(data)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'seed' in config"):
            parse_config(minimal(seed=3))

    def test_quadrature_cap_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown key 'quadrature_cap' in config"):
            parse_config(minimal(quadrature_cap=10 ** 6))

    @pytest.mark.parametrize("level", [0, 13])
    def test_level_out_of_range_names_the_level(self, level):
        with pytest.raises(ConfigError, match=f"level must be between 1 and 12, got {level}"):
            parse_config(minimal(level=level))

    def test_schedule_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(minimal(schedule=[16, 8]))

    def test_schedule_type_error_is_located(self):
        with pytest.raises(ConfigError, match=r"schedule\[1\]"):
            parse_config(minimal(schedule=[8, "x"]))

    def test_boolean_is_not_a_number(self):
        data = minimal(kernels=[{"family": "gaussian", "zeta": True}])
        with pytest.raises(ConfigError, match="zeta"):
            parse_config(data)

    def test_study_requires_schedule(self):
        cfg = parse_config(minimal(kernels=[{"family": "gaussian"}]))
        with pytest.raises(ConfigError, match="schedule"):
            cfg.study()

    def test_study_requires_kernels(self):
        cfg = parse_config(minimal(schedule=[4, 8]))
        with pytest.raises(ConfigError, match="kernels"):
            cfg.study()

    def test_sample_count_requires_n(self):
        cfg = parse_config(minimal())
        with pytest.raises(ConfigError, match="'n'"):
            cfg.sample_count()
        assert parse_config(minimal(n=12)).sample_count() == 12

    def test_study_builds(self):
        data = minimal(kernels=[{"family": "gaussian", "epsilon": 2.0}], schedule=[4, 8])
        study = parse_config(data).study()
        assert study.schedule == (4, 8)
        assert study.kernels[0].epsilon == 2.0


def study(**kw):
    base = dict(
        model=GFunction(dim=2),
        domain=ParameterDomain.unit(2),
        kernels=(KernelSetting("gaussian"),),
        schedule=(4, 8),
    )
    return StudyConfig(**{**base, **kw})


def external(**kw):
    return {"kind": "external", "command": "solver {params}", "root": "runs", **kw}


# Each rule with one owner: the config that breaks it, the location its
# ConfigError names, and the Python call that breaks it with the same value.
OWNED_RULES = {
    "zeta": (
        minimal(kernels=[{"family": "gaussian", "zeta": -1}]),
        "kernels[0]",
        lambda: KernelSetting("gaussian", zeta=-1.0),
    ),
    "epsilon": (
        minimal(kernels=[{"family": "gaussian", "epsilon": 0}]),
        "kernels[0]",
        lambda: KernelSetting("gaussian", epsilon=0.0),
    ),
    "eps_reg": (
        minimal(kernels=[{"family": "gaussian", "eps_reg": 0}]),
        "kernels[0].eps_reg",
        lambda: Tikhonov(0.0),
    ),
    "tsvd_tol": (
        minimal(kernels=[{"family": "gaussian", "tsvd_tol": 0}]),
        "kernels[0].tsvd_tol",
        lambda: TSVD(0.0),
    ),
    "half_width": (
        minimal(domain={"kind": "symmetric", "half_width": 0, "dim": 2}),
        "domain",
        lambda: ParameterDomain.symmetric(0.0, 2),
    ),
    "dim": (minimal(domain={"kind": "unit", "dim": 0}), "domain", lambda: ParameterDomain.unit(0)),
    "n_max": (
        minimal(reference={"kind": "kernel", "n_max": 0, "kernel": {"family": "gaussian"}}),
        "reference",
        lambda: ReferenceSpec.kernel_at(0, KernelSetting("gaussian")),
    ),
    "reference kind": (minimal(reference={"kind": "fine"}), "reference", lambda: ReferenceSpec("fine")),
    "schedule": (minimal(schedule=[0, 8]), "config.schedule", lambda: study(schedule=(0, 8))),
    "level": (minimal(level=13), "config.level", lambda: study(level=13)),
    "fit_window": (minimal(fit_window=1), "config.fit_window", lambda: study(fit_window=1)),
    "command": (
        minimal(model=external(command="  ")),
        "model",
        lambda: External("  ", "runs"),
    ),
    "timeout": (
        minimal(model=external(timeout=0)),
        "model",
        lambda: External("solver {params}", "runs", timeout=0.0),
    ),
    "expected_m": (
        minimal(model=external(expected_m=0)),
        "model",
        lambda: External("solver {params}", "runs", expected_m=0),
    ),
    "correlation_length": (
        minimal(model={"kind": "kl", "correlation_length": -1}),
        "model",
        lambda: KLField(dim=2, correlation_length=-1.0),
    ),
    "x2_points": (
        minimal(model={"kind": "kl", "x2_points": 0}),
        "model.x2_points",
        lambda: GridSpec(extents=((0.0, 1.0),), counts=(0,)),
    ),
}


class TestOneOwnerPerRule:
    @pytest.mark.parametrize("rule", OWNED_RULES)
    def test_json_key_and_constructor_refuse_alike(self, rule):
        data, where, build = OWNED_RULES[rule]
        with pytest.raises(ValueError) as owner:
            build()
        assert not isinstance(owner.value, ConfigError)
        with pytest.raises(ConfigError) as config:
            parse_config(data)
        # the owner's own message, prefixed with the key's location
        assert str(config.value) == f"{where}: {owner.value}"

    def test_dimension_limit_is_halton_points_rule(self):
        dim = MAX_DIM + 1
        with pytest.raises(ValueError) as owner:
            halton_points(ParameterDomain.unit(dim), 1)
        with pytest.raises(ConfigError) as config:
            parse_config(minimal(domain={"kind": "unit", "dim": dim}))
        assert str(config.value) == f"domain: {owner.value}"

    def test_run_config_checks_n_jobs_and_out(self):
        cfg = parse_config(minimal())
        for key, value in (("n", -1), ("jobs", 0), ("out_dir", "")):
            with pytest.raises(ConfigError):
                dataclasses.replace(cfg, **{key: value})
        for key, value in (("n", -1), ("jobs", 0), ("out", "")):
            with pytest.raises(ConfigError, match=f"config.{key}"):
                parse_config(minimal(**{key: value}))


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(minimal(n=4)))
        assert load_config(path).sample_count() == 4

    def test_relative_root_resolves_against_config_dir(self, tmp_path):
        data = minimal(
            model={"kind": "external", "command": "solver {params}", "root": "runs"}
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert load_config(path).model.root == str(tmp_path / "runs")

    @pytest.mark.parametrize(
        "name",
        [
            "poisson_kernels.json",
            "poisson_zeta.json",
            "poisson_tikhonov.json",
            "poisson_tsvd.json",
            "gfunction_kernels.json",
            "gfunction_external.json",
            "smooth_external.json",
            "kl_field.json",
        ],
    )
    def test_bundled_configs_validate(self, name):
        cfg = load_config(CONFIGS / name)
        if cfg.kernels and cfg.schedule:
            cfg.study()
