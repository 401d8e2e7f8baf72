import copy
import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfuq import (
    FAMILIES,
    MAX_DIM,
    NORM_TAGS,
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
from rbfuq.config import _build
from rbfuq.study import config_echo

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

    def test_exact_reference_on_another_box(self):
        data = minimal(
            domain={"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 2},
            kernels=[{"family": "gaussian"}],
            schedule=[4],
        )
        cfg = parse_config(data)
        match = r"config: the exact mean of GFunction is over \[0, 1\] x \[0, 1\], not"
        with pytest.raises(ConfigError, match=match):
            cfg.study()

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
    "label": (
        minimal(kernels=[{"family": "gaussian", "label": ""}]),
        "kernels[0]",
        lambda: KernelSetting("gaussian", label=""),
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
    # an empty interval whose width hi - lo overflows
    "half_width -1e308": (
        minimal(domain={"kind": "symmetric", "half_width": -1e308, "dim": 2}),
        "domain",
        lambda: ParameterDomain.symmetric(-1e308, 2),
    ),
    # finite bounds whose width hi - lo overflows
    "half_width 1e308": (
        minimal(domain={"kind": "symmetric", "half_width": 1e308, "dim": 2}),
        "domain",
        lambda: ParameterDomain.symmetric(1e308, 2),
    ),
    "dim": (minimal(domain={"kind": "unit", "dim": 0}), "domain", lambda: ParameterDomain.unit(0)),
    "dim -1": (minimal(domain={"kind": "unit", "dim": -1}), "domain", lambda: ParameterDomain.unit(-1)),
    "symmetric dim -1": (
        minimal(domain={"kind": "symmetric", "half_width": 1.0, "dim": -1}),
        "domain",
        lambda: ParameterDomain.symmetric(1.0, -1),
    ),
    "n_max": (
        minimal(reference={"kind": "kernel", "n_max": 0, "kernel": {"family": "gaussian"}}),
        "reference",
        lambda: ReferenceSpec.kernel_at(0, KernelSetting("gaussian")),
    ),
    "reference kind": (minimal(reference={"kind": "fine"}), "reference", lambda: ReferenceSpec("fine")),
    "schedule": (minimal(schedule=[0, 8]), "config.schedule", lambda: study(schedule=(0, 8))),
    "level": (minimal(level=13), "config.level", lambda: study(level=13)),
    "wendland moments": (
        minimal(domain={"kind": "unit", "dim": 4}, kernels=[{"family": "gaussian"}, {"family": "wendland2"}]),
        "kernels[1].family",
        lambda: study(model=GFunction(dim=4), domain=ParameterDomain.unit(4), kernels=(KernelSetting("wendland2"),)),
    ),
    "reference wendland moments": (
        minimal(
            domain={"kind": "unit", "dim": 4},
            reference={"kind": "kernel", "n_max": 8, "kernel": {"family": "wendland0"}},
        ),
        "reference.kernel.family",
        lambda: study(
            model=GFunction(dim=4),
            domain=ParameterDomain.unit(4),
            reference=ReferenceSpec.kernel_at(8, KernelSetting("wendland0")),
        ),
    ),
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
    # type and finiteness rules, owned by the constructors too (json.loads reads
    # Infinity as math.inf); a float count used to be truncated in silence
    "zeta true": (
        minimal(kernels=[{"family": "gaussian", "zeta": True}]),
        "kernels[0]",
        lambda: KernelSetting("gaussian", zeta=True),
    ),
    "zeta Infinity": (
        minimal(kernels=[{"family": "gaussian", "zeta": math.inf}]),
        "kernels[0]",
        lambda: KernelSetting("gaussian", zeta=math.inf),
    ),
    "eps_reg Infinity": (
        minimal(kernels=[{"family": "gaussian", "eps_reg": math.inf}]),
        "kernels[0].eps_reg",
        lambda: Tikhonov(math.inf),
    ),
    "tsvd_tol Infinity": (
        minimal(kernels=[{"family": "gaussian", "tsvd_tol": math.inf}]),
        "kernels[0].tsvd_tol",
        lambda: TSVD(math.inf),
    ),
    "timeout Infinity": (
        minimal(model=external(timeout=math.inf)),
        "model",
        lambda: External("solver {params}", "runs", timeout=math.inf),
    ),
    "correlation_length Infinity": (
        minimal(model={"kind": "kl", "correlation_length": math.inf}),
        "model",
        lambda: KLField(2, correlation_length=math.inf),
    ),
    "schedule entry 4.5": (minimal(schedule=[4.5, 8]), "config.schedule", lambda: study(schedule=(4.5, 8))),
    "fit_window 4.5": (minimal(fit_window=4.5), "config.fit_window", lambda: study(fit_window=4.5)),
    "n_max 4.5": (
        minimal(reference={"kind": "kernel", "n_max": 4.5, "kernel": {"family": "gaussian"}}),
        "reference",
        lambda: ReferenceSpec.kernel_at(4.5, KernelSetting("gaussian")),
    ),
    "expected_m 4.5": (
        minimal(model=external(expected_m=4.5)),
        "model",
        lambda: External("solver {params}", "runs", expected_m=4.5),
    ),
    "grid_points 4.5": (
        minimal(
            domain={"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            model={"kind": "poisson", "grid_points": 4.5},
        ),
        "model.grid_points",
        lambda: GridSpec(extents=((-0.5, 0.5), (-0.5, 0.5)), counts=(4.5, 4.5)),
    ),
    "lower '0'": (
        minimal(domain={"lower": ["0", 0.0], "upper": [1.0, 1.0]}),
        "domain",
        lambda: ParameterDomain(["0", 0.0], [1.0, 1.0]),
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

    @pytest.mark.parametrize("domain", [{"kind": "unit"}, {"kind": "symmetric", "half_width": 1.0}])
    def test_dimension_limit_is_checked_before_the_box_is_built(self, domain):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="exceeds the 64 available prime bases"):
                parse_config(minimal(domain={**domain, "dim": 10**7}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    def test_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
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


def _key_paths(value, path=()):
    """Every key path of a decoded JSON document, the empty path of the whole included."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _key_paths(child, (*path, key))


BUNDLED = {path.name: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
KEY_PATHS = [(name, path) for name, doc in BUNDLED.items() for path in _key_paths(doc)]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**12), 10**12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(KEY_PATHS), value=JSON_VALUES)
def test_any_json_value_at_any_key_path_parses_or_is_a_config_error(case, value):
    name, path = case
    try:
        parse_config(_substituted(BUNDLED[name], path, value), base_dir=CONFIGS)
    except ConfigError:
        pass


def _substituted(doc, path, value):
    """A copy of ``doc`` with ``value`` at key ``path`` (the empty path: ``value`` itself)."""
    if not path:
        return value
    data = copy.deepcopy(doc)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def _sidecar(name):
    """The sidecar document of a bundled config's study, as ``write_report`` lays it out."""
    echo = config_echo(load_config(CONFIGS / name).study())
    return json.loads(json.dumps({"config": echo, "orders": {}, "fit_points": {}, "wall_time_s": 0.0}))


SIDECARS = {name: _sidecar(name) for name in BUNDLED}


class TestSidecar:
    @pytest.mark.parametrize("name", sorted(SIDECARS))
    def test_builder_inverts_the_echo(self, name):
        # echoes, not objects: ParameterDomain's array fields make == ambiguous
        echo = SIDECARS[name]["config"]
        assert config_echo(_build(echo, "config")) == echo
        assert config_echo(parse_config(SIDECARS[name]).study()) == echo

    def test_sidecar_takes_the_run_defaults(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(SIDECARS["gfunction_external.json"]))
        cfg = load_config(path)
        assert (cfg.n, cfg.out_dir, cfg.csv_name, cfg.jobs) == (None, ".", "study.csv", 2)
        # resolved against configs/ when the input file was loaded, and kept as written
        assert cfg.model.root == str(CONFIGS / "../runs/gfunction")

    def test_model_that_echoes_as_its_type_alone_is_refused(self):
        class Custom:
            def evaluate(self, y):
                raise AssertionError("never evaluated")

        data = copy.deepcopy(SIDECARS["kl_field.json"])
        data["config"]["model"] = config_echo(Custom())
        with pytest.raises(ConfigError, match=r"^config\.model: unknown type 'custom'; expected one of studyconfig, "):
            parse_config(data)

    def test_registered_type_that_is_no_model_is_refused(self):
        # a kernel reference needs no exact mean, so only the model rule stands in the way
        data = copy.deepcopy(SIDECARS["smooth_external.json"])
        data["config"]["model"] = config_echo(Tikhonov(1e-8))
        with pytest.raises(ConfigError, match="^config: model must be External or have an evaluate method, got Tikhonov"):
            parse_config(data)

    def test_sidecar_config_must_be_a_study(self):
        data = {"config": config_echo(Tikhonov(1e-8))}
        with pytest.raises(ConfigError, match="^config: a sidecar's config must be a studyconfig"):
            parse_config(data)

    def test_unknown_sidecar_key(self):
        with pytest.raises(ConfigError, match="unknown key 'n' in sidecar"):
            parse_config({**SIDECARS["kl_field.json"], "n": 4})


@st.composite
def study_configs(draw):
    """A StudyConfig of in-process or external model, each value drawn from its valid range."""
    dim = draw(st.integers(1, 3))  # Wendland moments exist in every drawn dimension
    reals = st.floats(1e-6, 1e6)
    schedule = draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4, unique=True).map(sorted))
    labels = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True))
    regularizations = st.none() | reals.map(Tikhonov) | reals.map(TSVD)
    kernels = tuple(
        KernelSetting(draw(st.sampled_from(FAMILIES)), draw(reals), draw(reals), draw(regularizations), label)
        for label in labels
    )
    if draw(st.booleans()):
        model, domain, reference = GFunction(dim), ParameterDomain.unit(dim), ReferenceSpec.exact()
    else:
        model = External("solver {params} {dir}", draw(st.text(min_size=1)), draw(reals), draw(st.none() | st.integers(1, 99)))
        lower = draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
        domain = ParameterDomain(lower, [lo + draw(st.floats(1e-3, 1e3)) for lo in lower])
        reference = ReferenceSpec.kernel_at(schedule[-1] + draw(st.integers(0, 99)), draw(st.sampled_from(kernels)))
    return StudyConfig(
        model, domain, kernels, tuple(schedule), draw(st.integers(1, 12)), draw(st.sampled_from(NORM_TAGS)),
        reference, draw(st.integers(1, 8)), draw(st.integers(2, 6)),
    )


@settings(max_examples=200, deadline=None)
@given(config=study_configs())
def test_builder_inverts_the_echo_of_any_study(config):
    echo = json.loads(json.dumps(config_echo(config)))
    assert config_echo(_build(echo, "config")) == echo
    assert config_echo(parse_config({"config": echo}).study()) == echo


SIDECAR_KEY_PATHS = [(name, path) for name, doc in SIDECARS.items() for path in _key_paths(doc)]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(SIDECAR_KEY_PATHS), value=JSON_VALUES)
def test_any_json_value_at_any_sidecar_key_path_builds_or_is_a_config_error(case, value):
    name, path = case
    try:
        parse_config(_substituted(SIDECARS[name], path, value))
    except ConfigError:
        pass
