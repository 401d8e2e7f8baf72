import dataclasses
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfuq import (
    External,
    GFunction,
    GridField,
    GridSpec,
    KLField,
    KernelSetting,
    ParameterDomain,
    PoissonExact,
    ReferenceSpec,
    SingularGramError,
    StudyConfig,
    StudyError,
    Tikhonov,
    TSVD,
    assemble_gram,
    condition_report,
    estimate,
    evaluate_samples,
    halton_points,
    load_config,
    moment_weights,
    run_study,
    solve,
    write_qoi,
    write_report,
)
from rbfuq import study
from rbfuq.study import _check_norm, _fit_tail, _norm_values, config_echo

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestErrorNorm:
    """``_norm_values``, the error of each (kernel, N) against the reference."""

    def test_abs_l2_is_rms(self):
        assert _norm_values(np.array([3.0, 4.0]), np.zeros(2), "abs_l2") == math.sqrt(12.5)

    def test_rel_l2(self):
        assert _norm_values(np.array([2.0, 2.0]), np.ones(2), "rel_l2") == 1.0

    def test_abs_scalar(self):
        assert _norm_values(np.array([3.0]), np.array([5.0]), "abs_scalar") == 2.0

    def test_rel_scalar(self):
        assert _norm_values(np.array([1.1]), np.array([2.0]), "rel_scalar") == abs(1.1 - 2.0) / 2.0

    def test_scalar_tag_needs_scalar_field(self):
        e = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            _norm_values(e, e, "abs_scalar")

    def test_zero_reference_rejected(self):
        for tag in ("rel_scalar", "rel_l2"):
            with pytest.raises(ValueError, match="zero reference"):
                _norm_values(np.array([1.0]), np.array([0.0]), tag)

    def test_grid_mismatch_rejected(self):
        # fields on grids of different sizes
        with pytest.raises(ValueError, match="size mismatch"):
            _norm_values(np.ones(2), np.ones(3), "abs_l2")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown norm tag 'l_infinity'"):
            _check_norm("l_infinity")


class TestFitOrder:
    """``_fit_tail``, the order fitted on the tail of each error curve."""

    def test_exact_first_order(self):
        pts = [(2, 0.1), (4, 0.05), (8, 0.025), (16, 0.0125)]
        order, used = _fit_tail(pts, 4, 0.0)
        assert abs(order - 1.0) < 1e-12
        assert used == (2, 4, 8, 16)

    def test_exact_second_order(self):
        pts = [(4, 1.0), (8, 0.25), (16, 0.0625), (32, 0.015625)]
        assert abs(_fit_tail(pts, 4, 0.0)[0] - 2.0) < 1e-12

    def test_flat_curve_is_zero(self):
        pts = [(2, 0.5), (4, 0.5), (8, 0.5), (16, 0.5)]
        assert abs(_fit_tail(pts, 4, 0.0)[0]) < 1e-12

    def test_window_ignores_preasymptotic_head(self):
        head = [(2, 1e3), (4, 1e3)]
        tail = [(8, 1e-2), (16, 2.5e-3), (32, 6.25e-4), (64, 1.5625e-4)]
        order, used = _fit_tail(head + tail, 4, 0.0)
        assert abs(order - 2.0) < 1e-12
        assert used == (8, 16, 32, 64)

    def test_floor_excludes_plateau(self):
        pts = [(8, 1e-2), (16, 1e-3), (32, 5e-6), (64, 5e-6)]
        order, used = _fit_tail(pts, 4, 1e-6)
        assert abs(order - math.log(10.0) / math.log(2.0)) < 1e-12
        assert used == (8, 16)

    def test_fully_plateaued_returns_none(self):
        pts = [(8, 5e-6), (16, 4e-6), (32, 3e-6), (64, 2e-6)]
        assert _fit_tail(pts, 4, 1e-6) == (None, ())

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            _fit_tail([(2, 0.1), (4, 0.0), (8, 0.1), (16, 0.1)], 4, 0.0)

    def test_short_list_uses_all_points(self):
        order, used = _fit_tail([(2, 0.1), (4, 0.05)], 4, 0.0)
        assert abs(order - 1.0) < 1e-12
        assert used == (2, 4)


class TestStudyConfigValidation:
    def setting(self, **kw):
        return KernelSetting(family="matern32", **kw)

    def config(self, **kw):
        base = dict(
            model=PoissonExact(),
            domain=ParameterDomain.symmetric(math.sqrt(3.0), 1),
            kernels=(self.setting(),),
            schedule=(4, 8),
        )
        base.update(kw)
        return StudyConfig(**base)

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            self.config(schedule=(8, 8))

    def test_schedule_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            self.config(schedule=(0, 8))

    def test_needs_a_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            self.config(kernels=())

    def test_column_collision(self):
        with pytest.raises(ValueError, match="collide"):
            self.config(kernels=(self.setting(), self.setting(zeta=2.0)))

    def test_labels_resolve_collision(self):
        cfg = self.config(kernels=(self.setting(label="a"), self.setting(zeta=2.0, label="b")))
        assert [k.column for k in cfg.kernels] == ["a", "b"]

    def test_kernel_reference_must_cover_schedule(self):
        ref = ReferenceSpec.kernel_at(4, self.setting())
        with pytest.raises(ValueError, match="cover"):
            self.config(reference=ref)

    def test_exact_reference_needs_exact_mean(self):
        class NoMean:
            dim = 1

            def evaluate(self, y):
                return GridField.scalar(0.0)

        with pytest.raises(ValueError, match="exact mean"):
            self.config(model=NoMean())

    def test_unknown_norm_tag(self):
        with pytest.raises(ValueError, match="norm"):
            self.config(norm="max")

    @pytest.mark.parametrize(
        "model,domain",
        [
            (GFunction(dim=2), ParameterDomain.symmetric(math.sqrt(3.0), 2)),
            (PoissonExact(), ParameterDomain.unit(1)),
            (KLField(dim=2), ParameterDomain.unit(2)),
        ],
    )
    def test_exact_reference_refuses_another_box(self, model, domain):
        match = f"the exact mean of {type(model).__name__} is over"
        with pytest.raises(ValueError, match=match):
            self.config(model=model, domain=domain)
        self.config(model=model, domain=model.mean_box)
        self.config(model=model, domain=domain, reference=ReferenceSpec.kernel_at(8, self.setting()))

    def test_exact_reference_of_a_model_without_a_box_is_unchecked(self):
        class MeanOnly:
            dim = 1

            def evaluate(self, y):
                return GridField.scalar(0.0)

            def exact_mean(self):
                return GridField.scalar(0.0)

        self.config(model=MeanOnly(), domain=ParameterDomain.unit(1))

    def test_dimension_rule_runs_before_the_box_rule(self):
        with pytest.raises(ValueError, match="model of dimension 1 on a domain of dimension 2"):
            self.config(domain=ParameterDomain.unit(2))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            KernelSetting(family="cubic")

    def test_regularization_must_be_one(self):
        # a bare shift would otherwise fail only in the solve, after the model ran
        with pytest.raises(ValueError, match="regularization must be Tikhonov, TSVD or None, got 1e-08"):
            KernelSetting(family="gaussian", regularization=1e-8)


class CountingModel:
    """Scalar model that counts how often it is evaluated."""

    def __init__(self, dim=1):
        self.dim = dim
        self.calls = 0

    def evaluate(self, y):
        self.calls += 1
        return GridField.scalar(float(np.asarray(y).ravel()[0]) ** 2)

    def exact_mean(self):
        return GridField.scalar(1.0)


@dataclasses.dataclass(frozen=True)
class RelabelledModel:
    """A frozen-dataclass model with a tuple and an array field, read through ``base``."""

    base: object
    perm: tuple
    mean: np.ndarray

    @property
    def dim(self) -> int:
        return self.base.dim

    def evaluate(self, y):
        return self.base.evaluate(np.asarray(y)[list(self.perm)])

    def exact_mean(self):
        return self.base.exact_mean()


class TestRunStudy:
    def domain(self):
        return ParameterDomain.symmetric(math.sqrt(3.0), 1)

    def test_model_evaluated_once_per_sample(self):
        model = CountingModel()
        config = StudyConfig(
            model=model,
            domain=self.domain(),
            kernels=(KernelSetting(family="matern32"), KernelSetting(family="wendland1")),
            schedule=(4, 8, 16),
            level=5,
        )
        run_study(config)
        assert model.calls == 16

    def test_kernel_reference_extends_sampling(self):
        model = CountingModel()
        setting = KernelSetting(family="matern32")
        config = StudyConfig(
            model=model,
            domain=self.domain(),
            kernels=(setting,),
            schedule=(4, 8),
            level=5,
            reference=ReferenceSpec.kernel_at(32, setting),
        )
        run_study(config)
        assert model.calls == 32

    def test_report_structure(self):
        config = StudyConfig(
            model=PoissonExact(),
            domain=self.domain(),
            kernels=(KernelSetting(family="gaussian"), KernelSetting(family="wendland2")),
            schedule=(4, 8, 16),
            level=6,
        )
        report = run_study(config)
        assert report.columns == ("gaussian", "wendland2")
        assert report.schedule == (4, 8, 16)
        for column in report.columns:
            assert len(report.errors[column]) == 3
            assert all(e >= 0.0 for e in report.errors[column])
        assert set(report.config_echo) >= {"model", "domain", "kernels", "schedule", "norm"}
        assert report.wall_time > 0.0

    def test_reference_identity_gives_zero_final_error(self):
        setting = KernelSetting(family="matern32")
        config = StudyConfig(
            model=PoissonExact(),
            domain=self.domain(),
            kernels=(setting,),
            schedule=(8, 16),
            level=6,
            reference=ReferenceSpec.kernel_at(16, setting),
        )
        report = run_study(config)
        assert report.errors["matern32"][-1] == 0.0
        assert report.orders["matern32"] is None
        assert report.fit_points["matern32"] == ()

    def test_deterministic_csv(self, tmp_path):
        config = StudyConfig(
            model=PoissonExact(),
            domain=self.domain(),
            kernels=(KernelSetting(family="gaussian"), KernelSetting(family="wendland0")),
            schedule=(4, 8, 16),
            level=6,
        )
        p1, _ = write_report(run_study(config), tmp_path / "a.csv")
        p2, _ = write_report(run_study(config), tmp_path / "b.csv")
        with open(p1, "rb") as fh:
            first = fh.read()
        with open(p2, "rb") as fh:
            second = fh.read()
        assert first == second

    def test_singular_solve_is_annotated(self):
        # zeta ~ 0 collapses every matern12 entry to 1: exactly singular
        setting = KernelSetting(family="matern12", zeta=1e-300, regularization=None)
        config = StudyConfig(
            model=PoissonExact(),
            domain=self.domain(),
            kernels=(setting,),
            schedule=(8,),
            level=5,
        )
        with pytest.raises(StudyError) as info:
            run_study(config)
        assert info.value.kernel == "matern12"
        assert info.value.n == 8


class TestModelDimension:
    @pytest.mark.parametrize(
        "model,domain",
        [
            (GFunction(dim=3), ParameterDomain.unit(2)),
            (PoissonExact(), ParameterDomain.symmetric(math.sqrt(3.0), 3)),
            (KLField(dim=5), ParameterDomain.symmetric(math.sqrt(3.0), 3)),
        ],
    )
    def test_estimate_refuses_a_model_of_another_dimension(self, model, domain):
        match = f"model of dimension {model.dim} on a domain of dimension {domain.dim}"
        with pytest.raises(ValueError, match=match):
            estimate(model, domain, {KernelSetting(family="gaussian"): (4,)})


LOGGING_STUB = """\
import pathlib, struct, sys
with open(sys.argv[2], "a") as log:
    log.write(sys.argv[1] + "\\n")
with open(pathlib.Path(sys.argv[1]) / "qoi.bin", "wb") as fh:
    fh.write(struct.pack("<Qd", 1, 1.0))
"""


class TestRefusedBeforeEvaluation:
    """A refused ``estimate`` call evaluates nothing and launches no solver."""

    # requests, the dimension of the box, and the refusal each raises
    BAD = {
        "wendland3 in D = 5": (
            {KernelSetting("gaussian"): (4,), KernelSetting("wendland3"): (8,)},
            5,
            "wendland3 kernel moments are computed only up to 3 dimensions, not 5; use matern32",
        ),
        "count 0": ({KernelSetting("wendland3"): (0, 8)}, 1, r"positive sample counts, got \[0, 8\]"),
        "no requests": ({}, 1, "at least one kernel setting; requests is empty"),
        # refused, no longer truncated to N = 4
        "count 4.9": ({KernelSetting("wendland3"): (4.9,)}, 1, "sample count must be an integer, got 4.9"),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_in_process_model_is_not_evaluated(self, case):
        requests, dim, refusal = self.BAD[case]
        model = CountingModel(dim)
        with pytest.raises(ValueError, match=refusal):
            estimate(model, ParameterDomain.symmetric(math.sqrt(3.0), dim), requests)
        assert model.calls == 0

    @pytest.mark.parametrize("case", BAD)
    def test_external_solver_is_not_launched(self, tmp_path, case):
        requests, dim, refusal = self.BAD[case]
        stub, log = tmp_path / "stub.py", tmp_path / "launches.log"
        stub.write_text(LOGGING_STUB)
        model = External(command=f"{sys.executable} {stub} {{dir}} {log}", root=str(tmp_path / "runs"))
        estimate(model, ParameterDomain.unit(1), {KernelSetting("wendland3"): (2,)})
        assert len(log.read_text().splitlines()) == 2  # the stub logs each launch
        log.unlink()
        with pytest.raises(ValueError, match=refusal):
            estimate(dataclasses.replace(model, root=str(tmp_path / "fresh")), ParameterDomain.unit(dim), requests)
        assert not log.exists()
        assert not (tmp_path / "fresh").exists()


    @pytest.mark.parametrize("where", ["column", "reference"])
    def test_study_config_refuses_wendland_moments_in_five_dimensions(self, where):
        wendland, gaussian = KernelSetting("wendland3"), KernelSetting("gaussian")
        with pytest.raises(ValueError, match="not 5; use matern32"):
            StudyConfig(
                model=CountingModel(5),
                domain=ParameterDomain.symmetric(math.sqrt(3.0), 5),
                kernels=(gaussian, wendland) if where == "column" else (gaussian,),
                schedule=(8, 16),
                reference=ReferenceSpec.kernel_at(16, wendland if where == "reference" else gaussian),
            )


class TestSharedKernel:
    def config(self, kernels, schedule=(8, 16, 32, 64, 128)):
        return StudyConfig(
            model=PoissonExact(),
            domain=ParameterDomain.symmetric(math.sqrt(3.0), 1),
            kernels=tuple(kernels),
            schedule=schedule,
            level=5,
        )

    def assert_sweep_matches_one_column_studies(self, schedule):
        regs = [Tikhonov(e) for e in (1e-8, 1e-6, 1e-4, 1e-2)] + [TSVD(1e-3), TSVD(1e-1)]
        settings = [
            KernelSetting(family="wendland3", regularization=r, label=f"c{i}")
            for i, r in enumerate(regs)
        ]
        sweep = run_study(self.config(settings, schedule))
        for setting in settings:
            single = run_study(self.config([setting], schedule))
            column = setting.column
            assert sweep.errors[column] == single.errors[column]
            assert sweep.orders[column] == single.orders[column]
            assert sweep.fit_points[column] == single.fit_points[column]

    def test_sweep_matches_one_column_studies_bitwise(self):
        self.assert_sweep_matches_one_column_studies((8, 16, 32, 64, 128))

    def test_sweep_matches_one_column_studies_bitwise_with_lanczos_blocks(self):
        # TSVD blocks of 1024 (a view of the 2048 Gram) and 2048 points take Lanczos pairs
        self.assert_sweep_matches_one_column_studies((512, 1024, 2048))

    def count_calls(self, monkeypatch) -> dict:
        from rbfuq import study

        calls = {"assemble_gram": 0, "kernel_moments": 0}
        for name in calls:
            original = getattr(study, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(study, name, counted)
        return calls

    def test_one_gram_and_moment_vector_per_kernel(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        settings = [
            KernelSetting(family="matern32", label="a"),
            KernelSetting(family="matern32", regularization=TSVD(1e-6), label="b"),
        ]
        run_study(self.config(settings))
        assert calls == {"assemble_gram": 1, "kernel_moments": 1}

    def test_reference_shares_its_columns_kernel(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        setting = KernelSetting(family="matern32")
        config = self.config([setting])
        run_study(dataclasses.replace(config, reference=ReferenceSpec.kernel_at(256, setting)))
        assert calls == {"assemble_gram": 1, "kernel_moments": 1}

    def test_wendland_columns_of_one_zeta_share_one_moment_pass(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        requests = {
            KernelSetting("gaussian", epsilon=2.0, regularization=Tikhonov(1e-8)): (16, 32),
            KernelSetting("wendland0"): (8, 16),
            KernelSetting("wendland1"): (16, 40),
            KernelSetting("wendland2"): (32,),
            KernelSetting("wendland3", regularization=TSVD(1e-6)): (8, 24),
            KernelSetting("matern32"): (16, 32),
        }
        domain = ParameterDomain.unit(3)
        shared = estimate(GFunction(3), domain, requests).weights
        assert calls == {"assemble_gram": 6, "kernel_moments": 3}
        for setting, ns in requests.items():
            alone = estimate(GFunction(3), domain, {setting: ns}).weights
            for n in ns:
                assert np.array_equal(shared[setting, n].moments, alone[setting, n].moments)
                assert np.array_equal(shared[setting, n].omega, alone[setting, n].omega)

    def test_one_wendland_pass_per_zeta(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        requests = {
            KernelSetting("wendland0"): (8,),
            KernelSetting("wendland3", zeta=2.0): (16,),
            KernelSetting("wendland1", zeta=2.0): (8,),
            KernelSetting("wendland2"): (8,),
        }
        estimate(GFunction(3), ParameterDomain.unit(3), requests)
        assert calls == {"assemble_gram": 4, "kernel_moments": 2}

    def test_epsilon_splits_only_the_gaussian(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        wendland = [KernelSetting("wendland3", epsilon=e, label=f"w{e:g}") for e in (1.0, 2.0)]
        report = run_study(self.config(wendland))
        assert calls == {"assemble_gram": 1, "kernel_moments": 1}
        assert [k["epsilon"] for k in report.config_echo["kernels"]] == [1.0, 2.0]
        domain = ParameterDomain.symmetric(math.sqrt(3.0), 1)
        shared = estimate(PoissonExact(), domain, {s: (8, 32) for s in wendland}).weights
        for setting in wendland:  # each as its own group, as when epsilon split them
            alone = estimate(PoissonExact(), domain, {setting: (8, 32)}).weights
            for n in (8, 32):
                assert np.array_equal(shared[setting, n].omega, alone[setting, n].omega)
        calls.update(assemble_gram=0, kernel_moments=0)
        run_study(self.config([KernelSetting("gaussian", epsilon=e, label=f"g{e:g}") for e in (1.0, 2.0)]))
        assert calls == {"assemble_gram": 2, "kernel_moments": 2}

    def test_one_cholesky_per_shift_and_one_eigh_per_prefix(self, monkeypatch):
        import weakref

        from rbfuq import collocation

        calls = {"dpotrf": 0, "eigh": 0}
        factors = []
        dpotrf, eigh = collocation.dpotrf, collocation.eigh

        def counted_dpotrf(*args, **kwargs):
            calls["dpotrf"] += 1
            assert all(ref() is None for ref in factors), "an earlier factor is still alive"
            factor, info = dpotrf(*args, **kwargs)
            factors.append(weakref.ref(factor))
            return factor, info

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            assert all(ref() is None for ref in factors), "a factor is alive during the TSVD pass"
            return eigh(*args, **kwargs)

        monkeypatch.setattr(collocation, "dpotrf", counted_dpotrf)
        monkeypatch.setattr(collocation, "eigh", counted_eigh)
        regs = [Tikhonov(1e-8), Tikhonov(1e-4), Tikhonov(1e-8), None, TSVD(1e-3), TSVD(1e-1)]
        settings = [
            KernelSetting(family="matern32", regularization=r, label=f"c{i}")
            for i, r in enumerate(regs)
        ]
        run_study(self.config(settings))
        assert calls == {"dpotrf": 3, "eigh": 5}  # shifts 1e-8, 1e-4 and 0; five prefixes
        calls.update(dpotrf=0, eigh=0)
        run_study(self.config(settings[:2]))
        assert calls == {"dpotrf": 2, "eigh": 0}

    def test_unregularized_breakdown_names_n(self):
        # the 1-D Gaussian's condition is 2.3e18 at N = 64; N = 16 still solves
        setting = KernelSetting(family="gaussian", regularization=None)
        domain = ParameterDomain.symmetric(math.sqrt(3.0), 1)
        weights = estimate(PoissonExact(), domain, {setting: (16,)}).weights[setting, 16]
        assert np.all(np.isfinite(weights.omega))
        with pytest.raises(StudyError, match="leading minor") as info:
            estimate(PoissonExact(), domain, {setting: (16, 64)})
        assert info.value.n == 64

    def test_reference_named_like_a_column_keeps_its_own_estimate(self):
        column = KernelSetting(family="matern32")
        reference = KernelSetting(family="matern32", regularization=TSVD(1e-6))
        assert reference.column == column.column
        config = dataclasses.replace(
            self.config([column]), reference=ReferenceSpec.kernel_at(128, reference)
        )
        report = run_study(config)
        result = estimate(config.model, config.domain, {column: config.schedule, reference: (128,)})
        ref = result.means[reference, 128]
        expected = tuple(_norm_values(result.means[column, n], ref, "abs_l2") for n in config.schedule)
        assert report.errors["matern32"] == expected
        assert expected[-1] > 0.0


class TestEvaluateSamples:
    def test_rows_follow_sample_order(self):
        model = PoissonExact()
        points = halton_points(ParameterDomain.symmetric(1.0, 1), 3)
        table = evaluate_samples(model, points)
        assert table.shape == (3, 1089)
        for row, y in zip(table, points.points):
            assert np.array_equal(row, model.evaluate(y).values)


class FieldModel:
    """A smooth field of ``m`` values on the box, counting its evaluations."""

    def __init__(self, dim, m):
        self.dim = dim
        self.grid = GridSpec(extents=((0.0, 1.0),), counts=(m,))
        self.calls = 0

    def evaluate(self, y):
        self.calls += 1
        x = self.grid.points()[:, 0]
        return GridField(grid=self.grid, values=np.cos(3.0 * x + float(np.sum(y))))


# argv: params dir log m; logs each launch and writes m values of a field of the point
FIELD_STUB = """\
import math, struct, sys
params, out_dir, log, m = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
with open(log, "a") as fh:
    fh.write(out_dir + "\\n")
with open(params) as fh:
    s = sum(float(t) for t in fh.read().split())
vals = [math.cos(3.0 * k / max(m - 1, 1) + s) for k in range(m)]
with open(out_dir + "/qoi.bin", "wb") as fh:
    fh.write(struct.pack("<Q%dd" % m, m, *vals))
"""


def field_external(tmp_path, m):
    stub, log = tmp_path / "field_stub.py", tmp_path / "launches.log"
    stub.write_text(FIELD_STUB)
    return External(command=f"{sys.executable} {stub} {{params}} {{dir}} {log} {m}", root=str(tmp_path / "runs")), log


def launches(log):
    return len(log.read_text().splitlines()) if log.exists() else 0


class TestWeightsBeforeSamples:
    """``estimate`` solves every system before the first model run or launch."""

    # an unregularized flat Gaussian: its Gram matrix at N = 64 is numerically singular
    SINGULAR = {KernelSetting("matern32"): (64, 256), KernelSetting("gaussian", epsilon=0.05, regularization=None): (64, 256)}

    def test_failed_solve_evaluates_nothing(self):
        model = CountingModel(3)
        with pytest.raises(StudyError) as info:
            estimate(model, ParameterDomain.symmetric(math.sqrt(3.0), 3), self.SINGULAR)
        assert (info.value.kernel, info.value.n) == ("gaussian", 64)
        assert model.calls == 0

    def test_failed_solve_launches_nothing(self, tmp_path):
        model, log = field_external(tmp_path, 1)
        with pytest.raises(StudyError) as info:
            estimate(model, ParameterDomain.unit(3), self.SINGULAR, jobs=2)
        assert (info.value.kernel, info.value.n) == ("gaussian", 64)
        assert launches(log) == 0
        assert not (tmp_path / "runs").exists()

    @staticmethod
    def assert_streamed(result, table):
        """Each mean is omega @ table[:n] up to its summation order: (n + 1) eps sum_i |omega_i u_i|."""
        for (setting, n), w in result.weights.items():
            exact = w.omega @ table[:n]
            bound = (n + 1) * np.finfo(float).eps * (np.abs(w.omega) @ np.abs(table[:n]))
            assert np.all(np.abs(result.means[setting, n] - exact) <= bound), (setting.column, n)

    REQUESTS = {
        KernelSetting("matern32"): (5, 16, 33),
        KernelSetting("wendland2", zeta=2.0, regularization=TSVD(1e-10)): (16, 40),
    }

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 12), block_entries=st.integers(1, 600), one_row=st.booleans())
    def test_streamed_means_match_the_table(self, m, block_entries, one_row):
        model, domain = FieldModel(2, m), ParameterDomain.unit(2)
        requests = {KernelSetting("matern32"): (40,)} if one_row else self.REQUESTS
        with mock.patch.object(study, "BLOCK_ENTRIES", block_entries):
            result = estimate(model, domain, requests)
        assert model.calls == 40  # each sample once, however the blocks fall
        self.assert_streamed(result, evaluate_samples(model, result.points))

    @settings(max_examples=4, deadline=None)
    @given(m=st.integers(1, 5), jobs=st.integers(1, 3))
    def test_streamed_means_match_the_campaign_table(self, tmp_path_factory, m, jobs):
        tmp = tmp_path_factory.mktemp("field")
        model, log = field_external(tmp, m)
        requests = {KernelSetting("matern32"): (4, 12)}
        result = estimate(model, ParameterDomain.unit(2), requests, jobs=jobs)
        assert launches(log) == 12
        self.assert_streamed(result, evaluate_samples(model, result.points))  # read back from the cache

    def test_a_sample_of_another_width_is_refused(self):
        class Widening(FieldModel):
            def evaluate(self, y):
                field = super().evaluate(y)
                if self.calls < 3:
                    return field
                return GridField(grid=GridSpec(extents=((0.0, 1.0),), counts=(5,)), values=np.zeros(5))

        refusal = "returned 5 values at y = .*, but 4 at the first sample"
        with pytest.raises(ValueError, match=refusal):
            evaluate_samples(Widening(1, 4), halton_points(ParameterDomain.unit(1), 8))
        for block_entries in (4, 1 << 20):  # blocks of one sample, and one block of all
            with mock.patch.object(study, "BLOCK_ENTRIES", block_entries), pytest.raises(ValueError, match=refusal):
                estimate(Widening(1, 4), ParameterDomain.unit(1), {KernelSetting("matern32"): (8,)})

    def test_peak_memory_is_a_small_part_of_the_table(self):
        # M = 2^15 values per sample, N = 256: the table would take 64 MiB
        model, domain = FieldModel(3, 1 << 15), ParameterDomain.unit(3)
        requests = {KernelSetting("matern32"): (64, 256), KernelSetting("gaussian", epsilon=2.0, regularization=Tikhonov(1e-8)): (256,)}
        tracemalloc.start()
        try:
            result = estimate(model, domain, requests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 256 * (1 << 15) * 8
        assert peak < 0.15 * table, f"peak {peak / 2**20:.1f} MiB"
        assert model.calls == 256
        self.assert_streamed(result, evaluate_samples(model, result.points))

    def test_a_cached_campaign_streams_in_a_small_part_of_its_table(self, tmp_path):
        # 64 cached samples of M = 2^16 values: the campaign's table would take 32 MiB
        domain, m = ParameterDomain.unit(2), 1 << 16
        model = External(command="false", root=str(tmp_path / "runs"))
        points = halton_points(domain, 64).points
        table = np.random.default_rng(3).standard_normal((64, m))
        for i, (y, row) in enumerate(zip(points, table)):
            sample_dir = model.samples_dir / str(i)
            sample_dir.mkdir(parents=True)
            (sample_dir / "params.txt").write_text(" ".join(format(float(v), ".17g") for v in y) + "\n")
            write_qoi(sample_dir / "qoi.bin", row)
            (sample_dir / "done").touch()
        tracemalloc.start()
        try:
            result = estimate(model, domain, {KernelSetting("matern32"): (16, 64)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * table.nbytes, f"peak {peak / 2**20:.1f} MiB"
        assert np.array_equal(result.points.points, points)
        self.assert_streamed(result, table)


class TestFactorInPlace:
    """``estimate`` writes each Cholesky factor over its own Gram matrix's lower triangle."""

    DOMAIN = ParameterDomain.symmetric(math.sqrt(3.0), 1)

    def estimate_and_warnings(self, requests):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = estimate(PoissonExact(), self.DOMAIN, requests)
        return result, [str(w.message) for w in caught]

    def assert_fresh_weights(self, requests):
        """Every weight is bitwise a caller's solve: a fresh Gram matrix on the
        longest prefix of the setting's regularization, factored, then led."""
        result, warned = self.estimate_and_warnings(requests)
        fresh_warned = []
        for (setting, n), w in result.weights.items():
            reg = setting.regularization
            top = max(ns[-1] for s, ns in requests.items() if s.regularization == reg)
            fresh = assemble_gram(setting.spec(1), result.points.prefix(top))
            before = fresh.values.copy()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                gram = fresh if isinstance(reg, TSVD) else fresh.factored(reg)
                omega = moment_weights(gram.leading(n), reg, w.moments).omega
            fresh_warned += [str(c.message) for c in caught if str(c.message) not in fresh_warned]
            assert np.array_equal(w.omega, omega), (setting.column, n)
            assert np.array_equal(fresh.values, before)  # a caller's Gram matrix is never written
        assert warned == fresh_warned

    def test_weights_match_fresh_gram_solves(self):
        # the plain column and two shifts are factored over the triangle that 1e-8 wrote
        regs = [Tikhonov(1e-8), None, Tikhonov(1e-4), TSVD(1e-3), Tikhonov(1e-2)]
        self.assert_fresh_weights({
            KernelSetting("matern32", regularization=r, label=f"c{i}"): (16, 32, 64)
            for i, r in enumerate(regs)
        })

    def test_a_breakdown_is_solved_by_lu_from_the_restored_matrix(self):
        # A + 1e-18 I of the 1-D Gaussian breaks down at minor 19, after 1e-6 wrote the triangle
        self.assert_fresh_weights({
            KernelSetting("gaussian", regularization=Tikhonov(1e-6), label="shifted"): (16, 64),
            KernelSetting("gaussian", regularization=Tikhonov(1e-18), label="breaks"): (16, 32, 64),
            KernelSetting("gaussian", regularization=TSVD(1e-10), label="tsvd"): (32,),
        })

    @pytest.mark.parametrize("top", [17, 64], ids=["condition-check", "breakdown"])
    def test_a_singular_plain_column_reports_the_fresh_condition(self, top):
        requests = {
            KernelSetting("gaussian", regularization=Tikhonov(1e-6), label="shifted"): (top,),
            KernelSetting("gaussian", regularization=None, label="plain"): (16, top),
        }
        with pytest.raises(StudyError) as info:
            estimate(PoissonExact(), self.DOMAIN, requests)
        assert (info.value.kernel, info.value.n) == ("plain", top)
        fresh = assemble_gram(KernelSetting("gaussian").spec(1), halton_points(self.DOMAIN, top))
        with pytest.raises(SingularGramError) as alone:
            solve(fresh, np.ones(top))
        assert str(info.value.__cause__) == str(alone.value)
        assert info.value.__cause__.condition == condition_report(fresh).condition

    @pytest.mark.parametrize("tops", [(64, 128), (128, 64)], ids=["leading-first", "leading-second"])
    def test_a_strict_leading_block_is_factored_in_a_copy(self, monkeypatch, tops):
        from rbfuq import collocation

        grams, calls = [], []
        original_assemble, original_dpotrf = study.assemble_gram, collocation.dpotrf

        def assemble(*args):
            grams.append(original_assemble(*args))
            return grams[-1]

        def snapshot():
            values = grams[0].values
            return values.diagonal().copy(), np.triu(values, 1)

        def dpotrf(a, **kwargs):
            calls.append((np.shares_memory(a, grams[0].values), snapshot()))
            result = original_dpotrf(a, **kwargs)
            calls.append((None, snapshot()))
            return result

        monkeypatch.setattr(study, "assemble_gram", assemble)
        monkeypatch.setattr(collocation, "dpotrf", dpotrf)
        requests = {
            KernelSetting("wendland3", regularization=Tikhonov(eps), label=f"t{top}"): (32, top)
            for eps, top in zip((1e-8, 1e-4), tops)
        }
        self.assert_fresh_weights(requests)
        assembled = original_assemble(KernelSetting("wendland3").spec(1), halton_points(self.DOMAIN, 128)).values
        assert [shared for shared, _ in calls[:4:2]] == [top == 128 for top in tops]  # then the fresh solves
        before = (assembled.diagonal(), np.triu(assembled, 1))
        for i, (shared, (diagonal, upper)) in enumerate(calls[:4]):
            assert np.array_equal(upper, before[1])  # no factor writes the upper triangle
            if i % 2 == 0 and not shared:
                # the strict leading block leaves the diagonal as the last factor left it
                assert np.array_equal(diagonal, before[0] if i == 0 else calls[i - 1][1][0])
                assert np.array_equal(calls[i + 1][1][0], diagonal)

    def test_a_sweep_holds_one_gram_matrix(self):
        import scipy.sparse.linalg  # noqa: F401  (the eigensolver's import is not the study's memory)

        regs = [Tikhonov(e) for e in (1e-8, 1e-6, 1e-4, 1e-2)] + [TSVD(1e-3), TSVD(1e-1)]
        requests = {
            KernelSetting("wendland3", regularization=r, label=f"c{i}"): (64, 128, 256, 512, 1024, 2048)
            for i, r in enumerate(regs)
        }
        tracemalloc.start()
        try:
            estimate(PoissonExact(), self.DOMAIN, requests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram = 8 * 2048 * 2048
        assert peak < 1.5 * gram, f"peak {peak / 2**20:.1f} MiB"


class TestKernelReference:
    """A fine kernel estimate, the reference a study can use instead of an exact mean."""

    def test_poisson_reference_close_to_exact(self):
        model = PoissonExact()
        setting = KernelSetting(family="gaussian", regularization=Tikhonov(1e-14))
        domain = ParameterDomain.symmetric(math.sqrt(3.0), 1)
        ref = estimate(model, domain, {setting: (512,)}).means[setting, 512]
        assert _norm_values(ref, model.exact_mean().values, "abs_l2") < 1e-9

    def test_gfunction_reference_close_to_exact(self):
        setting = KernelSetting(family="gaussian", epsilon=2.0, regularization=Tikhonov(1e-8))
        ref = estimate(GFunction(3), ParameterDomain.unit(3), {setting: (512,)}).means[setting, 512]
        assert abs(ref[0] - 1.0) < 1e-2


class TestWriteReport:
    def make_report(self, tmp_path):
        config = StudyConfig(
            model=PoissonExact(),
            domain=ParameterDomain.symmetric(math.sqrt(3.0), 1),
            kernels=(KernelSetting(family="gaussian"), KernelSetting(family="matern32")),
            schedule=(4, 8, 16),
            level=6,
        )
        report = run_study(config)
        return report, write_report(report, tmp_path / "out.csv")

    def test_csv_layout(self, tmp_path):
        report, (csv_path, _) = self.make_report(tmp_path)
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "collocationpoints,gaussian,matern32"
        assert len(lines) == 4
        for line, n in zip(lines[1:], (4, 8, 16)):
            cells = line.split(",")
            assert cells[0] == str(n)
            assert len(cells) == 3

    def test_csv_values_roundtrip(self, tmp_path):
        report, (csv_path, _) = self.make_report(tmp_path)
        with open(csv_path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        for i, row in enumerate(rows):
            assert float(row[1]) == report.errors["gaussian"][i]
            assert float(row[2]) == report.errors["matern32"][i]

    def test_sidecar_metadata(self, tmp_path):
        report, (_, json_path) = self.make_report(tmp_path)
        with open(json_path) as fh:
            sidecar = json.load(fh)
        assert set(sidecar) == {"config", "orders", "fit_points", "wall_time_s"}
        assert sidecar["config"]["schedule"] == [4, 8, 16]
        assert set(sidecar["orders"]) == {"gaussian", "matern32"}
        assert sidecar["wall_time_s"] > 0.0

    def test_sidecar_echoes_every_field_by_type(self, tmp_path):
        model = RelabelledModel(PoissonExact(), (0,), np.array([0.25, 0.5]))
        kernels = (
            KernelSetting(family="wendland2", regularization=Tikhonov(1e-8), label="tik"),
            KernelSetting(family="wendland2", regularization=TSVD(1e-3), label="tsvd"),
            KernelSetting(family="wendland2", regularization=None, label="plain"),
        )
        config = StudyConfig(model=model, domain=ParameterDomain.unit(1), kernels=kernels, schedule=(4, 8), level=5)
        _, json_path = write_report(run_study(config), tmp_path / "out.csv")
        with open(json_path) as fh:
            echo = json.load(fh)["config"]
        assert echo["type"] == "studyconfig"
        assert echo["model"] == {
            "type": "relabelledmodel",
            "base": {"type": "poissonexact", "grid": {"type": "gridspec", "extents": [[-0.5, 0.5], [-0.5, 0.5]], "counts": [33, 33]}},
            "perm": [0],
            "mean": [0.25, 0.5],
        }
        assert echo["domain"] == {"type": "parameterdomain", "lower": [0.0], "upper": [1.0]}
        assert [k["regularization"] for k in echo["kernels"]] == [
            {"type": "tikhonov", "eps_reg": 1e-8},
            {"type": "tsvd", "drop_tol": 1e-3},
            None,
        ]
        assert echo["reference"] == {"type": "referencespec", "kind": "exact", "n_max": None, "kernel": None}
        assert config_echo(dataclasses.replace(config, model=CountingModel()))["model"] == {"type": "countingmodel"}

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_config_echo_is_json(self, path):
        study = load_config(path).study()
        echo = json.loads(json.dumps(config_echo(study)))
        assert echo["schedule"] == list(study.schedule)
        assert [k["label"] for k in echo["kernels"]] == [k.label for k in study.kernels]
