import dataclasses
import json
import math
import sys

import numpy as np
import pytest

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
    StudyConfig,
    StudyError,
    Tikhonov,
    TSVD,
    error_norm,
    estimate,
    evaluate_samples,
    fit_order,
    halton_points,
    mc_baseline,
    run_study,
    write_report,
)


def line_field(values):
    values = np.asarray(values, dtype=float)
    return GridField(grid=GridSpec.index_line(values.size), values=values)


class TestErrorNorm:
    def test_abs_l2_is_rms(self):
        e = line_field([3.0, 4.0])
        r = line_field([0.0, 0.0])
        assert error_norm(e, r, "abs_l2") == math.sqrt(12.5)

    def test_rel_l2(self):
        e = line_field([2.0, 2.0])
        r = line_field([1.0, 1.0])
        assert error_norm(e, r, "rel_l2") == 1.0

    def test_abs_scalar(self):
        assert error_norm(line_field([3.0]), line_field([5.0]), "abs_scalar") == 2.0

    def test_rel_scalar(self):
        assert error_norm(line_field([1.1]), line_field([2.0]), "rel_scalar") == abs(1.1 - 2.0) / 2.0

    def test_scalar_tag_needs_scalar_field(self):
        e = line_field([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            error_norm(e, e, "abs_scalar")

    def test_zero_reference_rejected(self):
        e = line_field([1.0])
        z = line_field([0.0])
        with pytest.raises(ValueError, match="zero reference"):
            error_norm(e, z, "rel_scalar")

    def test_grid_mismatch_rejected(self):
        a = line_field([1.0, 2.0])
        b = GridField(grid=GridSpec(extents=((0.0, 5.0),), counts=(2,)), values=np.ones(2))
        with pytest.raises(ValueError, match="grids"):
            error_norm(a, b, "abs_l2")

    def test_unknown_tag_rejected(self):
        e = line_field([1.0])
        with pytest.raises(ValueError, match="norm"):
            error_norm(e, e, "l_infinity")


class TestFitOrder:
    def test_exact_first_order(self):
        pts = [(2, 0.1), (4, 0.05), (8, 0.025), (16, 0.0125)]
        assert abs(fit_order(pts) - 1.0) < 1e-12

    def test_exact_second_order(self):
        pts = [(4, 1.0), (8, 0.25), (16, 0.0625), (32, 0.015625)]
        assert abs(fit_order(pts) - 2.0) < 1e-12

    def test_flat_curve_is_zero(self):
        pts = [(2, 0.5), (4, 0.5), (8, 0.5), (16, 0.5)]
        assert abs(fit_order(pts)) < 1e-12

    def test_window_ignores_preasymptotic_head(self):
        head = [(2, 1e3), (4, 1e3)]
        tail = [(8, 1e-2), (16, 2.5e-3), (32, 6.25e-4), (64, 1.5625e-4)]
        assert abs(fit_order(head + tail, window=4) - 2.0) < 1e-12

    def test_floor_excludes_plateau(self):
        pts = [(8, 1e-2), (16, 1e-3), (32, 5e-6), (64, 5e-6)]
        expected = math.log(10.0) / math.log(2.0)
        assert abs(fit_order(pts, floor=1e-6) - expected) < 1e-12

    def test_fully_plateaued_returns_none(self):
        pts = [(8, 5e-6), (16, 4e-6), (32, 3e-6), (64, 2e-6)]
        assert fit_order(pts, floor=1e-6) is None

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            fit_order([(2, 0.1), (4, 0.0), (8, 0.1), (16, 0.1)])

    def test_short_list_uses_all_points(self):
        assert abs(fit_order([(2, 0.1), (4, 0.05)], window=4) - 1.0) < 1e-12


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

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            KernelSetting(family="cubic")

    def test_regularization_must_be_one(self):
        # a bare shift would otherwise fail only in the solve, after the model ran
        with pytest.raises(ValueError, match="regularization must be Tikhonov, TSVD or None, got 1e-08"):
            KernelSetting(family="gaussian", regularization=1e-8)


class CountingModel:
    """Scalar model that counts how often it is evaluated."""

    dim = 1

    def __init__(self):
        self.calls = 0

    def evaluate(self, y):
        self.calls += 1
        return GridField.scalar(float(np.asarray(y).ravel()[0]) ** 2)

    def exact_mean(self):
        return GridField.scalar(1.0)


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
            estimate(model, domain, {KernelSetting(family="gaussian"): (4,)}, level=3)


LOGGING_STUB = """\
import pathlib, struct, sys
with open(sys.argv[2], "a") as log:
    log.write(sys.argv[1] + "\\n")
with open(pathlib.Path(sys.argv[1]) / "qoi.bin", "wb") as fh:
    fh.write(struct.pack("<Qd", 1, 1.0))
"""


class TestRefusedBeforeEvaluation:
    """A refused ``estimate`` call evaluates nothing and launches no solver."""

    # requests, level, and the refusal each raises
    BAD = {
        "level 13": ({KernelSetting("wendland3"): (8,)}, 13, "level must be between 1 and 12, got 13"),
        "count 0": ({KernelSetting("wendland3"): (0, 8)}, 3, r"positive sample counts, got \[0, 8\]"),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_in_process_model_is_not_evaluated(self, case):
        requests, level, refusal = self.BAD[case]
        model = CountingModel()
        with pytest.raises(ValueError, match=refusal):
            estimate(model, ParameterDomain.symmetric(math.sqrt(3.0), 1), requests, level=level)
        assert model.calls == 0

    @pytest.mark.parametrize("case", BAD)
    def test_external_solver_is_not_launched(self, tmp_path, case):
        requests, level, refusal = self.BAD[case]
        stub, log = tmp_path / "stub.py", tmp_path / "launches.log"
        stub.write_text(LOGGING_STUB)
        model = External(command=f"{sys.executable} {stub} {{dir}} {log}", root=str(tmp_path / "runs"))
        domain = ParameterDomain.unit(1)
        estimate(model, domain, {KernelSetting("wendland3"): (2,)}, level=3)
        assert len(log.read_text().splitlines()) == 2  # the stub logs each launch
        log.unlink()
        with pytest.raises(ValueError, match=refusal):
            estimate(dataclasses.replace(model, root=str(tmp_path / "fresh")), domain, requests, level=level)
        assert not log.exists()
        assert not (tmp_path / "fresh").exists()


class TestSharedKernel:
    def config(self, kernels):
        return StudyConfig(
            model=PoissonExact(),
            domain=ParameterDomain.symmetric(math.sqrt(3.0), 1),
            kernels=tuple(kernels),
            schedule=(8, 16, 32, 64, 128),
            level=5,
        )

    def test_sweep_matches_one_column_studies_bitwise(self):
        regs = [Tikhonov(e) for e in (1e-8, 1e-6, 1e-4, 1e-2)] + [TSVD(1e-3), TSVD(1e-1)]
        settings = [
            KernelSetting(family="wendland3", regularization=r, label=f"c{i}")
            for i, r in enumerate(regs)
        ]
        sweep = run_study(self.config(settings))
        for setting in settings:
            single = run_study(self.config([setting]))
            column = setting.column
            assert sweep.errors[column] == single.errors[column]
            assert sweep.orders[column] == single.orders[column]
            assert sweep.fit_points[column] == single.fit_points[column]

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
        weights = estimate(PoissonExact(), domain, {setting: (16,)}, level=5).weights[setting, 16]
        assert np.all(np.isfinite(weights.omega))
        with pytest.raises(StudyError, match="leading minor") as info:
            estimate(PoissonExact(), domain, {setting: (16, 64)}, level=5)
        assert info.value.n == 64

    def test_reference_named_like_a_column_keeps_its_own_estimate(self):
        column = KernelSetting(family="matern32")
        reference = KernelSetting(family="matern32", regularization=TSVD(1e-6))
        assert reference.column == column.column
        config = dataclasses.replace(
            self.config([column]), reference=ReferenceSpec.kernel_at(128, reference)
        )
        report = run_study(config)
        result = estimate(config.model, config.domain, {column: config.schedule, reference: (128,)}, level=5)
        ref = line_field(result.means[reference, 128])
        expected = tuple(
            error_norm(line_field(result.means[column, n]), ref, "abs_l2") for n in config.schedule
        )
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


class TestKernelReference:
    """A fine kernel estimate, the reference a study can use instead of an exact mean."""

    def test_poisson_reference_close_to_exact(self):
        model = PoissonExact()
        setting = KernelSetting(family="gaussian", regularization=Tikhonov(1e-14))
        domain = ParameterDomain.symmetric(math.sqrt(3.0), 1)
        ref = estimate(model, domain, {setting: (512,)}, level=7).means[setting, 512]
        exact = model.exact_mean()
        assert error_norm(GridField(grid=model.grid, values=ref), exact, "abs_l2") < 1e-9

    def test_gfunction_reference_close_to_exact(self):
        setting = KernelSetting(family="gaussian", epsilon=2.0, regularization=Tikhonov(1e-8))
        ref = estimate(GFunction(3), ParameterDomain.unit(3), {setting: (512,)}, level=5).means[setting, 512]
        assert abs(ref[0] - 1.0) < 1e-2


class TestMcBaseline:
    def test_constant_model_recovered_exactly(self):
        class Constant:
            dim = 2

            def evaluate(self, y):
                return GridField.scalar(7.0)

        mean = mc_baseline(Constant(), ParameterDomain.unit(2), 10)
        assert mean.shape == (1,)
        assert mean[0] == 7.0

    def test_gfunction_mc_and_qmc(self):
        model = GFunction(3)
        domain = ParameterDomain.unit(3)
        mc_err = abs(mc_baseline(model, domain, 4096, seed=0, method="mc")[0] - 1.0)
        qmc_err = abs(mc_baseline(model, domain, 4096, method="qmc")[0] - 1.0)
        assert mc_err < 0.1
        assert qmc_err < mc_err

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            mc_baseline(GFunction(2), ParameterDomain.unit(2), 8, method="lhs")

    def test_field_output_keeps_grid_length(self):
        mean = mc_baseline(PoissonExact(), ParameterDomain.symmetric(1.0, 1), 5)
        assert mean.shape == (1089,)


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
