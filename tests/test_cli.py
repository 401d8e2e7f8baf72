import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rbfuq import (
    PoissonExact,
    assemble_gram,
    cc_rule,
    estimate,
    estimate_mean,
    halton_points,
    kernel_moments,
    load_config,
    moment_weights,
    read_qoi,
)
from rbfuq.cli import EXIT_CONFIG, EXIT_EXTERNAL, EXIT_NUMERICAL, EXIT_OK, main

PY = sys.executable
STUBS = Path(__file__).resolve().parent.parent / "stubs"


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def gfunction_cfg(tmp_path, dim=2, **extra):
    data = {
        "domain": {"kind": "unit", "dim": dim},
        "model": {"kind": "gfunction"},
        "out": str(tmp_path / "out"),
    }
    data.update(extra)
    return write_cfg(tmp_path, data)


class TestSample:
    def test_first_points_unit_2d(self, tmp_path):
        cfg = gfunction_cfg(tmp_path, n=2)
        assert main(["sample", "--config", cfg]) == EXIT_OK
        lines = (tmp_path / "out" / "points.csv").read_text().splitlines()
        assert lines[0] == "y1,y2"
        first = [float(v) for v in lines[1].split(",")]
        second = [float(v) for v in lines[2].split(",")]
        assert first == [0.5, 1.0 / 3.0]
        assert second == [0.25, 2.0 / 3.0]

    def test_zero_points_writes_header_only(self, tmp_path):
        cfg = gfunction_cfg(tmp_path, n=0)
        assert main(["sample", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "out" / "points.csv").read_text() == "y1,y2\n"

    def test_n_flag_overrides_config(self, tmp_path):
        cfg = gfunction_cfg(tmp_path, n=2)
        assert main(["sample", "--config", cfg, "--n", "5"]) == EXIT_OK
        lines = (tmp_path / "out" / "points.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_mapped_to_domain(self, tmp_path):
        data = {
            "domain": {"kind": "symmetric", "half_width": 2.0, "dim": 1},
            "model": {"kind": "poisson"},
            "out": str(tmp_path / "out"),
            "n": 1,
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["sample", "--config", cfg]) == EXIT_OK
        lines = (tmp_path / "out" / "points.csv").read_text().splitlines()
        assert float(lines[1]) == 0.0

    def test_missing_n_is_config_error(self, tmp_path, capsys):
        cfg = gfunction_cfg(tmp_path)
        assert main(["sample", "--config", cfg]) == EXIT_CONFIG
        assert "'n'" in capsys.readouterr().err

    def test_negative_n_flag_is_config_error(self, tmp_path, capsys):
        cfg = gfunction_cfg(tmp_path, n=2)
        assert main(["sample", "--config", cfg, "--n", "-1"]) == EXIT_CONFIG
        assert "config.n must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMean:
    def test_matches_library_pipeline(self, tmp_path):
        cfg_path = gfunction_cfg(
            tmp_path, dim=1, n=4, kernels=[{"family": "gaussian"}], level=6
        )
        assert main(["mean", "--config", cfg_path]) == EXIT_OK
        mean = read_qoi(tmp_path / "out" / "mean.bin")

        cfg = load_config(cfg_path)
        setting = cfg.first_kernel()
        points = halton_points(cfg.domain, 4)
        spec = setting.spec(1)
        gram = assemble_gram(spec, points)
        b = kernel_moments(spec, points, cc_rule(cfg.domain, 6))
        weights = moment_weights(gram, setting.regularization, b)
        table = np.vstack([cfg.model.evaluate(y).values for y in points.points])
        expected = estimate_mean(weights, table)
        assert np.array_equal(mean, expected)

    def test_weights_csv_roundtrip(self, tmp_path):
        cfg_path = gfunction_cfg(
            tmp_path, dim=1, n=4, kernels=[{"family": "wendland1"}], level=6
        )
        main(["mean", "--config", cfg_path])
        lines = (tmp_path / "out" / "weights.csv").read_text().splitlines()
        assert lines[0] == "index,y1,weight"
        assert len(lines) == 5

        cfg = load_config(cfg_path)
        setting = cfg.first_kernel()
        points = halton_points(cfg.domain, 4)
        spec = setting.spec(1)
        gram = assemble_gram(spec, points)
        b = kernel_moments(spec, points, cc_rule(cfg.domain, 6))
        weights = moment_weights(gram, setting.regularization, b)
        for i, line in enumerate(lines[1:]):
            idx, y, w = line.split(",")
            assert int(idx) == i
            assert float(y) == points.points[i, 0]
            assert float(w) == weights.omega[i]

    def test_writes_what_estimate_computes(self, tmp_path):
        cfg_path = gfunction_cfg(
            tmp_path, dim=2, n=40, kernels=[{"family": "wendland2", "tsvd_tol": 1e-9}], level=5
        )
        assert main(["mean", "--config", cfg_path]) == EXIT_OK
        cfg = load_config(cfg_path)
        setting = cfg.first_kernel()
        result = estimate(cfg.model, cfg.domain, {setting: (40,)}, level=5)
        assert np.array_equal(read_qoi(tmp_path / "out" / "mean.bin"), result.means[setting, 40])
        rows = (tmp_path / "out" / "weights.csv").read_text().splitlines()[1:]
        omega = [float(row.split(",")[-1]) for row in rows]
        assert np.array_equal(omega, result.weights[setting, 40].omega)

    def test_scalar_estimate_printed(self, tmp_path, capsys):
        cfg_path = gfunction_cfg(tmp_path, dim=1, n=8, kernels=[{"family": "gaussian"}])
        main(["mean", "--config", cfg_path])
        assert "mean estimate:" in capsys.readouterr().out

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg_path = gfunction_cfg(tmp_path, dim=2, n=16, kernels=[{"family": "gaussian"}])
        assert main(["mean", "--config", cfg_path, "--dry-run"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "samples: 16" in out
        assert "collocation system: 16 x 16" in out
        assert not (tmp_path / "out" / "mean.bin").exists()

    @pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--out", "")])
    def test_flag_refused_as_its_key(self, tmp_path, capsys, flag, value):
        cfg_path = gfunction_cfg(tmp_path, n=16, kernels=[{"family": "gaussian"}])
        assert main(["mean", "--config", cfg_path, flag, value]) == EXIT_CONFIG
        assert f"config.{flag[2:]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_constant_external_solver(self, tmp_path):
        stub = tmp_path / "const.py"
        stub.write_text((STUBS / "constant_stub.py").read_text())
        data = {
            "domain": {"kind": "unit", "dim": 1},
            "model": {
                "kind": "external",
                "command": f"{PY} {stub} {{params}} {{dir}}",
                "root": str(tmp_path / "runs"),
            },
            "kernels": [{"family": "gaussian"}],
            "out": str(tmp_path / "out"),
            "n": 16,
            "level": 7,
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["mean", "--config", cfg]) == EXIT_OK
        mean = read_qoi(tmp_path / "out" / "mean.bin")
        assert abs(mean[0] - 7.0) < 1e-6

        # cached rerun: remove the script; done markers must carry the run
        stub.unlink()
        assert main(["mean", "--config", cfg]) == EXIT_OK
        again = read_qoi(tmp_path / "out" / "mean.bin")
        assert np.array_equal(again, mean)


class TestStudy:
    def test_study_outputs(self, tmp_path, capsys):
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            "model": {"kind": "poisson"},
            "kernels": [{"family": "gaussian"}, {"family": "wendland2"}],
            "schedule": [4, 8, 16],
            "level": 6,
            "out": str(tmp_path / "out"),
            "csv": "conv.csv",
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["study", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gaussian: final error" in out
        assert "wendland2: final error" in out
        csv_lines = (tmp_path / "out" / "conv.csv").read_text().splitlines()
        assert csv_lines[0] == "collocationpoints,gaussian,wendland2"
        assert len(csv_lines) == 4
        sidecar = json.loads((tmp_path / "out" / "conv.json").read_text())
        assert sidecar["config"]["schedule"] == [4, 8, 16]

    def test_study_dry_run(self, tmp_path, capsys):
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            "model": {"kind": "poisson"},
            "kernels": [{"family": "gaussian"}],
            "schedule": [4, 8],
            "out": str(tmp_path / "out"),
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["study", "--config", cfg, "--dry-run"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "schedule: [4, 8]" in out
        assert not (tmp_path / "out" / "study.csv").exists()

    def test_study_dry_run_counts_gram_systems(self, tmp_path, capsys):
        shifts = [{"family": "wendland3", "eps_reg": e, "label": f"s{e:g}"} for e in (1e-8, 1e-4)]
        tsvd = [{"family": "wendland3", "tsvd_tol": t, "label": f"t{t:g}"} for t in (1e-3, 1e-1)]
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            "model": {"kind": "poisson"},
            "kernels": shifts + tsvd + [{"family": "gaussian"}, {"family": "wendland3", "zeta": 2.0}],
            "schedule": [4, 8],
            "out": str(tmp_path / "out"),
        }
        assert main(["study", "--config", write_cfg(tmp_path, data), "--dry-run"]) == EXIT_OK
        assert "gram systems: 3 distinct kernels for 6 columns\n" in capsys.readouterr().out
        data["kernels"] = shifts[:1]
        assert main(["study", "--config", write_cfg(tmp_path, data), "--dry-run"]) == EXIT_OK
        assert "gram systems: 1 distinct kernel for 1 column\n" in capsys.readouterr().out

    def test_study_dry_run_counts_reference_kernel(self, tmp_path, capsys):
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            "model": {"kind": "poisson"},
            "kernels": [{"family": "wendland3", "eps_reg": 1e-8}],
            "schedule": [4, 8],
            "reference": {"kind": "kernel", "n_max": 16, "kernel": {"family": "gaussian"}},
            "out": str(tmp_path / "out"),
        }
        assert main(["study", "--config", write_cfg(tmp_path, data), "--dry-run"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "samples: 16\n" in out
        assert "gram systems: 2 distinct kernels for 1 column\n" in out
        # the column's kernel under another regularization shares its Gram system
        data["reference"]["kernel"] = {"family": "wendland3", "tsvd_tol": 1e-3}
        assert main(["study", "--config", write_cfg(tmp_path, data), "--dry-run"]) == EXIT_OK
        assert "gram systems: 1 distinct kernel for 1 column\n" in capsys.readouterr().out

    def test_study_dry_run_at_level_ten(self, tmp_path, capsys):
        cfg = gfunction_cfg(tmp_path, dim=3, kernels=[{"family": "wendland0"}], schedule=[4, 8], level=10)
        assert main(["study", "--config", cfg, "--dry-run"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kernel moments: level 10, radial reduction with 513-node Gauss-Legendre segments\n" in out

    @pytest.mark.parametrize(
        "config,expected",
        [
            ("gfunction_external.json", ["gaussian kernel moments: erf products, exact at any level"]),
            (
                "poisson_tikhonov.json",
                ["wendland3 kernel moments: radial reduction, exact in one dimension at any level"],
            ),
            (
                "gfunction_kernels.json",
                [
                    "gaussian, matern32 kernel moments: erf products, exact at any level",
                    "wendland0, wendland1, wendland2, wendland3 kernel moments: "
                    "level 7, radial reduction with 65-node Gauss-Legendre segments",
                ],
            ),
        ],
    )
    def test_dry_run_names_each_moment_engine(self, capsys, config, expected):
        configs = Path(__file__).resolve().parent.parent / "configs"
        assert main(["study", "--config", str(configs / config), "--dry-run"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "kernel moments" in line] == expected

    def test_study_without_schedule_is_config_error(self, tmp_path, capsys):
        cfg = gfunction_cfg(tmp_path, kernels=[{"family": "gaussian"}])
        assert main(["study", "--config", cfg]) == EXIT_CONFIG
        assert "schedule" in capsys.readouterr().err


class TestReference:
    def test_exact_reference(self, tmp_path):
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            "model": {"kind": "poisson"},
            "out": str(tmp_path / "out"),
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["reference", "--config", cfg]) == EXIT_OK
        values = read_qoi(tmp_path / "out" / "reference.bin")
        assert np.array_equal(values, PoissonExact().exact_mean().values)
        meta = json.loads((tmp_path / "out" / "reference.json").read_text())
        assert meta == {"kind": "exact", "m": 1089}

    def test_exact_reference_dry_run_has_no_kernel_moments(self, tmp_path, capsys):
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            "model": {"kind": "poisson"},
            "out": str(tmp_path / "out"),
        }
        assert main(["reference", "--config", write_cfg(tmp_path, data), "--dry-run"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "samples: 0\n" in out and "kernel moments" not in out

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    def test_exact_reference_needs_an_exact_mean(self, tmp_path, capsys, dry_run):
        data = {
            "domain": {"kind": "unit", "dim": 1},
            "model": {
                "kind": "external",
                "command": f"{PY} {STUBS / 'constant_stub.py'} {{params}} {{dir}}",
                "root": str(tmp_path / "runs"),
            },
            "out": str(tmp_path / "out"),
        }
        assert main(["reference", "--config", write_cfg(tmp_path, data), *dry_run]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "model has no exact mean; use a kernel reference" in captured.err
        assert "samples:" not in captured.out
        assert not (tmp_path / "runs").exists() and not (tmp_path / "out").exists()

    def test_kernel_reference(self, tmp_path):
        data = {
            "domain": {"kind": "unit", "dim": 2},
            "model": {"kind": "gfunction"},
            "reference": {
                "kind": "kernel",
                "n_max": 32,
                "kernel": {"family": "gaussian", "epsilon": 2.0},
            },
            "level": 5,
            "out": str(tmp_path / "out"),
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["reference", "--config", cfg]) == EXIT_OK
        values = read_qoi(tmp_path / "out" / "reference.bin")
        assert values.shape == (1,)
        meta = json.loads((tmp_path / "out" / "reference.json").read_text())
        assert meta == {"kind": "kernel", "n_max": 32, "kernel": "gaussian", "m": 1}


    def test_kernel_reference_matches_library(self, tmp_path):
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 2},
            "model": {"kind": "kl", "correlation_length": 0.5, "x2_points": 9},
            "reference": {
                "kind": "kernel",
                "n_max": 48,
                "kernel": {"family": "matern32", "tsvd_tol": 1e-10},
            },
            "level": 5,
            "out": str(tmp_path / "out"),
        }
        cfg_path = write_cfg(tmp_path, data)
        assert main(["reference", "--config", cfg_path]) == EXIT_OK
        cfg = load_config(cfg_path)
        ref = cfg.reference
        expected = estimate(cfg.model, cfg.domain, {ref.kernel: (48,)}, level=5).means[ref.kernel, 48]
        assert expected.shape == (9,)
        assert np.array_equal(read_qoi(tmp_path / "out" / "reference.bin"), expected)


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        cfg = gfunction_cfg(tmp_path, kernels=[{"family": "gaussian"}], schedule=[4, 8])
        assert main(["validate-config", "--config", cfg]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            {"domain": {"kind": "unit", "dim": 1}, "model": {"kind": "gfunction"}, "sched": []},
        )
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "unknown key 'sched'" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate-config", "--config", str(tmp_path / "no.json")]) == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_level_above_range(self, tmp_path, capsys):
        cfg = gfunction_cfg(tmp_path, level=13)
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert "got 13" in capsys.readouterr().err


class TestExitCodes:
    def test_numerical_failure(self, tmp_path, capsys):
        data = {
            "domain": {"kind": "unit", "dim": 1},
            "model": {"kind": "gfunction"},
            "kernels": [
                {"family": "matern12", "zeta": 1e-300, "regularization": "none"}
            ],
            "out": str(tmp_path / "out"),
            "n": 8,
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["mean", "--config", cfg]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "kernel 'matern12' at N=8" in err  # where the solve failed

    def test_non_finite_model_output_is_numerical(self, tmp_path, capsys):
        # the G-function's product overflows to inf on so wide a box
        data = {
            "domain": {"kind": "symmetric", "half_width": 1e200, "dim": 2},
            "model": {"kind": "gfunction"},
            "kernels": [{"family": "gaussian"}],
            "out": str(tmp_path / "out"),
            "n": 4,
        }
        with np.errstate(over="ignore"):
            assert main(["mean", "--config", write_cfg(tmp_path, data)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "non-finite" in err

    def test_external_failure(self, tmp_path, capsys):
        stub = tmp_path / "fail.py"
        stub.write_text("import sys; sys.exit(1)\n")
        data = {
            "domain": {"kind": "unit", "dim": 1},
            "model": {
                "kind": "external",
                "command": f"{PY} {stub} {{params}} {{dir}}",
                "root": str(tmp_path / "runs"),
            },
            "kernels": [{"family": "gaussian"}],
            "out": str(tmp_path / "out"),
            "n": 4,
        }
        cfg = write_cfg(tmp_path, data)
        assert main(["mean", "--config", cfg]) == EXIT_EXTERNAL
        assert "external solver failure" in capsys.readouterr().err

    def test_stale_cache_is_external_failure(self, tmp_path, capsys):
        stub = tmp_path / "const.py"
        stub.write_text((STUBS / "constant_stub.py").read_text())
        data = {
            "domain": {"kind": "unit", "dim": 1},
            "model": {
                "kind": "external",
                "command": f"{PY} {stub} {{params}} {{dir}}",
                "root": str(tmp_path / "runs"),
            },
            "kernels": [{"family": "gaussian"}],
            "out": str(tmp_path / "out"),
            "n": 4,
        }
        assert main(["mean", "--config", write_cfg(tmp_path, data)]) == EXIT_OK
        # the same sample root under another domain asks for other points
        data["domain"] = {"kind": "symmetric", "half_width": 1.0, "dim": 1}
        assert main(["mean", "--config", write_cfg(tmp_path, data)]) == EXIT_EXTERNAL
        assert "sample 0: params.txt reads" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
