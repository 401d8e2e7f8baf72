import builtins
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from rbfuq import (
    ConfigError,
    External,
    PoissonExact,
    assemble_gram,
    estimate,
    estimate_mean,
    halton_points,
    kernel_moments,
    load_config,
    moment_weights,
    parse_config,
    read_qoi,
)
from rbfuq.cli import EXIT_CONFIG, EXIT_EXTERNAL, EXIT_NUMERICAL, EXIT_OK, main
from rbfuq.study import config_echo

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
            tmp_path, dim=1, n=4, kernels=[{"family": "gaussian"}]
        )
        assert main(["mean", "--config", cfg_path]) == EXIT_OK
        mean = read_qoi(tmp_path / "out" / "mean.bin")

        cfg = load_config(cfg_path)
        setting = cfg.first_kernel()
        points = halton_points(cfg.domain, 4)
        spec = setting.spec(1)
        gram = assemble_gram(spec, points)
        b = kernel_moments(spec, points, cfg.domain)
        weights = moment_weights(gram, setting.regularization, b)
        table = np.vstack([cfg.model.evaluate(y).values for y in points.points])
        expected = estimate_mean(weights, table)
        assert np.array_equal(mean, expected)

    def test_weights_csv_roundtrip(self, tmp_path):
        cfg_path = gfunction_cfg(
            tmp_path, dim=1, n=4, kernels=[{"family": "wendland1"}]
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
        b = kernel_moments(spec, points, cfg.domain)
        weights = moment_weights(gram, setting.regularization, b)
        for i, line in enumerate(lines[1:]):
            idx, y, w = line.split(",")
            assert int(idx) == i
            assert float(y) == points.points[i, 0]
            assert float(w) == weights.omega[i]

    def test_writes_what_estimate_computes(self, tmp_path):
        cfg_path = gfunction_cfg(
            tmp_path, dim=2, n=40, kernels=[{"family": "wendland2", "tsvd_tol": 1e-9}]
        )
        assert main(["mean", "--config", cfg_path]) == EXIT_OK
        cfg = load_config(cfg_path)
        setting = cfg.first_kernel()
        result = estimate(cfg.model, cfg.domain, {setting: (40,)})
        assert np.array_equal(read_qoi(tmp_path / "out" / "mean.bin"), result.means[setting, 40])
        rows = (tmp_path / "out" / "weights.csv").read_text().splitlines()[1:]
        omega = [float(row.split(",")[-1]) for row in rows]
        assert np.array_equal(omega, result.weights[setting, 40].omega)

    def test_scalar_estimate_printed(self, tmp_path, capsys):
        cfg_path = gfunction_cfg(tmp_path, dim=1, n=8, kernels=[{"family": "gaussian"}])
        main(["mean", "--config", cfg_path])
        assert "mean estimate:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["mean", "sample"])
    def test_dry_run_writes_nothing(self, tmp_path, capsys, command):
        cfg_path = gfunction_cfg(tmp_path, dim=2, n=16, kernels=[{"family": "gaussian"}])
        assert main([command, "--config", cfg_path, "--dry-run"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "samples: 16" in out
        if command == "mean":
            assert "collocation system: 16 x 16" in out
        else:
            assert f"would write {tmp_path / 'out' / 'points.csv'}" in out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_zero_samples_refused_before_any_directory(self, tmp_path, capsys, dry_run):
        cfg_path = gfunction_cfg(tmp_path, n=16, kernels=[{"family": "gaussian"}])
        assert main(["mean", "--config", cfg_path, "--n", "0", *dry_run]) == EXIT_CONFIG
        assert "config.n must be >= 1 for mean, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert "kernel moments: radial reduction with 33-node Gauss-Legendre segments\n" in out

    @pytest.mark.parametrize(
        "config,expected",
        [
            ("gfunction_external.json", ["gaussian kernel moments: erf products, exact in any dimension"]),
            (
                "poisson_tikhonov.json",
                ["wendland3 kernel moments: radial reduction, exact in one dimension"],
            ),
            (
                "gfunction_kernels.json",
                [
                    "gaussian, matern32 kernel moments: erf products, exact in any dimension",
                    "wendland0, wendland1, wendland2, wendland3 kernel moments: "
                    "radial reduction with 33-node Gauss-Legendre segments",
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


    def test_csv_in_a_new_subdirectory(self, tmp_path):
        cfg = gfunction_cfg(tmp_path, kernels=[{"family": "gaussian"}], schedule=[4], level=3, csv="sub/g.csv")
        assert main(["study", "--config", cfg]) == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out" / "sub").iterdir()) == ["g.csv", "g.json"]


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
        assert meta == {"reference": {"type": "referencespec", "kind": "exact", "n_max": None, "kernel": None}, "m": 1089}

    def test_exact_reference_dry_run_has_no_kernel_moments(self, tmp_path, capsys):
        data = {
            "domain": {"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 1},
            "model": {"kind": "poisson"},
            "out": str(tmp_path / "out"),
        }
        assert main(["reference", "--config", write_cfg(tmp_path, data), "--dry-run"]) == EXIT_OK
        assert capsys.readouterr().out == "reference: the exact mean of PoissonExact\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["reference", "study"])
    @pytest.mark.parametrize(
        "domain,model",
        [
            ({"kind": "unit", "dim": 1}, "PoissonExact"),
            ({"kind": "symmetric", "half_width": math.sqrt(3.0), "dim": 2}, "GFunction"),
            ({"kind": "symmetric", "half_width": 1.0, "dim": 2}, "KLField"),
        ],
    )
    def test_exact_reference_on_another_box(self, tmp_path, capsys, command, domain, model):
        kinds = {"PoissonExact": "poisson", "GFunction": "gfunction", "KLField": "kl"}
        data = {
            "domain": domain,
            "model": {"kind": kinds[model]},
            "kernels": [{"family": "gaussian"}],
            "schedule": [4],
            "out": str(tmp_path / "out"),
        }
        assert main([command, "--config", write_cfg(tmp_path, data)]) == EXIT_CONFIG
        assert f"the exact mean of {model} is over" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        kernel = {
            "type": "kernelsetting",
            "family": "gaussian",
            "zeta": 1.0,
            "epsilon": 2.0,
            "regularization": {"type": "tikhonov", "eps_reg": 1e-12},
            "label": None,
        }
        assert meta == {"reference": {"type": "referencespec", "kind": "kernel", "n_max": 32, "kernel": kernel}, "m": 1}


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
        expected = estimate(cfg.model, cfg.domain, {ref.kernel: (48,)}).means[ref.kernel, 48]
        assert expected.shape == (9,)
        assert np.array_equal(read_qoi(tmp_path / "out" / "reference.bin"), expected)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _tree(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*")}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_bundled_config_dry_runs_write_nothing(tmp_path, monkeypatch, capsys, name):
    """Each dry run of each bundled config exits 0, plans at least one sample and
    writes nothing: the copy's external roots resolve inside ``tmp_path``."""
    cfg = tmp_path / "configs" / name
    cfg.parent.mkdir()
    cfg.write_text((CONFIGS / name).read_text())
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    commands = ["study", "reference"] + ["mean"] * ("n" in json.loads(cfg.read_text()))
    for command in commands:
        assert main([command, "--config", str(cfg), "--out", "out", "--dry-run"]) == EXIT_OK, command
        assert "samples: 0\n" not in capsys.readouterr().out, command
    assert _tree(tmp_path) == before


class _HalfWrite:
    """A file whose first write stores half its data, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "command,target",
    [("study", "study.csv"), ("study", "study.json"), ("mean", "weights.csv"), ("reference", "reference.json")],
)
def test_write_failing_partway_keeps_the_old_file(tmp_path, monkeypatch, command, target):
    run = {"kernels": [{"family": "gaussian"}], "schedule": [4, 8], "level": 3}
    assert main([command, "--config", gfunction_cfg(tmp_path, n=4, **run)]) == EXIT_OK
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_open = builtins.open

    def failing_open(name, mode="r", *args, **kwargs):
        fh = real_open(name, mode, *args, **kwargs)
        # the target, or a temporary file named after it
        writes_target = "w" in mode and os.path.basename(os.fspath(name)).startswith(target)
        return _HalfWrite(fh) if writes_target else fh

    reference = {"kind": "kernel", "n_max": 8, "kernel": {"family": "gaussian"}}
    cfg = gfunction_cfg(tmp_path, n=8, reference=reference, **run)
    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="No space"):
        main([command, "--config", cfg])
    monkeypatch.undo()
    assert (out / target).read_bytes() == before[target]
    assert sorted(p.name for p in out.iterdir()) == sorted(before)


IN_PROCESS = ["poisson_kernels", "poisson_tikhonov", "poisson_tsvd", "poisson_zeta", "gfunction_kernels", "kl_field"]


class TestSidecarRerun:
    """A study's sidecar is a config: ``study --config <sidecar>`` reruns the study."""

    @pytest.mark.parametrize("name", IN_PROCESS)
    def test_rerun_from_the_sidecar_writes_the_same_csv(self, tmp_path, capsys, name):
        data = json.loads((CONFIGS / f"{name}.json").read_text())
        data["schedule"] = data["schedule"][:3]
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        assert main(["study", "--config", write_cfg(tmp_path, data), "--out", str(first)]) == EXIT_OK
        sidecar = str(first / f"{name}.json")
        assert main(["validate-config", "--config", sidecar]) == EXIT_OK
        assert main(["study", "--dry-run", "--config", sidecar, "--out", str(rerun)]) == EXIT_OK
        assert not rerun.exists()
        assert main(["study", "--config", sidecar, "--out", str(rerun)]) == EXIT_OK
        assert (rerun / "study.csv").read_bytes() == (first / f"{name}.csv").read_bytes()
        echoes = [json.loads((out / f"{csv}.json").read_text())["config"] for out, csv in ((first, name), (rerun, "study"))]
        assert echoes[0] == echoes[1]

    def test_unregistered_model_type_exits_2_and_names_its_path(self, tmp_path, capsys):
        sidecar = {"config": config_echo(load_config(CONFIGS / "poisson_kernels.json").study())}
        sidecar["config"]["model"] = {"type": "mymodel"}
        out = tmp_path / "out"
        for command in (["study"], ["study", "--dry-run"], ["validate-config"]):
            argv = [*command, "--config", write_cfg(tmp_path, sidecar, "study.json")]
            argv += ["--out", str(out)] * (command[0] == "study")
            assert main(argv) == EXIT_CONFIG
            assert "config error: config.model: unknown type 'mymodel'" in capsys.readouterr().err
        assert not out.exists()


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


class TestWendlandMomentsAboveThreeDimensions:
    """A D = 5 config with a Wendland kernel is refused at load, before any directory."""

    @pytest.mark.parametrize(
        "command",
        [["study"], ["study", "--dry-run"], ["mean"], ["mean", "--dry-run"], ["reference"],
         ["reference", "--dry-run"], ["validate-config"]],
        ids=" ".join,
    )
    @pytest.mark.parametrize("where", ["kernels[1].family", "reference.kernel.family"])
    def test_exits_2_naming_matern32(self, tmp_path, capsys, where, command):
        column = {"family": "wendland3"} if where.startswith("kernels") else {"family": "matern32"}
        reference = {"family": "wendland1"} if where.startswith("reference") else {"family": "gaussian"}
        cfg = gfunction_cfg(
            tmp_path,
            dim=5,
            n=8,
            kernels=[{"family": "gaussian"}, column],
            schedule=[4, 8],
            reference={"kind": "kernel", "n_max": 8, "kernel": reference},
        )
        assert main([*command, "--config", cfg]) == EXIT_CONFIG
        family = (column if where.startswith("kernels") else reference)["family"]
        expected = f"{where}: {family} kernel moments are computed only up to 3 dimensions, not 5; use matern32"
        assert expected in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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

    @pytest.mark.parametrize("token", ["{foo}", "{0}", "{", "{dir[x]}"])
    def test_unfillable_command_template_is_refused_before_any_launch(self, tmp_path, capsys, token):
        command = f"{PY} {STUBS / 'constant_stub.py'} {{params}} {token}"
        message = f"command token {re.escape(repr(token))} takes only"
        with pytest.raises(ValueError, match=message):
            External(command=command, root=str(tmp_path / "runs"))
        data = {
            "domain": {"kind": "unit", "dim": 1},
            "model": {"kind": "external", "command": command, "root": str(tmp_path / "runs")},
            "kernels": [{"family": "gaussian"}],
            "out": str(tmp_path / "out"),
            "n": 4,
        }
        with pytest.raises(ConfigError, match=f"^model: {message}"):
            parse_config(data)
        cfg = write_cfg(tmp_path, data)
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert main(["mean", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(re.match(f"config error: model: {message}", line) for line in err)
        assert not (tmp_path / "runs").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sample", "mean", "study", "reference"])
    def test_output_below_a_file_is_refused_before_any_launch(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        data = {
            "domain": {"kind": "unit", "dim": 1},
            "model": {
                "kind": "external",
                "command": f"{PY} {STUBS / 'constant_stub.py'} {{params}} {{dir}}",
                "root": str(tmp_path / "runs"),
            },
            "kernels": [{"family": "gaussian"}],
            "schedule": [4],
            "reference": {"kind": "kernel", "n_max": 4, "kernel": {"family": "gaussian"}},
            "n": 4,
        }
        out = str(tmp_path / "file" / "out")
        assert main([command, "--config", write_cfg(tmp_path, data), "--out", out]) == EXIT_CONFIG
        assert f"cannot create the directory of output {out}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
