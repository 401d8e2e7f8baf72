"""The benchmark's three workloads: inputs, timed rounds and checks.

Each workload writes its config files, then runs rounds of the same
operations.  ``timed`` is the part that is measured and returns the
units of work it did; ``settle`` checks the round's outputs against
values computed apart from rbfuq (see ``oracles``) and returns how many
operations were attempted and how many failed.  Every call into the
program goes through a module attribute (``study.run_study``,
``cli.main``), so the tracer's wrappers see it.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import shlex
import shutil
import struct
from pathlib import Path

import numpy as np
from rbfuq import cli, study
from rbfuq.config import load_config
from rbfuq.models import External, ExternalError, GridField
from rbfuq.param_space import ParameterDomain, halton_points
from rbfuq.quadrature import cc_rule, kernel_moments, moment_weights
from rbfuq.collocation import GramMatrix, assemble_gram
from rbfuq.kernels import KernelSpec
from rbfuq.study import ReferenceSpec

from . import oracles

HERE = Path(__file__).resolve().parent
STUB = HERE / "gstub.pl"
JOBS = len(os.sched_getaffinity(0))

# kernels: the paper's families on the D = 3 G-function, and two on the
# D = 5 KL field
D3_KERNELS = [
    {"family": "gaussian", "epsilon": 2.0, "eps_reg": 1e-8},
    {"family": "wendland0"},
    {"family": "wendland1"},
    {"family": "wendland2"},
    {"family": "wendland3"},
    {"family": "matern32"},
]
D3_SCHEDULE = [32, 64, 128, 256, 512, 1024]
D3_TOL = 1e-2  # relative error against the exact mean 1 at N = 1024
D5_SCHEDULE = [16, 32, 64, 128, 256]
D5_LC = 0.5
D5_MATERN_TOL = 0.1  # RMS error against the closed-form mean (RMS 5.41)
D5_GAUSSIAN_TOL = 1.0  # loose: its weights sum to 0.85 at N = 256
D5_WEIGHT_SUM_N = [16, 32, 64, 128]
D5_WEIGHT_SUM_TOL = 2e-2
QUAD_ORDER = 48  # per axis, per sub-box of the split quadrature
QUAD_TOL = 1e-6  # relative; wendland0 is at most 5e-7 off over all 1024 centres
QUAD_CENTRES = 3

# sweep1d: one wendland3 kernel on the 1-D Poisson problem
SWEEP_SHIFTS = [1e-8, 1e-6, 1e-4, 1e-2]
SWEEP_TSVD = [1e-3, 1e-1]
SWEEP_SCHEDULE = [64, 128, 256, 512, 1024, 2048]
SWEEP_BOUND = 1e-2  # error <= SWEEP_BOUND * shift at N = 2048

# rerun: the G-function through the external stub
RERUN_N = 1024
RERUN_KERNEL = {"family": "gaussian", "epsilon": 2.0, "eps_reg": 1e-8}
MEAN_TOL = 1e-2
WEIGHT_SUM_TOL = 1e-4
RERUN_SCHEDULE = [64, 128, 256, 512]
PROBE_START, PROBE_N = 500, 8


def stub_argv(*args) -> list:
    """The stub solver's command line, with perl's absolute path."""
    perl = shutil.which("perl")
    if perl is None:
        raise RuntimeError("the stub solver needs perl on PATH")
    return [perl, str(STUB), *map(str, args)]


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.problems: list[str] = []

    def __call__(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path


@dataclasses.dataclass(frozen=True)
class PermutedModel:
    """An in-process model read with its parameter axes relabelled.

    ``exact_mean`` is the benchmark's own closed form, so a study against
    it measures the error against a value computed apart.
    """

    base: object
    perm: tuple
    mean: np.ndarray

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def grid(self):
        return self.base.grid

    def evaluate(self, y):
        return self.base.evaluate(np.asarray(y, dtype=float)[list(self.perm)])

    def exact_mean(self) -> GridField:
        return GridField(grid=self.grid, values=np.asarray(self.mean, dtype=float))


@dataclasses.dataclass(frozen=True)
class ShiftedPoisson:
    """The Poisson model at y1 - shift, with its mean by math.erf."""

    base: object
    shift: float

    @property
    def dim(self) -> int:
        return 1

    @property
    def grid(self):
        return self.base.grid

    def evaluate(self, y):
        return self.base.evaluate(np.asarray(y, dtype=float) - self.shift)

    def exact_mean(self) -> GridField:
        shape = oracles.poisson_shape(self.grid.points())
        return GridField(grid=self.grid, values=oracles.poisson_mean_factor(self.shift) * shape)


class Workload:
    """One workload in one work directory, for one seed."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.check = Checks()
        self.rounds = 0

    def write_inputs(self) -> tuple:
        """Write the configs; returns their paths for the set-up probe."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Further set-up after the inputs exist."""

    def timed(self) -> int:
        raise NotImplementedError

    def settle(self) -> tuple:
        raise NotImplementedError

    def validate(self) -> None:
        """Checks made once, after the timed part."""


class Kernels(Workload):
    """Kernel families on a D = 3 G-function and a D = 5 KL-field study."""

    name = "kernels"
    def write_inputs(self):
        self.perm3 = oracles.axis_order(self.seed, 3)
        self.perm5 = oracles.axis_order(self.seed, 5)
        g3 = _write_json(self.work / "gfunction3.json", {
            "domain": {"kind": "unit", "dim": 3},
            "model": {"kind": "gfunction"},
            "kernels": D3_KERNELS,
            "schedule": D3_SCHEDULE,
            "level": 7,
            "norm": "rel_scalar",
        })
        kl5 = _write_json(self.work / "kl5.json", {
            "domain": {"kind": "symmetric", "half_width": oracles.SQRT3, "dim": 5},
            "model": {"kind": "kl", "correlation_length": D5_LC, "x2_points": 33},
            "kernels": [{"family": "gaussian"}, {"family": "matern32"}],
            "schedule": D5_SCHEDULE,
            "level": 4,
            "norm": "abs_l2",
            # the closed-form mean below replaces this reference
            "reference": {"kind": "kernel", "n_max": D5_SCHEDULE[-1], "kernel": {"family": "gaussian"}},
        })
        s3 = load_config(g3).study()
        s5 = load_config(kl5).study()
        x2 = s5.model.grid.points()[:, -1]
        self.studies = [
            dataclasses.replace(s3, model=PermutedModel(s3.model, self.perm3, np.ones(1))),
            dataclasses.replace(
                s5,
                model=PermutedModel(s5.model, self.perm5, oracles.kl_mean(x2, D5_LC, 5)),
                reference=ReferenceSpec.exact(),
            ),
        ]
        return [g3, kl5]

    def timed(self):
        self.reports = [study.run_study(cfg) for cfg in self.studies]
        return sum(len(c.kernels) * len(c.schedule) for c in self.studies)

    def settle(self):
        errors = [r.errors for r in self.reports]
        if self.rounds == 0:
            self.first = errors
            for column, errs in errors[0].items():
                self.check(errs[-1] <= D3_TOL, f"D=3 {column}: relative error {errs[-1]:.3e} > {D3_TOL}")
            d5 = errors[1]
            self.check(d5["matern32"][-1] <= D5_MATERN_TOL, f"D=5 matern32: error {d5['matern32'][-1]:.3e} > {D5_MATERN_TOL}")
            self.check(d5["gaussian"][-1] <= D5_GAUSSIAN_TOL, f"D=5 gaussian: error {d5['gaussian'][-1]:.3e} > {D5_GAUSSIAN_TOL}")
        self.check(errors == self.first, "study errors differ between rounds")
        self.rounds += 1
        return len(self.studies), 0

    def validate(self):
        cfg = self.studies[0]
        dom = cfg.domain
        rule = cc_rule(dom, cfg.level)
        pts = halton_points(dom, D3_SCHEDULE[-1])
        gauss = KernelSpec("gaussian", 3, epsilon=2.0)
        b = kernel_moments(gauss, pts, rule)
        ref = oracles.gaussian_moments(pts.points, 2.0, dom.lower, dom.upper)
        gap = float(np.max(np.abs(b - ref) / ref))
        self.check(gap <= 1e-13, f"Gaussian moments off the erf product by {gap:.2e}")
        picks = random.Random(self.seed).sample(range(pts.n), QUAD_CENTRES)
        centres = pts.points[picks]
        for kernel in D3_KERNELS:
            spec = KernelSpec(kernel["family"], 3, epsilon=kernel.get("epsilon", 1.0))
            b = kernel_moments(spec, centres, rule)
            for c, bc in zip(centres, b):
                q = oracles.split_quadrature(spec.profile, c, dom.lower, dom.upper, QUAD_ORDER)
                self.check(abs(bc - q) <= QUAD_TOL * abs(q), f"{spec.family} moment at {c}: {bc!r} vs {q!r}")
        # the D = 5 matern32 weights sum towards 1 along the schedule
        cfg = self.studies[1]
        spec = KernelSpec("matern32", 5)
        pts = halton_points(cfg.domain, D5_WEIGHT_SUM_N[-1])
        b = kernel_moments(spec, pts, cc_rule(cfg.domain, cfg.level))
        full = assemble_gram(spec, pts).values
        reg = cfg.kernels[1].regularization
        defects = []
        for n in D5_WEIGHT_SUM_N:
            gram = GramMatrix(values=full[:n, :n].copy(), spec=spec, points=pts.prefix(n))
            defects.append(abs(moment_weights(gram, reg, b[:n]).omega.sum() - 1.0))
        falling = all(later < earlier for earlier, later in zip(defects, defects[1:]))
        self.check(falling, f"D=5 matern32 |sum w - 1| not decreasing: {defects}")
        self.check(defects[-1] <= D5_WEIGHT_SUM_TOL, f"D=5 matern32 |sum w - 1| = {defects[-1]:.3e}")


class Sweep1d(Workload):
    """wendland3 on 1-D Poisson under Tikhonov shifts and TSVD tolerances."""

    name = "sweep1d"
    def write_inputs(self):
        self.shift = random.Random(self.seed).uniform(-0.5, 0.5)
        kernels = [{"family": "wendland3", "eps_reg": e, "label": f"shift{e:g}"} for e in SWEEP_SHIFTS]
        kernels += [{"family": "wendland3", "tsvd_tol": t, "label": f"tsvd{t:g}"} for t in SWEEP_TSVD]
        path = _write_json(self.work / "poisson.json", {
            "domain": {"kind": "symmetric", "half_width": oracles.SQRT3, "dim": 1},
            "model": {"kind": "poisson", "grid_points": 33},
            "kernels": kernels,
            "schedule": SWEEP_SCHEDULE,
            "level": 7,
            "norm": "abs_l2",
        })
        cfg = load_config(path).study()
        self.config = dataclasses.replace(cfg, model=ShiftedPoisson(cfg.model, self.shift))
        return [path]

    def timed(self):
        self.report = study.run_study(self.config)
        return len(self.config.kernels) * len(self.config.schedule)

    def settle(self):
        final = {c: e[-1] for c, e in self.report.errors.items()}
        if self.rounds == 0:
            self.first = self.report.errors
            shifts = [final[f"shift{e:g}"] for e in SWEEP_SHIFTS]
            tsvd = [final[f"tsvd{t:g}"] for t in SWEEP_TSVD]
            self.check(all(a < b for a, b in zip(shifts, shifts[1:])), f"errors not monotone in the shift: {shifts}")
            self.check(all(a < b for a, b in zip(tsvd, tsvd[1:])), f"errors not monotone in the TSVD tolerance: {tsvd}")
            for eps, err in zip(SWEEP_SHIFTS, shifts):
                self.check(err <= SWEEP_BOUND * eps, f"shift {eps:g}: error {err:.3e} > {SWEEP_BOUND:g} * shift")
        self.check(self.report.errors == self.first, "study errors differ between rounds")
        self.rounds += 1
        return 1, 0


class Rerun(Workload):
    """``rbfuq study`` and ``rbfuq mean`` again on a sample root filled in set-up.

    Set-up runs the cold pass: both commands on a fresh root, launching
    every sample at ``jobs = nproc`` (the write path of
    ``models.external``).  Each timed round runs them again on the filled
    root at ``--jobs 1``, so every sample is served from the cache.
    """

    name = "rerun"

    def _external_model(self, root: Path, log: Path) -> dict:
        perm = ",".join(str(a) for a in self.perm)
        command = shlex.join(stub_argv("{params}", "{dir}", perm, log))
        return {"kind": "external", "command": command, "root": str(root), "timeout": 30.0, "expected_m": 1}

    def write_inputs(self):
        self.perm = oracles.axis_order(self.seed, 3)
        self.root = self.work / "root"
        self.out = self.work / "out"
        self.log = self.work / "launches.log"
        self.log.touch()
        model = self._external_model(self.root, self.log)
        self.mean_config = _write_json(self.work / "mean.json", {
            "domain": {"kind": "unit", "dim": 3},
            "model": model,
            "kernels": [RERUN_KERNEL],
            "level": 7,
            "n": RERUN_N,
            "jobs": JOBS,
        })
        self.study_config = _write_json(self.work / "study.json", {
            "domain": {"kind": "unit", "dim": 3},
            "model": model,
            "kernels": [RERUN_KERNEL],
            "schedule": RERUN_SCHEDULE,
            "level": 7,
            "norm": "rel_scalar",
            "reference": {"kind": "kernel", "n_max": RERUN_N, "kernel": RERUN_KERNEL},
            "jobs": JOBS,
            "csv": "study.csv",
        })
        return [self.study_config, self.mean_config]

    def _cli(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def _pass(self, jobs: int) -> tuple:
        common = ("--out", str(self.out), "--jobs", str(jobs))
        rc_study = self._cli("study", "--config", str(self.study_config), *common)
        rc_mean = self._cli("mean", "--config", str(self.mean_config), *common)
        return rc_study, rc_mean

    def _launches(self) -> int:
        return len(self.log.read_text().splitlines())

    def _outputs(self) -> dict:
        return {name: (self.out / name).read_bytes() for name in ("study.csv", "mean.bin", "weights.csv")}

    def _check_mean(self) -> None:
        """mean.bin against the qoi files, weights.csv and the exact mean 1."""
        rows = np.loadtxt(self.out / "weights.csv", delimiter=",", skiprows=1)
        points, omega = rows[:, 1:4], rows[:, 4]
        self.check(np.array_equal(points, oracles.halton_unit(RERUN_N, 3)), "weights.csv points are not the Halton points")
        values = []
        for i, y in enumerate(points):
            raw = (self.root / "samples" / str(i) / "qoi.bin").read_bytes()
            count, value = struct.unpack("<Qd", raw)
            self.check(count == 1, f"sample {i}: count {count}")
            self.check(value == oracles.g_permuted(y, self.perm), f"sample {i}: {value!r} is not the G-function")
            values.append(value)
        count, mean = struct.unpack("<Qd", (self.out / "mean.bin").read_bytes())
        recomputed = math.fsum(w * u for w, u in zip(omega, values))
        self.check(count == 1 and abs(mean - recomputed) <= 1e-12 * abs(recomputed), f"mean.bin {mean!r} != sum w u {recomputed!r}")
        self.check(abs(mean - 1.0) <= MEAN_TOL, f"mean {mean!r} is not within {MEAN_TOL} of 1")
        self.check(abs(math.fsum(omega) - 1.0) <= WEIGHT_SUM_TOL, f"|sum w - 1| = {abs(math.fsum(omega) - 1.0):.3e}")

    def prepare(self):
        """The cold pass, which launches every sample and fills the cache."""
        rcs = self._pass(JOBS)
        self.check(rcs == (0, 0), f"cold pass exited {rcs}")
        self.filled = self._launches()
        self.check(self.filled == RERUN_N, f"cold pass made {self.filled} launches, expected {RERUN_N}")
        self._check_mean()
        self.cold = self._outputs()

    def timed(self):
        self.rcs = self._pass(1)
        return 2 * RERUN_N

    def settle(self):
        failed = sum(rc != 0 for rc in self.rcs)
        self.check(failed == 0, f"warm pass exited {self.rcs}")
        self.check(self._launches() == self.filled, "the launch log grew on a warm pass")
        self.check(self._outputs() == self.cold, "warm outputs differ from the cold pass")
        failed += not self._stale_cache_probe()
        self.rounds += 1
        return 3, failed

    def _stale_cache_probe(self) -> bool:
        """A campaign over other points, on a copy of the filled samples.

        True when the program returns the G-function at the new points or
        refuses with an error that names a sample; False when it returns
        the cached outputs of the old points.
        """
        probe = self.work / "probe"
        shutil.rmtree(probe, ignore_errors=True)
        for i in range(PROBE_N):
            shutil.copytree(self.root / "samples" / str(i), probe / "samples" / str(i))
        model = self._external_model(probe, probe / "launches.log")
        del model["kind"]
        points = halton_points(ParameterDomain.unit(3), PROBE_N, start_index=PROBE_START)
        try:
            table = study.evaluate_samples(External(**model), points, jobs=JOBS)
        except ExternalError as exc:
            return 0 <= exc.sample_index < PROBE_N
        expected = [oracles.g_permuted(y, self.perm) for y in points.points]
        return np.array_equal(table[:, 0], expected)


WORKLOADS = {w.name: w for w in (Kernels, Sweep1d, Rerun)}
