"""Tests of the benchmark's own helpers: oracles, stub solver and tracer.

Run from the repository root: python3 -m pytest -q perfbench
"""
import itertools
import math
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rbfuq import ParameterDomain, g_function, halton_points  # noqa: E402
from rbfuq.models import kl_log_field  # noqa: E402

from perfbench import oracles  # noqa: E402
from perfbench.tracer import Span, Tracer, covered_length, self_times  # noqa: E402


@pytest.mark.parametrize("lc", [0.5, 2.0])
def test_kl_mean_matches_brute_force_integral(lc):
    dim, order = 5, 7
    x2 = np.linspace(0.0, 1.0, 9)
    t, w = np.polynomial.legendre.leggauss(order)
    total = np.zeros_like(x2)
    for idx in itertools.product(range(order), repeat=dim):
        y = oracles.SQRT3 * t[list(idx)]
        _, force = kl_log_field(y, x2, lc)
        total += math.prod(w[i] for i in idx) * force
    brute = total / 2.0 ** dim
    assert np.allclose(oracles.kl_mean(x2, lc, dim), brute, rtol=1e-9, atol=1e-9)


def test_poisson_mean_factor_matches_brute_force():
    t, w = np.polynomial.legendre.leggauss(60)
    for shift in (-0.5, 0.0, 0.3):
        y = oracles.SQRT3 * t
        brute = float(np.sum(w * np.exp(-((y - shift) ** 2)))) / 2.0
        assert oracles.poisson_mean_factor(shift) == pytest.approx(brute, rel=1e-14)


def test_halton_unit_equals_program_points():
    ours = oracles.halton_unit(64, 3, start=5)
    theirs = halton_points(ParameterDomain.unit(3), 64, start_index=5).points
    assert np.array_equal(ours, theirs)


def test_axis_order_is_a_seeded_permutation():
    assert sorted(oracles.axis_order(7, 5)) == list(range(5))
    assert oracles.axis_order(7, 5) == oracles.axis_order(7, 5)
    assert {oracles.axis_order(s, 3) for s in range(50)} == set(itertools.permutations(range(3)))


@pytest.mark.skipif(shutil.which("perl") is None, reason="the stub solver needs perl")
def test_stub_writes_the_g_function(tmp_path):
    log = tmp_path / "launches.log"
    points = halton_points(ParameterDomain.unit(3), 12).points
    for i, (y, perm) in enumerate(zip(points, itertools.cycle(itertools.permutations(range(3))))):
        sample = tmp_path / str(i)
        sample.mkdir()
        (sample / "params.txt").write_text(" ".join(format(v, ".17g") for v in y) + "\n")
        subprocess.run(
            ["perl", str(HERE / "gstub.pl"), str(sample / "params.txt"), str(sample),
             ",".join(map(str, perm)), str(log)],
            check=True,
        )
        count, value = struct.unpack("<Qd", (sample / "qoi.bin").read_bytes())
        assert count == 1
        assert value == oracles.g_permuted(y, perm)
        assert value == pytest.approx(g_function(y[list(perm)]), rel=1e-15, abs=1e-15)
    assert len(log.read_text().splitlines()) == len(points)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 5.0) == 0.0
    assert covered_length([(1.0, 2.0), (1.5, 3.0), (4.0, 9.0)], 0.0, 5.0) == 3.0
    assert covered_length([(-1.0, 1.0), (0.5, 0.75)], 0.0, 5.0) == 1.0


def test_self_times_subtract_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.x", 2.0, 3.0, 1),
        Span("b", 5.0, 6.5, 0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]
    assert sum(self_times(spans)) == spans[0].duration


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner", attrs=lambda a, k, r: {"N": a[0], "out": r})
    outer = tracer.wrap(lambda x: inner(x) * inner(x), "outer")
    assert outer(2) == 9
    names = [(s.name, s.start, s.end, s.parent) for s in tracer.spans]
    assert names == [("outer", 0.0, 5.0, None), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0)]
    assert tracer.spans[1].attrs == {"N": 2, "out": 3}
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_patched_restores_the_originals():
    import types

    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    tracer = Tracer()
    with tracer.patched([(module, "f", "m.f", None)]):
        assert module.f is not original
        assert module.f() == 1
    assert module.f is original
    assert [s.name for s in tracer.spans] == ["m.f"]
