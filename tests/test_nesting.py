"""Properties that sharing one Gram matrix across a schedule rests on.

A study assembles one Gram matrix and one moment vector on its longest
Halton prefix and solves every shorter prefix on the leading block.
That is only the same computation as a separate run on the prefix if
Halton prefixes nest and both the Gram matrix and the moments of a
prefix are, bitwise, the leading block and entries of the full ones.
The Cholesky factor is shared the same way, which is backward stable but
not bitwise equal to factoring the prefix alone.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfuq import (
    FAMILIES,
    GFunction,
    KernelSetting,
    KernelSpec,
    ParameterDomain,
    Tikhonov,
    assemble_gram,
    estimate,
    halton_points,
    kernel_moments,
)

# Prefixes of up to 256 points
MAX_N = 256


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(1, 8), n=st.integers(1, MAX_N), extra=st.integers(0, MAX_N), start=st.integers(1, 50))
def test_halton_prefixes_nest(dim, n, extra, start):
    domain = ParameterDomain.symmetric(1.5, dim)
    full = halton_points(domain, n + extra, start_index=start)
    assert np.array_equal(halton_points(domain, n, start_index=start).points, full.points[:n])
    assert np.array_equal(full.prefix(n).points, full.points[:n])
    # the tail is the sequence continued, so later prefixes extend earlier ones
    if extra:
        tail = halton_points(domain, extra, start_index=start + n)
        assert np.array_equal(tail.points, full.points[n:])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_prefix_gram_and_moments_are_the_leading_block(family, dim, data):
    n_full = data.draw(st.integers(2, MAX_N), label="N")
    n = data.draw(st.integers(1, n_full), label="n")
    domain = ParameterDomain.symmetric(1.5, dim)
    spec = KernelSpec(family, dim, epsilon=1.5)
    points = halton_points(domain, n_full)
    gram = assemble_gram(spec, points).values
    moments = kernel_moments(spec, points, domain)
    assert np.array_equal(assemble_gram(spec, points.prefix(n)).values, gram[:n, :n])
    assert np.array_equal(kernel_moments(spec, points.prefix(n), domain), moments[:n])


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_nested_factor_weights_are_backward_stable(family, data):
    dim = data.draw(st.integers(1, 3), label="D")
    n_full = data.draw(st.integers(2, MAX_N), label="N")
    n = data.draw(st.integers(1, n_full), label="n")
    eps = data.draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]), label="eps_reg")
    domain = ParameterDomain.unit(dim)
    setting = KernelSetting(family, epsilon=1.5, regularization=Tikhonov(eps))
    # the weights at n come from the factor of the N x N block
    weights = estimate(GFunction(dim), domain, {setting: (n, n_full)}).weights[setting, n]
    shifted = assemble_gram(setting.spec(dim), halton_points(domain, n)).values + eps * np.eye(n)
    residual = shifted @ weights.omega - weights.moments
    scale = np.linalg.norm(shifted, 2) * np.linalg.norm(weights.omega)
    assert np.linalg.norm(residual) <= 1e-14 * scale
