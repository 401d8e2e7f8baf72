"""Properties that sharing one Gram matrix across a schedule rests on.

A study assembles one Gram matrix and one moment vector on its longest
Halton prefix and solves every shorter prefix on the leading block.
That is only the same computation as a separate run on the prefix if
Halton prefixes nest and both the Gram matrix and the moments of a
prefix are, bitwise, the leading block and entries of the full ones.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfuq import FAMILIES, KernelSpec, ParameterDomain, assemble_gram, cc_rule, halton_points, kernel_moments

# D = 3 at level 7 moves 80 centres per moment batch, so prefixes of up
# to 256 points end inside and across batches
MAX_N = 256
LEVEL = 7


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
    rule = cc_rule(domain, LEVEL)
    gram = assemble_gram(spec, points).values
    moments = kernel_moments(spec, points, rule)
    assert np.array_equal(assemble_gram(spec, points.prefix(n)).values, gram[:n, :n])
    assert np.array_equal(kernel_moments(spec, points.prefix(n), rule), moments[:n])
