import numpy as np
import pytest

from rbfuq import CollocationSet, MAX_DIM, ParameterDomain, halton_points, radical_inverse


# Hand-computed digit reversals: i = sum d_k b^k maps to sum d_k b^(-k-1).
BASE2_FIRST8 = [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875, 0.0625]
BASE3_FIRST8 = [1 / 3, 2 / 3, 1 / 9, 4 / 9, 7 / 9, 2 / 9, 5 / 9, 8 / 9]
PRIMES = [p for p in range(2, 312) if all(p % q for q in range(2, p))]  # the MAX_DIM = 64 bases


class TestRadicalInverse:
    def test_base2_first_eight_exact(self):
        got = [radical_inverse(i, 2) for i in range(1, 9)]
        assert got == BASE2_FIRST8

    def test_base3_first_eight_exact(self):
        got = [radical_inverse(i, 3) for i in range(1, 9)]
        assert got == BASE3_FIRST8

    def test_values_in_unit_interval(self):
        vals = [radical_inverse(i, 5) for i in range(1, 200)]
        assert all(0.0 < v < 1.0 for v in vals)

    def test_distinct_for_distinct_indices(self):
        vals = [radical_inverse(i, 2) for i in range(1, 300)]
        assert len(set(vals)) == len(vals)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            radical_inverse(0, 2)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            radical_inverse(1, 1)


class TestParameterDomain:
    def test_volume_and_lengths(self):
        dom = ParameterDomain([-1.0, 0.0], [1.0, 3.0])
        assert dom.volume == 6.0
        assert np.array_equal(dom.lengths, [2.0, 3.0])

    def test_unit_box(self):
        dom = ParameterDomain.unit(4)
        assert dom.dim == 4
        assert dom.volume == 1.0

    def test_symmetric_box(self):
        dom = ParameterDomain.symmetric(1.5, 2)
        assert np.array_equal(dom.lower, [-1.5, -1.5])
        assert np.array_equal(dom.upper, [1.5, 1.5])

    def test_map_from_unit(self):
        dom = ParameterDomain([2.0], [4.0])
        assert dom.map_from_unit(np.array([0.5]))[0] == 3.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            ParameterDomain([1.0], [1.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ParameterDomain([2.0], [1.0])

    def test_negative_dim_refused_as_zero_is(self):
        for build in (ParameterDomain.unit, lambda dim: ParameterDomain.symmetric(1.0, dim)):
            for dim in (0, -1):
                with pytest.raises(ValueError, match="^domain needs at least one dimension$"):
                    build(dim)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ParameterDomain([0.0], [np.inf])

    def test_rejects_a_width_that_overflows(self):
        # finite bounds, but hi - lo is inf: the Halton points would all be inf
        with pytest.raises(ValueError, match=r"^dimension 0 has interval \[-1e\+308, 1e\+308\], whose width overflows"):
            ParameterDomain.symmetric(1e308, 2)
        with pytest.raises(ValueError, match="^dimension 1 has"):
            ParameterDomain([0.0, -1e308, -1e308], [1.0, 1e308, 1e308])
        assert ParameterDomain([-8e307], [8e307]).lengths[0] == 1.6e308


class TestHaltonPoints:
    def test_first_point_matches_radical_inverses(self):
        dom = ParameterDomain.unit(3)
        pts = halton_points(dom, 1).points
        # bases 2, 3, 5 for the first three dimensions
        assert pts[0, 0] == 0.5
        assert pts[0, 1] == 1 / 3
        assert pts[0, 2] == 1 / 5

    def test_prefix_property_bitwise(self):
        dom = ParameterDomain.unit(4)
        long = halton_points(dom, 500).points
        short = halton_points(dom, 123).points
        assert np.array_equal(long[:123], short)

    def test_points_inside_open_box(self):
        dom = ParameterDomain([-2.0, 1.0], [5.0, 2.0])
        pts = halton_points(dom, 400).points
        assert np.all(pts > dom.lower) and np.all(pts < dom.upper)

    def test_start_index_shifts_sequence(self):
        dom = ParameterDomain.unit(1)
        a = halton_points(dom, 5, start_index=1).points
        b = halton_points(dom, 4, start_index=2).points
        assert np.array_equal(a[1:], b)

    def test_source_records_start(self):
        dom = ParameterDomain.unit(1)
        assert "start_index=1" in halton_points(dom, 2).source

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            halton_points(ParameterDomain.unit(MAX_DIM + 1), 4)

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            halton_points(ParameterDomain.unit(2), 0)

    @pytest.mark.parametrize("start", [1, 500, 2**20, 2**40, 2**44 - 200])
    def test_every_base_equals_radical_inverse_bitwise(self, start):
        unit = halton_points(ParameterDomain.unit(MAX_DIM), 200, start_index=start).points
        expected = [[radical_inverse(start + i, base) for base in PRIMES] for i in range(200)]
        assert np.array_equal(unit, expected)

    def test_indices_from_two_to_the_44_are_refused(self):
        dom = ParameterDomain.unit(2)
        assert halton_points(dom, 1, start_index=2**44 - 1).n == 1
        with pytest.raises(ValueError, match=r"^Halton index 17592186044416 is 2\^44 or more"):
            halton_points(dom, 2, start_index=2**44 - 1)
        with pytest.raises(ValueError, match="start_index must be >= 1, got 0"):
            halton_points(dom, 4, start_index=0)


class TestCollocationSet:
    def test_prefix_keeps_source(self):
        pts = CollocationSet(np.arange(12.0).reshape(6, 2), source="test")
        sub = pts.prefix(3)
        assert sub.n == 3 and sub.source == "test"
        assert np.array_equal(sub.points, pts.points[:3])

    def test_prefix_bounds(self):
        pts = CollocationSet(np.zeros((4, 1)), source="test")
        with pytest.raises(ValueError):
            pts.prefix(5)
        with pytest.raises(ValueError):
            pts.prefix(0)

    def test_one_dim_input_promoted(self):
        pts = CollocationSet(np.array([1.0, 2.0, 3.0]), source="test")
        assert pts.points.shape == (3, 1)
