"""Fuzzy-number core: constructors, metric, order, and their axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DYADIC_LEVELS, dyadic, fuzzy_numbers

from fuzzysumm import (FuzzyNumber, add, closeness_check, crisp, distance,
                       partial_leq, resample, scale, translate, triangular,
                       triangular_profile_of, uniform_alphas, zero)
from fuzzysumm.numbers import is_triangular


class TestConstructors:
    def test_crisp_zero_all_cuts_degenerate(self):
        z = crisp(0)
        assert np.all(z.lower == 0) and np.all(z.upper == 0)

    def test_crisp_negative(self):
        m = crisp(-1)
        assert m.cut(0.0) == (-1.0, -1.0)
        assert m.cut(1.0) == (-1.0, -1.0)

    def test_crisp_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                crisp(bad)

    @pytest.mark.parametrize("bad", [
        (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (-math.inf, 1.0, 1.0),
        (0.0, math.nan, 0.0), (0.0, 0.0, math.nan), (0.0, math.inf, 0.0),
        (0.0, 0.0, -math.inf), (0.0, -0.5, 0.0), (0.0, 0.0, -1e-300)])
    def test_one_rule_for_a_triangular_value(self, bad):
        # NaN fails every test: scalars, arrays and the constructor agree
        assert not is_triangular(*bad)
        good = (1.5, 0.0, 2.0)
        arrays = [np.array([g, b, g]) for g, b in zip(good, bad)]
        assert is_triangular(*arrays).tolist() == [True, False, True]
        with pytest.raises(ValueError, match="has a non-finite center or "
                                             "spread, or a negative spread$"):
            triangular(*bad)

    def test_signed_zeros_and_huge_finite_values_are_triangular(self):
        assert is_triangular(-0.0, -0.0, 0.0) and is_triangular(1e308, 1e308, 0)

    def test_triangular_zero_spread_is_crisp(self):
        assert distance(triangular(0, 0, 0), crisp(0)) == 0.0

    def test_triangular_cut_formula(self):
        # lo = 1 - 0.5*0.5, hi = 1 + 0.5*0.25, computed by hand
        t = triangular(1, 0.5, 0.25)
        assert t.cut(0.5) == (0.75, 1.125)

    def test_triangular_rejects_negative_spread(self):
        with pytest.raises(ValueError):
            triangular(0, -0.1, 0)
        with pytest.raises(ValueError):
            triangular(0, 0, -1)

    def test_invalid_ladders_rejected(self):
        alphas = uniform_alphas(3)
        with pytest.raises(ValueError):
            FuzzyNumber(alphas, [0, 0, 1], [2, 2, 0])  # lower > upper on top
        with pytest.raises(ValueError):
            FuzzyNumber(alphas, [0, -1, 0], [2, 2, 2])  # lower not nested
        with pytest.raises(ValueError):
            FuzzyNumber([0.0, 0.5], [0, 0], [1, 1])  # grid not reaching 1

    def test_immutable(self):
        z = zero()
        with pytest.raises(AttributeError):
            z.lower = None
        with pytest.raises(ValueError):
            z.lower[0] = 5.0


class TestArithmetic:
    def test_add_crisp(self):
        assert distance(add(crisp(2), crisp(3)), crisp(5)) == 0.0

    def test_add_triangular(self):
        got = add(triangular(1, 0.5, 0.5), triangular(2, 1, 1))
        assert distance(got, triangular(3, 1.5, 1.5)) <= 1e-12

    def test_add_identity(self):
        t = triangular(1.25, 0.5, 2)
        assert distance(add(t, crisp(0)), t) == 0.0

    def test_scale_by_one(self):
        t = triangular(1, 0.5, 0.25)
        assert distance(scale(1, t), t) == 0.0

    def test_scale_negative_crisp(self):
        assert distance(scale(-1, crisp(1)), crisp(-1)) == 0.0

    def test_scale_negative_swaps_spreads(self):
        got = scale(-2, triangular(1, 0.5, 0.25))
        assert distance(got, triangular(-2, 0.5, 1.0)) == 0.0

    def test_operator_sugar(self):
        assert distance(crisp(1) + crisp(2), crisp(3)) == 0.0
        assert distance(2 * crisp(3), crisp(6)) == 0.0

    def test_mixed_grid_resampling_exact_for_triangular(self):
        coarse = triangular(1, 0.5, 0.25, levels=5)
        fine = triangular(1, 0.5, 0.25, levels=DYADIC_LEVELS)
        assert distance(coarse, fine) <= 1e-12
        assert distance(add(coarse, fine), triangular(2, 1.0, 0.5)) <= 1e-12

    def test_resample_preserves_shape(self):
        t = triangular(0, 2, 1, levels=9)
        r = resample(t, uniform_alphas(33))
        assert distance(t, r) <= 1e-12


class TestMetricAndOrder:
    def test_distance_crisp_pair(self):
        assert distance(crisp(3), crisp(5)) == 2.0

    def test_distance_growing_triangular(self):
        # spread k*x with k=9, x=0.5
        assert distance(triangular(0, 4.5, 4.5), zero()) == 4.5

    def test_distance_spread_k4_x1(self):
        assert distance(triangular(0, 4.0, 4.0), zero()) == 4.0

    def test_self_distance_zero(self):
        t = triangular(2, 1, 3)
        assert distance(t, t) == 0.0

    def test_partial_leq_crisp(self):
        assert partial_leq(crisp(1), crisp(2))
        assert not partial_leq(crisp(2), crisp(1))

    def test_partial_leq_incomparable(self):
        t = triangular(0, 1, 1)
        assert not partial_leq(t, zero())
        assert not partial_leq(zero(), t)

    def test_partial_leq_reflexive(self):
        t = triangular(-1, 0.5, 2)
        assert partial_leq(t, t)

    def test_closeness_trivial(self):
        t = triangular(1, 1, 1)
        assert closeness_check(t, t, 0.25) == (True, True)

    def test_closeness_half_spread(self):
        got = closeness_check(crisp(0), triangular(0, 0.5, 0.5), 0.5)
        assert got == (True, True)

    def test_closeness_far(self):
        assert closeness_check(crisp(0), crisp(2), 1.0) == (False, False)

    def test_closeness_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            closeness_check(crisp(0), crisp(0), 0.0)

    def test_closeness_refuses_nan_eps_by_name(self):
        # nan <= 0 is False: NaN once failed later, in triangular(nan, 0, 0)
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, inf\), got nan$"):
            closeness_check(crisp(0), crisp(0), math.nan)


class TestProfileHelpers:
    def test_profile_roundtrip(self):
        t = triangular(1.5, 0.75, 0.25)
        assert triangular_profile_of(t) == (1.5, 0.75, 0.25)

    def test_profile_rejects_non_triangular(self):
        alphas = uniform_alphas(3)
        trapezoid = FuzzyNumber(alphas, [0.0, 0.5, 1.0], [4.0, 3.5, 3.0])
        with pytest.raises(ValueError):
            triangular_profile_of(trapezoid)


# --- sampled axioms -------------------------------------------------------

pair = st.tuples(fuzzy_numbers(), fuzzy_numbers())
triple = st.tuples(fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers())


@settings(max_examples=200)
@given(pair)
def test_metric_symmetric_nonnegative(xy):
    x, y = xy
    d = distance(x, y)
    assert d >= 0.0
    assert d == distance(y, x)


@settings(max_examples=200)
@given(triple)
def test_metric_triangle_inequality(xyz):
    x, y, z = xyz
    assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-12


@settings(max_examples=200)
@given(fuzzy_numbers(), dyadic(-4, 4))
def test_scaling_homogeneity(x, c):
    y = triangular(0.5, 0.25, 1.0, levels=DYADIC_LEVELS)
    lhs = distance(scale(c, x), scale(c, y))
    rhs = abs(c) * distance(x, y)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=200)
@given(triple)
def test_translation_invariance_exact(xyz):
    # dyadic parameters on a dyadic grid: the shift cancels exactly
    x, y, z = xyz
    assert distance(add(x, z), add(y, z)) == distance(x, y)


@settings(max_examples=200)
@given(st.tuples(fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers()))
def test_joint_additivity_bound(xyzw):
    x, y, z, w = xyzw
    assert distance(add(x, z), add(y, w)) <= distance(x, y) + distance(z, w) + 1e-12


@settings(max_examples=200)
@given(pair, dyadic(1 / 64, 4))
def test_closeness_routes_agree(xy, eps):
    x, y = xy
    got = closeness_check(x, y, eps)
    assert got.by_metric == got.by_order


@settings(max_examples=200)
@given(pair)
def test_order_antisymmetry(xy):
    x, y = xy
    if partial_leq(x, y) and partial_leq(y, x):
        assert distance(x, y) <= 1e-12


@settings(max_examples=200)
@given(triple)
def test_order_transitivity(xyz):
    x, y, z = xyz
    if partial_leq(x, y) and partial_leq(y, z):
        # dyadic inputs make the comparisons exact, no tolerance creep
        assert partial_leq(x, z)


@settings(max_examples=200)
@given(pair, dyadic(-4, 4))
def test_ops_preserve_nesting(xy, c):
    x, y = xy
    for result in (add(x, y), scale(c, x), translate(x, c)):
        assert np.all(np.diff(result.lower) >= 0)
        assert np.all(np.diff(result.upper) <= 0)
        assert np.all(result.lower <= result.upper)
