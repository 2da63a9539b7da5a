"""Transforms, verdicts, and classification against brute-force oracles."""

import dataclasses
import json
import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (exact_weight, icbrt, oracle_absolute_partial,
                      oracle_ordinary_partial, oracle_sp_density)

from fuzzysumm import (FuzzyFunctionSequence, ModeParams, Verdict,
                       VerdictPolicy, WeightSequence, XGridPolicy,
                       absolute_partial, add_families,
                       alternating_crisp_family,
                       classical_scheme, classify, constant_family,
                       constant_weights, crisp, cube_decaying_family, distance,
                       harmonic_crisp_family, harmonicplus_weights, ladder,
                       ordinary_partial, parse_family_spec, parse_scheme_spec,
                       parse_weight_spec, power_scheme, recip5_weights,
                       scale_family, sp_density, square_indicator_family,
                       tauberian_experiment, triangular,
                       triangular_growing_family, uniform_grid, verdict,
                       weighted_total, window_fuzzy_mean, zero)
from fuzzysumm import (dilation_mean_identity, schemes, shrink_mean_identity,
                       summability)
from fuzzysumm.numbers import is_triangular, triangular_profile_distance
from fuzzysumm.sequences import crisp_index_family
from fuzzysumm.summability import (_dense_pieces, _sparse_pieces, _stream,
                                   classify_thetas, deviation_count,
                                   limit_profile_fn, weighted_deviation_sum)


def dense(fam):
    """The family without its exception hook: the sweeps' dense path."""
    return dataclasses.replace(fam, exceptional=None)


def params(theta=1.0, eps=0.1, scheme=None, weights=None):
    return ModeParams(theta=theta, eps=eps,
                      scheme=scheme or classical_scheme(),
                      weights=weights or constant_weights(1))


class TestAbsolutePartial:
    def test_square_indicator_closed_form(self):
        p = params()
        got = absolute_partial(square_indicator_family(1.0), None, p, 100, 1.5)
        assert got == 0.1  # floor(sqrt(100)) / 100

    def test_closed_form_across_thetas(self):
        fam = square_indicator_family(1.0)
        for theta in (0.25, 0.5, 0.75, 1.0):
            p = params(theta=theta)
            for n in (7, 64, 1000, 4096):
                got = absolute_partial(fam, None, p, n, 1.0)
                assert abs(got - math.isqrt(n) / n**theta) <= 1e-12

    def test_constant_family_is_zero(self):
        fam = constant_family(2.5, 1.0, 0.5)
        p = params()
        for n in (1, 10, 333):
            assert absolute_partial(fam, None, p, n, 1.5) == 0.0

    def test_alternating_is_one(self):
        fam = alternating_crisp_family()
        p = params()
        for n in (1, 2, 17, 1024):
            assert absolute_partial(fam, None, p, n, 1.2) == 1.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        fams = [triangular_growing_family(), cube_decaying_family(),
                square_indicator_family(1.5)]
        schemes = [classical_scheme(), power_scheme(2)]
        wts = [constant_weights(1), recip5_weights(), harmonicplus_weights()]
        for _ in range(25):
            fam = fams[rng.integers(len(fams))]
            p = params(theta=float(rng.uniform(0.2, 1.0)),
                       scheme=schemes[rng.integers(2)],
                       weights=wts[rng.integers(3)])
            n = int(rng.integers(1, 12))
            x = float(rng.uniform(*fam.domain))
            got = absolute_partial(fam, None, p, n, x)
            want = oracle_absolute_partial(fam, None, p, n, x)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_explicit_limit_forms_agree(self):
        fam = square_indicator_family(1.0)
        p = params()
        via_none = absolute_partial(fam, None, p, 50, 1.0)
        via_fuzzy = absolute_partial(fam, crisp(1.0), p, 50, 1.0)
        via_real = absolute_partial(fam, 1.0, p, 50, 1.0)
        via_callable = absolute_partial(fam, lambda x: crisp(1.0), p, 50, 1.0)
        assert via_none == via_fuzzy == via_real == via_callable


class TestOrdinaryPartial:
    def test_alternating_even_odd(self):
        fam = alternating_crisp_family()
        p = params()
        assert distance(ordinary_partial(fam, p, 4, 1.0), zero()) == 0.0
        assert distance(ordinary_partial(fam, p, 5, 1.0), crisp(1 / 5)) == 0.0
        assert distance(ordinary_partial(fam, p, 1001, 1.0), crisp(1 / 1001)) == 0.0

    def test_constant_crisp_mean(self):
        fam = constant_family(3.0)
        p = params()
        for n in (1, 9, 100):
            assert distance(ordinary_partial(fam, p, n, 1.5), crisp(3.0)) == 0.0

    def test_constant_triangular_mean(self):
        fam = constant_family(1.0, 0.5, 0.5)
        p = params()
        got = ordinary_partial(fam, p, 64, 1.5)
        assert distance(got, triangular(1.0, 0.5, 0.5)) <= 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(23)
        fams = [triangular_growing_family(), alternating_crisp_family(),
                cube_decaying_family()]
        for _ in range(20):
            fam = fams[rng.integers(len(fams))]
            p = params(theta=float(rng.uniform(0.3, 1.0)),
                       weights=harmonicplus_weights())
            n = int(rng.integers(1, 12))
            x = float(rng.uniform(*fam.domain))
            got = ordinary_partial(fam, p, n, x)
            want = oracle_ordinary_partial(fam, p, n, x)
            assert distance(got, want) <= 1e-9


class TestSpDensity:
    def test_growing_family_density(self):
        # T = n^2/5 = 20 at n = 10; all four squares <= 20 carry kx/5 >= 0.1
        fam = triangular_growing_family()
        p = params(eps=0.1, scheme=power_scheme(2), weights=recip5_weights())
        got = sp_density(fam, None, p, 10, 1.0)
        assert abs(got - 0.2) <= 1e-12

    def test_constant_family_zero_density(self):
        fam = constant_family(1.0, 0.25, 0.25)
        for eps in (1e-6, 0.1, 10.0):
            p = params(eps=eps)
            assert sp_density(fam, None, p, 100, 1.5) == 0.0

    def test_cube_count_is_integer_cuberoot(self):
        fam = cube_decaying_family()
        p = params(eps=1e-9, scheme=power_scheme(2), weights=harmonicplus_weights())
        for n in (1, 2, 5, 16, 64, 128):
            total = weighted_total(p.scheme, p.weights, n)
            count = sp_density(fam, None, p, n, 1.0) * total**p.theta
            assert round(count) == icbrt(math.floor(total))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(29)
        fam = triangular_growing_family()
        for _ in range(15):
            p = params(theta=float(rng.uniform(0.2, 1.0)),
                       eps=float(rng.uniform(0.05, 2.0)),
                       scheme=power_scheme(2), weights=recip5_weights())
            n = int(rng.integers(2, 10))
            x = float(rng.uniform(*fam.domain))
            got = sp_density(fam, None, p, n, x)
            want = oracle_sp_density(fam, None, p, n, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_density_bounded_by_floor_over_power(self):
        fam = triangular_growing_family()
        p = params(theta=0.5, eps=1e-9, scheme=power_scheme(2),
                   weights=recip5_weights())
        for n in (2, 6, 20):
            total = weighted_total(p.scheme, p.weights, n)
            assert 0 <= sp_density(fam, None, p, n, 1.0) \
                <= math.floor(total) / total**p.theta


class TestVerdict:
    def test_constant_zero_converges(self):
        v = verdict([(n, 0.0) for n in ladder(1024)])
        assert v.kind == "converges" and v.estimate == 0.0

    def test_quarter_power_growth_diverges(self):
        # n**(1/4) along the ladder; at 2^20 the default factor-10 rule fires
        trace = [(n, n**0.25) for n in ladder(1 << 20)]
        assert verdict(trace).kind == "diverges"

    def test_harmonic_converges_near_zero(self):
        trace = [(n, 1.0 / n) for n in ladder(4096)]
        v = verdict(trace, VerdictPolicy(tol=1e-2, window=4))
        assert v.kind == "converges"
        assert abs(v.estimate) < 1e-2

    def test_constant_one_converges_to_one(self):
        v = verdict([(n, 1.0) for n in ladder(512)])
        assert v.kind == "converges" and v.estimate == 1.0

    def test_slow_drift_diverges(self):
        # log(n+1) is far from the divergence bar, but its steps along the
        # ladder grow toward log 2: step ratios >= 1
        trace = [(n, math.log(n + 1)) for n in ladder(256)]
        assert verdict(trace).kind == "diverges"

    def test_sign_changing_steps_inconclusive(self):
        # no steady rate, no plateau, not monotone
        trace = list(zip(ladder(16), (0.3, 0.2, 0.5, 0.1, 0.4)))
        assert verdict(trace).kind == "inconclusive"

    @pytest.mark.parametrize("fn, policy, limit", [
        (lambda n: 0.3 + n**-0.5, VerdictPolicy(), 0.3),
        (lambda n: 1 - n**-0.5, VerdictPolicy(), 1.0),
        # the remark3 shape: the plateau test once read its last four values
        # 0.841 .. 0.5 as converged at their mean 0.661
        (lambda n: 4 * n**-0.25, VerdictPolicy(), 0.0),
        (lambda n: 4 * n**-0.25, VerdictPolicy(tol=0.2, limit_tol=0.5), 0.0),
    ])
    def test_steady_ratio_tail_extrapolated(self, fn, policy, limit):
        v = verdict([(n, fn(n)) for n in ladder(4096)], policy)
        assert v.kind == "converges" and abs(v.estimate - limit) <= 1e-9
        if limit == 0.0:
            assert v.estimate >= 0.0

    @pytest.mark.parametrize("fn, tol, want", [
        (lambda n: 4 * n**-0.25, 1e-2, Verdict("inconclusive")),
        (lambda n: 4 * n**-0.25, 0.2,
         Verdict("converges", (4 * 2048**-0.25 + 4 * 4096**-0.25) / 2)),
        (lambda n: 1.0 / n, 1e-2,
         Verdict("converges", (1 / 2048 + 1 / 4096) / 2)),
        (lambda n: math.log(n + 1), 1e-2, Verdict("inconclusive")),
    ])
    def test_window_two_has_no_rate(self, fn, tol, want):
        # a triple does not fit a window of 2: the plateau and factor tests
        trace = [(n, fn(n)) for n in ladder(4096)]
        assert verdict(trace, VerdictPolicy(tol=tol, window=2)) == want

    def test_nonnegative_tail_clipped_at_zero(self):
        # ex3.3's abs trace at order 0.2: the last Aitken limit is -0.00204
        rep = classify(cube_decaying_family(), None, power_scheme(2),
                       harmonicplus_weights(), 0.2, 1e-9, XGridPolicy((1.0,)),
                       256, modes=("abs",))
        trace = rep.trace(1.0, "abs").points
        u, v, w = (val for _, val in trace[-3:])
        q = (w - v) / (v - u)
        assert -0.0021 < w + (w - v) * q / (1 - q) < -0.002
        assert rep.trace(1.0, "abs").verdict == Verdict("converges", 0.0)

    def test_rounding_noise_rising_on_a_plateau_converges(self):
        # the window means of a constant family sit on its value; their
        # distances to it rise 0, 1, 2, 3 times 2**-54, by step ratios 1
        rep = classify(constant_family(0.3, 0.5, 0.25), None,
                       parse_scheme_spec("lambda:half"), recip5_weights(), 1.0,
                       0.1, XGridPolicy((1.5,)), 4096, modes=("ord",))
        tail = [v for _, v in rep.trace(1.5, "ord").points[-4:]]
        assert tail == [k * 2.0**-54 for k in range(4)]
        assert rep.membership["ord"] is True

    @settings(max_examples=500, deadline=None)
    @given(c=st.floats(0, 10), a=st.floats(0, 10, exclude_min=True),
           p=st.floats(0.1, 2), sign=st.sampled_from([1, -1]),
           horizon=st.sampled_from([1 << 20, 100000, 3 << 15]))
    def test_power_law_tails_converge_to_their_limit(self, c, a, p, sign,
                                                     horizon):
        # 8 divides each horizon, so the last four rungs are exact doublings
        assume(sign > 0 or c > a)
        v = verdict([(n, c + sign * a * n**-p) for n in ladder(horizon)])
        assert v.kind == "converges" and abs(v.estimate - c) <= 1e-6

    @pytest.mark.parametrize("ns", [(1,), (1, 2, 4)])
    def test_trace_shorter_than_window_inconclusive(self, ns):
        # equal values agree, but fewer than policy.window of them settle nothing
        assert verdict([(n, 0.5) for n in ns]).kind == "inconclusive"

    @pytest.mark.parametrize("factor, kind", [(10.0, "diverges"),
                                              (100.0, "inconclusive")])
    def test_monotone_tail_past_the_divergence_factor(self, factor, kind):
        # steps 10, 9, 11: no steady rate, no plateau, ratios not all >= 1;
        # only the monotone rise past factor * (first value + 1) calls it
        trace = [(1, 0.0), (2, 10.0), (4, 19.0), (8, 30.0)]
        assert verdict(trace, VerdictPolicy(divergence_factor=factor)).kind == kind

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verdict([])
        with pytest.raises(ValueError):
            verdict([(1, 0.0)], VerdictPolicy(window=0))


class TestLadder:
    @given(horizon=st.integers(1, 1 << 62))
    def test_rungs_halve_the_horizon(self, horizon):
        ns = ladder(horizon)
        assert ns[0] == 1 and ns[-1] == horizon
        assert len(ns) == horizon.bit_length()
        assert all(lo == hi >> 1 for lo, hi in zip(ns, ns[1:]))

    def test_power_of_two_is_the_doubling_ladder(self):
        for k in range(63):
            assert ladder(2**k) == [2**j for j in range(k + 1)]

    def test_numpy_horizon_gives_python_ints(self):
        # an np.int64 top rung once left the report unserializable
        assert all(type(n) is int for n in ladder(np.int64(100)))
        fam, scheme, weights = (alternating_crisp_family(), classical_scheme(),
                                constant_weights(1))
        rep = classify(fam, None, scheme, weights, theta=1.0, eps=0.1,
                       grid=uniform_grid(1, 2, 2), horizon=np.int64(100),
                       modes=("ord",))
        exp = tauberian_experiment(fam, None, scheme, weights,
                                   uniform_grid(1, 2, 2), np.int64(100))
        for d in (rep.to_dict(), exp.to_dict()):
            assert json.loads(json.dumps(d))["horizon"] == 100

    def test_non_integer_horizon_refused(self):
        # 100.5 was once the top rung
        with pytest.raises(TypeError):
            ladder(100.5)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_refused(self, horizon):
        with pytest.raises(ValueError,
                           match=f"^horizon must be at least 1, got {horizon}$"):
            ladder(horizon)


class TestOrderMonotonicity:
    def test_higher_order_never_exceeds_lower(self):
        # for T >= 1, dividing by T**delta <= T**theta flips the bound
        fams = [square_indicator_family(1.0), triangular_growing_family(),
                alternating_crisp_family()]
        for fam in fams:
            for theta, delta in ((0.3, 0.6), (0.5, 1.0)):
                for n in (2, 9, 50, 400):
                    lo = absolute_partial(fam, None, params(theta=delta), n, 1.5)
                    hi = absolute_partial(fam, None, params(theta=theta), n, 1.5)
                    assert lo <= hi


class TestLinearity:
    def test_sum_and_scale_deviations(self):
        from fuzzysumm import add_families, scale_family
        f = triangular_growing_family()
        g = cube_decaying_family()
        p = params(weights=harmonicplus_weights())
        for n in (2, 5, 11):
            s_f = absolute_partial(f, None, p, n, 1.5)
            s_g = absolute_partial(g, None, p, n, 1.5)
            s_sum = absolute_partial(add_families(f, g), None, p, n, 1.5)
            assert s_sum <= s_f + s_g + 1e-12
            s_scaled = absolute_partial(scale_family(-3.0, f), None, p, n, 1.5)
            assert s_scaled == pytest.approx(3.0 * s_f, rel=1e-12)


class TestPerWindowInequalities:
    def test_threshold_count_bounds_window_sum(self):
        # front-anchored windows reaching past T: eps * count <= window sum
        fam = triangular_growing_family()
        scheme, weights = power_scheme(2), recip5_weights()
        for eps in (0.05, 0.3, 1.0):
            p = params(eps=eps, scheme=scheme, weights=weights)
            for n in (2, 6, 14, 30):
                total = weighted_total(scheme, weights, n)
                count = sp_density(fam, None, p, n, 1.0) * total**p.theta
                window_sum = absolute_partial(fam, None, p, n, 1.0) * total**p.theta
                assert eps * count <= window_sum + 1e-9

    def test_bounded_family_window_sum_bound(self):
        # window sum <= M2 * count + (gamma + 1) * eps when the window
        # stays inside [1, T] (weights at least 1 keep T >= gamma)
        fam = square_indicator_family(1.0)
        scheme, weights = classical_scheme(), harmonicplus_weights()
        m2 = 2.0  # sup of t_k * deviation: t_k <= 2, deviation <= 1
        for eps in (0.01, 0.2):
            p = params(eps=eps, scheme=scheme, weights=weights)
            for n in (5, 40, 200):
                total = weighted_total(scheme, weights, n)
                count = sp_density(fam, None, p, n, 1.0) * total**p.theta
                window_sum = absolute_partial(fam, None, p, n, 1.0) * total**p.theta
                gamma = scheme.gamma(n)
                assert window_sum <= m2 * count + (gamma + 1) * eps + 1e-9


class TestMeanDomination:
    def test_ordinary_deviation_below_absolute(self):
        # d(window mean, limit) <= mean deviation, order 1
        fams = [square_indicator_family(1.0), triangular_growing_family(),
                cube_decaying_family(), alternating_crisp_family()]
        rng = np.random.default_rng(31)
        for fam in fams:
            lim = triangular(*fam.limit_profile(1.0))
            for _ in range(10):
                n = int(rng.integers(1, 200))
                x = float(rng.uniform(*fam.domain))
                p = params(weights=harmonicplus_weights())
                lim = triangular(*fam.limit_profile(x))
                d = distance(ordinary_partial(fam, p, n, x), lim)
                s = absolute_partial(fam, None, p, n, x)
                assert d <= s + 1e-12


class TestClassify:
    def test_growing_family_sp_member_abs_not(self):
        fam = triangular_growing_family()
        grid = uniform_grid(1, 2, 5)
        scheme, weights = power_scheme(2), recip5_weights()
        rep_sp = classify(fam, None, scheme, weights, theta=1.0, eps=0.1,
                          grid=grid, horizon=512, modes=("sp",),
                          policy=VerdictPolicy(tol=0.05))
        assert rep_sp.membership["sp"] is True
        rep_abs = classify(fam, None, scheme, weights, theta=0.25, eps=0.1,
                           grid=grid, horizon=512, modes=("abs",))
        assert rep_abs.membership["abs"] is False

    def test_cube_family_abs_member_sp_not(self):
        fam = cube_decaying_family()
        grid = uniform_grid(1, 2, 5)
        scheme, weights = power_scheme(2), harmonicplus_weights()
        rep_abs = classify(fam, None, scheme, weights, theta=1.0, eps=1e-9,
                           grid=grid, horizon=256, modes=("abs",))
        assert rep_abs.membership["abs"] is True
        rep_sp = classify(fam, None, scheme, weights, theta=0.2, eps=1e-9,
                          grid=grid, horizon=256, modes=("sp",),
                          policy=VerdictPolicy(divergence_factor=2.0))
        assert rep_sp.membership["sp"] is False

    def test_alternating_ord_member_abs_not(self):
        fam = alternating_crisp_family()
        grid = uniform_grid(1, 2, 5)
        rep = classify(fam, None, classical_scheme(), constant_weights(1),
                       theta=1.0, eps=0.1, grid=grid, horizon=4096,
                       modes=("ord", "abs"))
        assert rep.membership["ord"] is True
        assert rep.membership["abs"] is False

    def test_report_shape(self):
        fam = alternating_crisp_family()
        grid = uniform_grid(1, 2, 3)
        rep = classify(fam, None, classical_scheme(), constant_weights(1),
                       theta=1.0, eps=0.1, grid=grid, horizon=256,
                       modes=("ord",))
        d = rep.to_dict()
        assert {"family", "scheme", "weights", "verdicts", "traces",
                "membership", "policy"} <= set(d)
        assert len(d["traces"]) == 3
        trace = rep.trace(grid.points[0], "ord")
        assert trace.points[0][0] == 1
        with pytest.raises(KeyError):
            rep.trace(-1.0, "ord")

    def test_rejects_unknown_mode(self):
        fam = alternating_crisp_family()
        with pytest.raises(ValueError, match="mode"):
            classify(fam, None, classical_scheme(), constant_weights(1),
                     theta=1.0, eps=0.1, grid=uniform_grid(1, 2, 2),
                     horizon=128, modes=("nope",))


class TestStreamingKernel:
    """classify's one-pass sweep against the index-by-index oracles.

    A 7-index chunk puts chunk edges inside nearly every window, so
    windows are summed across split pieces.  The oracles walk every index
    through FuzzyNumbers and take the built-in weights' totals exactly.
    The closed-form totals run past horizon 8 on the schemes with the
    smaller windows, both the constant ones and harmonicplus; walked,
    recip5 on pow:2 at horizon 10 summed T_10 = 20 to 19.999999999999993
    and floored it to 19.
    """

    FAMILIES = ["ex3.1", "ex3.2", "ex3.3", "ex4.1", "remark3:n=16", "harmonic"]

    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           scheme=st.sampled_from(["classical", "pow:2", "pow:3", "lambda:half",
                                   "lambda:n", "lacunary:pow2"]),
           weights=st.sampled_from(["const:0.1", "const:1", "const:2.5",
                                    "recip5", "harmonicplus"]),
           theta=st.floats(0.2, 1.0),
           eps=st.floats(0.05, 2.0),
           horizon=st.integers(1, 8),
           xs=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=2, unique=True))
    # floor(T_n) runs past gamma(horizon): the sp stream outlasts every window
    @example(family="ex3.2", scheme="classical", weights="harmonicplus",
             theta=0.5, eps=0.1, horizon=8, xs=[1.5])
    # floor(T_1) = 0: an empty sp range
    @example(family="ex4.1", scheme="classical", weights="const:0.1",
             theta=1.0, eps=0.05, horizon=1, xs=[1.0])
    def test_classify_matches_oracles(self, family, scheme, weights, theta, eps,
                                      horizon, xs):
        self.check(family, scheme, weights, theta, eps, horizon, xs)

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           scheme=st.sampled_from(["classical", "pow:2", "lambda:half"]),
           weights=st.sampled_from(["const:0.1", "const:0.7", "const:2.5",
                                    "recip5"]),
           theta=st.floats(0.2, 1.0),
           eps=st.floats(0.05, 2.0),
           horizon=st.integers(9, 24),
           xs=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=2, unique=True))
    # T_10 = 20: walked, floor(T) missed k = 20, where ex4.1 deviates
    @example(family="ex4.1", scheme="pow:2", weights="recip5",
             theta=1.0, eps=0.1, horizon=10, xs=[1.0])
    def test_constant_weights_past_horizon_8(self, family, scheme, weights,
                                             theta, eps, horizon, xs):
        self.check(family, scheme, weights, theta, eps, horizon, xs)

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           scheme=st.sampled_from(["classical", "pow:2", "lambda:half"]),
           theta=st.floats(0.2, 1.0),
           eps=st.floats(0.05, 2.0),
           horizon=st.integers(9, 24),
           xs=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=2, unique=True))
    # windows [1, n^2] past the 64 indices summed term by term
    @example(family="ex4.1", scheme="pow:2", theta=1.0, eps=0.1, horizon=24,
             xs=[1.0])
    def test_harmonicplus_past_horizon_8(self, family, scheme, theta, eps,
                                         horizon, xs):
        self.check(family, scheme, "harmonicplus", theta, eps, horizon, xs)

    @staticmethod
    def check(family, scheme, weights, theta, eps, horizon, xs):
        fam = parse_family_spec(family)
        p = ModeParams(theta=theta, eps=eps, scheme=parse_scheme_spec(scheme),
                       weights=parse_weight_spec(weights))
        weight = exact_weight(weights)
        reps = []
        for f in (fam, dense(fam)):
            with mock.patch.object(schemes, "_CHUNK", 7):
                reps.append(classify(f, None, p.scheme, p.weights, theta=theta,
                                     eps=eps, grid=XGridPolicy(tuple(sorted(xs))),
                                     horizon=horizon))
        for t, t_dense in zip(*(rep.traces for rep in reps)):
            lim = triangular(*fam.limit_profile(t.x))
            for (n, got), (_, got_dense) in zip(t.points, t_dense.points):
                if t.mode == "sp":
                    want = oracle_sp_density(fam, None, p, n, t.x, weight)
                    rel = 1e-12
                elif t.mode == "abs":
                    want = oracle_absolute_partial(fam, None, p, n, t.x, weight)
                    rel = 1e-9
                else:
                    want = distance(oracle_ordinary_partial(fam, p, n, t.x, weight),
                                    lim)
                    rel = 1e-9
                for value in (got, got_dense):
                    assert value == pytest.approx(want, rel=rel, abs=1e-12)


class TestOneSweep:
    """``classify_thetas`` streams once, whatever modes and orders it is
    asked for, and each order's report is that order's own ``classify``
    run with the same modes.  Runs with different mode subsets are not
    compared: their streams cut at different windows, so ord's sums may
    round differently."""

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(TestStreamingKernel.FAMILIES),
           scheme=st.sampled_from(["classical", "pow:2", "pow:3", "lambda:half",
                                   "lambda:n"]),
           weights=st.sampled_from(["const:0.7", "const:2.5", "recip5",
                                    "harmonicplus"]),
           modes=st.lists(st.sampled_from(summability.MODES), min_size=1,
                          max_size=3, unique=True),
           thetas=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3),
           eps=st.floats(0.05, 2.0),
           horizon=st.integers(1, 40))
    def test_one_stream_and_each_order_its_own_run(self, family, scheme, weights,
                                                   modes, thetas, eps, horizon):
        fam, grid = parse_family_spec(family), uniform_grid(1, 2, 3)
        args = (parse_scheme_spec(scheme), parse_weight_spec(weights))
        with mock.patch.object(summability, "_stream",
                               wraps=summability._stream) as stream:
            reports = classify_thetas(fam, None, *args, thetas, eps, grid,
                                      horizon, modes)
        assert stream.call_count == 1
        assert len(reports) == len(thetas)
        for theta, rep in zip(thetas, reports):
            one = classify(fam, None, *args, theta, eps, grid, horizon, modes)
            assert json.dumps(rep.to_dict()) == json.dumps(one.to_dict())


X_FREE_FAMILIES = {
    "ex3.1": lambda: parse_family_spec("ex3.1"),
    "ex3.1-dense": lambda: dense(parse_family_spec("ex3.1")),
    "ex4.1": lambda: parse_family_spec("ex4.1"),
    "remark3": lambda: parse_family_spec("remark3:n=16"),
    "harmonic": lambda: parse_family_spec("harmonic"),
    "constant": lambda: constant_family(0.5, 0.25, 0.125),
    "sum": lambda: add_families(alternating_crisp_family(),
                                constant_family(0.0, 0.25, 0.5)),
    "scaled": lambda: scale_family(-2.0, parse_family_spec("harmonic")),
}


class TestXFreeSharing:
    """An x-free family streams once per distinct limit; the points that
    share a limit share its rows."""

    @pytest.mark.parametrize("family", X_FREE_FAMILIES)
    @pytest.mark.parametrize("weights", ["recip5", "harmonicplus"])
    def test_points_match_one_point_runs(self, family, weights):
        fam = X_FREE_FAMILIES[family]()
        assert fam.x_free
        grid = uniform_grid(1.1, 1.9, 5)

        def run(grid):
            return classify_thetas(fam, None, power_scheme(2),
                                   parse_weight_spec(weights), (0.5, 1.0), 0.1,
                                   grid, 64)

        shared = run(grid)
        for x in grid.points:
            for rep, rep_one in zip(shared, run(XGridPolicy((x,)))):
                got = [t.to_dict() for t in rep.traces if t.x == x]
                want = [t.to_dict() for t in rep_one.traces]
                assert len(got) == 3
                assert json.dumps(got) == json.dumps(want)

    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from(["ex3.1", "ex4.1", "remark3:n=16", "harmonic"]),
           scheme=st.sampled_from(["classical", "pow:2", "lambda:half"]),
           weights=st.sampled_from(["const:0.7", "recip5", "harmonicplus"]),
           theta=st.floats(0.2, 1.0),
           eps=st.floats(0.05, 2.0),
           horizon=st.integers(1, 8))
    def test_x_dependent_limit_matches_oracles(self, family, scheme, weights,
                                               theta, eps, horizon):
        # the limit varies with x up to 1.5 and is constant from there, so
        # the points 1.5, 1.75 and 2 share their rows and the others do not
        fam = parse_family_spec(family)

        def limit(x):
            m = min(x, 1.5)
            return (m - 1.0, 0.25 * m, 0.5)

        p = ModeParams(theta=theta, eps=eps, scheme=parse_scheme_spec(scheme),
                       weights=parse_weight_spec(weights))
        weight = exact_weight(weights)
        with mock.patch.object(schemes, "_CHUNK", 7):
            rep = classify(fam, limit, p.scheme, p.weights, theta=theta, eps=eps,
                           grid=uniform_grid(1, 2, 5), horizon=horizon)
        for t in rep.traces:
            for n, got in t.points:
                if t.mode == "sp":
                    want = oracle_sp_density(fam, limit, p, n, t.x, weight)
                    rel = 1e-12
                elif t.mode == "abs":
                    want = oracle_absolute_partial(fam, limit, p, n, t.x, weight)
                    rel = 1e-9
                else:
                    want = distance(oracle_ordinary_partial(fam, p, n, t.x, weight),
                                    triangular(*limit(t.x)))
                    rel = 1e-9
                assert got == pytest.approx(want, rel=rel, abs=1e-12), (t.mode, n)


# Families whose profile passes one array for both spreads, all zero in
# every chunk (ex3.2 and ex3.3 only in chunks without a square or cube).
ONE_SPREAD_FAMILIES = {
    **{spec: lambda spec=spec: parse_family_spec(spec)
       for spec in ["ex3.1", "ex3.1:M=2.5", "ex3.2", "ex3.3", "ex4.1",
                    "remark3:n=16", "harmonic"]},
    "constant": lambda: constant_family(-0.75),
    "constant-spread": lambda: constant_family(0.5, 0.25, 0.25),
}


def general_kernel(fam):
    """The family on the dense path with fresh spread arrays, so no chunk
    takes the zero-spread kernel."""

    def profile(ks, x):
        c, l, r = fam.profile(ks, x)
        return c, l.copy(), r.copy()

    return dataclasses.replace(fam, profile=profile, exceptional=None)


def fresh_zeros(fam):
    """The family with one fresh writable np.zeros for both spreads, which
    the dense walk can know to be zero only by reading it."""

    def profile(ks, x):
        c, _, _ = fam.profile(ks, x)
        z = np.zeros(len(ks))
        return c, z, z

    return dataclasses.replace(fam, profile=profile)


CRISP_FAMILIES = [parse_family_spec(spec) for spec in
                  ("ex3.1", "ex3.1:M=2.5", "ex4.1", "remark3:n=16", "harmonic")
                  ] + [crisp_index_family()]


class TestZeroSpreadKernel:
    """The zero-spread chunk kernel gives the general kernel's bits."""

    @pytest.mark.parametrize("fam", CRISP_FAMILIES, ids=lambda f: f.label)
    def test_shared_zeros_give_the_pieces_of_fresh_ones(self, fam):
        # chunks of 8192 indices, cut inside and at a chunk end, at crisp
        # limits (the lean kernel) and one with spreads (the general one)
        cuts = schemes.unique_ints([0, 7, 100, 8192, 8200, 20000])
        lims = [(0.0, 0.0, 0.0), (-0.75, 0.0, 0.0), (0.25, 0.5, 1.0)]
        got, want = [_dense_pieces(f, harmonicplus_weights(), lims,
                                   [1.0, 1.5, 2.0], cuts, 0.1)
                     for f in (fam, fresh_zeros(fam))]
        for a, b in zip(got, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("family", ONE_SPREAD_FAMILIES)
    @pytest.mark.parametrize("limit", [None, -0.75, 0.5, (0.0, 0.0, 0.25),
                                       (0.25, 0.5, 1.0)])
    @pytest.mark.parametrize("scheme, weights", [("pow:2", "harmonicplus"),
                                                 ("lambda:half", "const:0.7")])
    def test_reports_match_general_kernel(self, family, limit, scheme, weights):
        fam = dense(ONE_SPREAD_FAMILIES[family]())
        with mock.patch.object(schemes, "_CHUNK", 61):
            got, want = [json.dumps([rep.to_dict() for rep in classify_thetas(
                f, limit, parse_scheme_spec(scheme), parse_weight_spec(weights),
                (0.5, 1.0), 0.05, uniform_grid(1, 2, 3), 32)])
                for f in (fam, general_kernel(fam))]
        assert got == want

    @pytest.mark.parametrize("limit, lean", [(0.0, True), (0.5, True),
                                             ((0.0, 0.0, 0.25), False)])
    def test_kernel_taken_only_without_spreads(self, limit, lean):
        fam = dense(parse_family_spec("ex4.1"))
        lim = limit_profile_fn(fam, limit)(1.0)
        for f, skips in ((fam, lean), (general_kernel(fam), False)):
            with mock.patch.object(summability, "triangular_profile_distance",
                                   wraps=summability.triangular_profile_distance
                                   ) as kernel:
                _stream(f, constant_weights(1), [lim], [1.0], [(1, 500)], 0.1)
            assert kernel.called is not skips


SPARSE_FAMILIES = ["ex3.1", "ex3.1:M=2.5", "ex3.2", "ex3.3", "remark3:n=16"]
# An explicit limit off the claimed one (0.5, the triple) puts every index
# at a deviation d0 > 0 from it: the sparse path serves it only at eps = inf.
LIMITS = [None, 0.5, (0.25, 0.5, 1.0)]
# Weights with no closed form: their piece sums come from the walk.
WALKED = WeightSequence(lambda ks: 0.5 + 1.0 / ks, "walked")


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestSparsePath:
    """Families with an exception hook against the same family without it.

    A 61-index chunk puts several chunk edges inside the longer windows.
    """

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(SPARSE_FAMILIES),
           weights=st.sampled_from([*map(parse_weight_spec, [
               "const:0.1", "const:2.5", "recip5", "harmonicplus"]), WALKED]),
           limit=st.sampled_from(LIMITS),
           cuts=st.lists(st.integers(0, 3000), min_size=1, max_size=6),
           eps=st.sampled_from([0.05, 0.5, 2.0, math.inf]),
           xs=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=3, unique=True))
    def test_piece_sums_match_dense(self, family, weights, limit, cuts, eps, xs):
        fam, w = parse_family_spec(family), weights
        limits = [limit_profile_fn(fam, limit)(x) for x in xs]
        bases = [fam.limit_profile(x) for x in xs]
        d0s = [float(triangular_profile_distance(*b, *lim))
               for b, lim in zip(bases, limits)]
        assume(eps == math.inf or not any(d0s))  # where _stream takes it
        cuts = schemes.unique_ints(cuts)
        with mock.patch.object(schemes, "_CHUNK", 61):
            ends, got = _sparse_pieces(fam, w, limits, xs, cuts, eps, bases, d0s)
            dense_ends, dense_pieces = _dense_pieces(fam, w, limits, xs, cuts, eps)
        # the sparse pieces end at the cuts, each at a dense piece's end: the
        # dense pieces summed up to each sparse end are the sparse pieces
        edges = np.searchsorted(dense_ends, np.append(cuts[0], ends), "right")
        assert np.array_equal(dense_ends[edges[1:] - 1], ends)
        want = np.array([[[math.fsum(col[a:b]) for a, b in zip(edges, edges[1:])]
                          for col in per_x.T.tolist()] for per_x in dense_pieces])
        want = want.reshape(len(xs), 5, len(ends)).transpose(0, 2, 1)
        assert np.array_equal(got[..., 4], want[..., 4])
        sums = want[..., :4]
        assert np.all(np.abs(got[..., :4] - sums)
                      <= 1e-12 * np.maximum(1.0, np.abs(sums)))

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(SPARSE_FAMILIES),
           weights=st.sampled_from(["const:0.1", "recip5", "harmonicplus"]),
           limit=st.sampled_from(LIMITS),
           windows=st.lists(st.tuples(st.integers(1, 40000),
                                      st.integers(0, 40000)),
                            min_size=1, max_size=5),
           eps=st.sampled_from([0.05, 0.5, 2.0, math.inf]),
           xs=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=3, unique=True))
    def test_closed_form_stream_reads_no_chunk(self, family, weights, limit,
                                               windows, eps, xs):
        # nothing is walked, so the chunk size moves no bit, and the
        # pieces end only at the cuts
        fam, w = parse_family_spec(family), parse_weight_spec(weights)
        limits = [limit_profile_fn(fam, limit)(x) for x in xs]
        assume(eps == math.inf or not any(
            triangular_profile_distance(*fam.limit_profile(x), *lim)
            for x, lim in zip(xs, limits)))  # where _stream takes the sparse path
        runs = []
        for chunk in (7, 61, 1 << 13):
            with mock.patch.object(schemes, "_CHUNK", chunk):
                runs.append(_stream(fam, w, limits, xs, windows, eps))
        (sums, hits), *rest = runs
        for other_sums, other_hits in rest:
            assert other_sums.tobytes() == sums.tobytes()
            assert np.array_equal(other_hits, hits)
        cuts = schemes.unique_ints([k for lo, hi in windows if lo <= hi
                                    for k in (lo - 1, hi)] or [0])
        assert w.piece_sums(cuts)[0].tolist() == cuts[1:].tolist()

    @pytest.mark.parametrize("family", ["ex3.2", "ex3.3"])
    @pytest.mark.parametrize("weights", ["const:0.7", "recip5"])
    def test_exception_sums_are_accurate(self, family, weights):
        # [1, 2^24] holds 4,096 squares and 256 cubes: each piece sums to
        # within 4 * 2^-53 of its terms' magnitudes of the exact sum of
        # those terms, b*W_j and the t*(v - b) of its exceptions; a running
        # sum (np.bincount's) misses that bound on the cubes
        fam, w = parse_family_spec(family), parse_weight_spec(weights)
        xs = uniform_grid(1, 2, 5).points
        bases = [fam.limit_profile(x) for x in xs]
        cuts = np.array([0, 1 << 24], dtype=np.int64)
        ends, sums = _sparse_pieces(fam, w, bases, xs, cuts, math.inf, bases,
                                    [0.0] * len(xs))
        _, wj = w.piece_sums(cuts)
        ks = fam.exceptional(1, int(cuts[-1]))
        t = w.values(ks)
        splits = np.searchsorted(np.searchsorted(ends, ks), np.arange(1, len(ends)))
        for i, x in enumerate(xs):
            c, l, r = fam.values(ks, x)
            dev = triangular_profile_distance(c, l, r, *bases[i])
            for col, (v, b) in enumerate(zip((dev, c, l, r), (0.0, *bases[i]))):
                pieces = np.split(t * (v - b), splits)
                for j, (got, terms) in enumerate(zip(sums[i, :, col].tolist(), pieces)):
                    mine = [Fraction(m) for m in (b * wj[j], *terms.tolist())]
                    bound = 4 * Fraction(2) ** -53 * sum(map(abs, mine))
                    assert abs(Fraction(got) - sum(mine)) <= bound, (i, col, j)

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(SPARSE_FAMILIES),
           scheme=st.sampled_from(["classical", "pow:2", "lambda:half",
                                   "lambda:n"]),
           weights=st.sampled_from([*map(parse_weight_spec, [
               "const:0.1", "const:2.5", "recip5", "harmonicplus"]), WALKED]),
           limit=st.sampled_from(LIMITS),
           eps=st.floats(0.05, 2.0),
           horizon=st.integers(1, 64),
           xs=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=2, unique=True))
    def test_classify_matches_dense(self, family, scheme, weights, limit, eps,
                                    horizon, xs):
        fam = parse_family_spec(family)
        scheme, w = parse_scheme_spec(scheme), weights
        grid = XGridPolicy(tuple(sorted(xs)))
        with mock.patch.object(schemes, "_CHUNK", 61):
            got, want = [classify_thetas(f, limit, scheme, w, (0.5, 1.0), eps,
                                         grid, horizon) for f in (fam, dense(fam))]
        for rep, rep_dense in zip(got, want):
            for t, t_dense in zip(rep.traces, rep_dense.traces):
                for (n, v), (n_dense, v_dense) in zip(t.points, t_dense.points):
                    assert n == n_dense and close(v, v_dense), (t.mode, n)

    @pytest.mark.parametrize("limit, eps, seen", [
        (None, 0.5, 31),  # the squares of [1, 1000]
        (0.5, math.inf, 31),  # d0 > 0, but no hits are counted
        (0.5, 0.5, 1000),  # d0 > 0: a hit may lie anywhere, so dense
    ])
    def test_sparse_path_only_when_hits_stay_on_exceptions(self, limit, eps,
                                                           seen):
        fam = parse_family_spec("ex3.1")
        evaluated = []

        def profile(ks, x):
            evaluated.append(len(ks))
            return fam.profile(ks, x)

        counted = dataclasses.replace(fam, profile=profile)
        lim = limit_profile_fn(fam, limit)(1.5)
        _stream(counted, constant_weights(1), [lim], [1.5], [(1, 1000)], eps)
        assert sum(evaluated) == seen

    @pytest.mark.parametrize("family", ["ex3.1", "ex3.2"])
    def test_identities_match_dense(self, family):
        fam = parse_family_spec(family)
        scheme, w = power_scheme(2), recip5_weights()
        with mock.patch.object(schemes, "_CHUNK", 61):
            for n in (4, 9, 33, 64):
                for identity, lam in ((dilation_mean_identity, 1.25),
                                      (dilation_mean_identity, 2.0),
                                      (shrink_mean_identity, 0.8),
                                      (shrink_mean_identity, 0.5)):
                    got, want = [identity(f, scheme, w, lam, n, 1.5)
                                 for f in (fam, dense(fam))]
                    assert close(got, want), (identity.__name__, lam, n)


class TestStreamWindows:
    """``_stream`` sums any windows it is asked for, each against an
    index-by-index ``math.fsum`` over the window.

    A 61-index chunk puts several chunk edges inside the longer windows.
    """

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(SPARSE_FAMILIES + ["ex4.1", "harmonic"]),
           drop_hook=st.booleans(),
           weights=st.sampled_from(["const:0.1", "const:2.5", "recip5",
                                    "harmonicplus"]),
           limit=st.sampled_from(LIMITS),
           windows=st.lists(st.tuples(st.integers(1, 3000),
                                      st.integers(0, 3000)), max_size=8),
           eps=st.sampled_from([0.05, 0.5, 2.0, math.inf]),
           xs=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=3))
    @example(family="ex3.2", drop_hook=False, weights="harmonicplus",
             limit=None, windows=[(5, 900), (1, 3000), (5, 900), (2000, 10),
                                  (40, 41), (300, 2500), (7, 7), (1, 0)],
             eps=0.05, xs=[1.0, 1.5]).via("overlapping, nested, repeated, "
                                          "empty and unsorted windows")
    def test_windows_match_index_sums(self, family, drop_hook, weights, limit,
                                      windows, eps, xs):
        fam, w = parse_family_spec(family), parse_weight_spec(weights)
        if drop_hook:
            fam = dense(fam)
        limits = [limit_profile_fn(fam, limit)(x) for x in xs]
        with mock.patch.object(schemes, "_CHUNK", 61):
            sums, hits = _stream(fam, w, limits, xs, windows, eps)
        assert sums.shape == (len(xs), len(windows), 4)
        assert hits.shape == (len(xs), len(windows))
        ks = np.arange(1, 3001)
        t = w.values(ks)
        for i, (x, lim) in enumerate(zip(xs, limits)):
            c, l, r = fam.values(ks, x)
            td = t * triangular_profile_distance(c, l, r, *lim)
            for j, (lo, hi) in enumerate(windows):
                want = [math.fsum(v[lo - 1:hi]) for v in (td, t * c, t * l, t * r)]
                assert all(close(g, v) for g, v in zip(sums[i, j], want)), (lo, hi)
                assert hits[i, j] == np.count_nonzero(td[lo - 1:hi] >= eps)
            if fam.x_free:
                assert np.array_equal(sums[i], sums[0])
                assert np.array_equal(hits[i], hits[0])


class TestOneWeightWalk:
    """Closed-form harmonicplus totals leave the dense sweep's chunk loop
    as the only walk over the weights, and the sparse sweep none: only the
    exceptions' own weights are evaluated."""

    @staticmethod
    def top_cut(scheme, horizon):
        # the sweep's last checkpoint: gamma(n) or floor(T_n), whichever is larger
        windows = [scheme.window(n) for n in ladder(horizon)]
        totals = harmonicplus_weights().window_totals(*zip(*windows))
        return max(max(g for _, g in windows), max(map(math.floor, totals)))

    @staticmethod
    def count_indices(monkeypatch):
        seen = []
        values = WeightSequence.values

        def counted(self, ks):
            seen.append(np.size(ks))
            return values(self, ks)

        monkeypatch.setattr(WeightSequence, "values", counted)
        return seen

    @pytest.mark.parametrize("family, scheme, horizon, walked", [
        ("ex4.1", "lambda:half", 4096, lambda top: top),
        ("ex3.3", "pow:2", 256, icbrt),  # the cubes up to floor(T_256)
    ])
    def test_weights_evaluated(self, monkeypatch, family, scheme, horizon,
                               walked):
        scheme = parse_scheme_spec(scheme)
        top = self.top_cut(scheme, horizon)
        seen = self.count_indices(monkeypatch)
        w = harmonicplus_weights()
        assert seen == [1]  # the constructor's probe of t_1
        classify_thetas(parse_family_spec(family), None, scheme, w, (0.5, 1.0),
                        0.1, uniform_grid(1, 2, 3), horizon)
        assert sum(seen) == 1 + walked(top)


BAD_K = 25  # in (21, 28], the fourth chunk of 7 indices


def spoiled(bad, spread=0.0, at_x=None):
    """1/k with both spreads ``spread`` (one array), claimed to converge to
    crisp 0, except that f_k is the (center, spread) pair ``bad[k]``: at
    every x, or at ``at_x`` only, when given."""

    def profile(ks, x):
        c, s = 1.0 / ks, np.full(len(ks), spread)
        if at_x is None or x == at_x:
            for k, (center, k_spread) in bad.items():
                c[ks == k], s[ks == k] = center, k_spread
        return c, s, s

    return FuzzyFunctionSequence("spoiled", profile, lambda x: (0.0, 0.0, 0.0),
                                 x_free=at_x is None)


class TestProfileChecksOnSums:
    """A dense walk refuses a bad profile value past its third chunk with
    ``FuzzyFunctionSequence.values``'s error naming k and x, on either
    kernel: zero spreads against c0 = 0 and c0 = 0.5, and spreads 0.25."""

    MODES = {
        "sp": lambda f, lim, p: sp_density(f, lim, p, 40, 1.5),
        "abs": lambda f, lim, p: absolute_partial(f, lim, p, 40, 1.5),
        "ord": lambda f, lim, p: ordinary_partial(f, p, 40, 1.5),
    }
    CASES = pytest.mark.parametrize("mode", MODES)
    KERNELS = pytest.mark.parametrize("spread, limit", [(0.0, 0.0), (0.0, 0.5),
                                                        (0.25, 0.0)])

    def refused(self, fam, mode, limit, match, weights=None):
        with mock.patch.object(schemes, "_CHUNK", 7):
            with pytest.raises(ValueError, match=match):
                self.MODES[mode](fam, limit, params(weights=weights))

    @CASES
    @KERNELS
    def test_nan_center_named(self, mode, spread, limit):
        fam = spoiled({BAD_K: (math.nan, spread)}, spread)
        self.refused(fam, mode, limit,
                     r"^spoiled: f_25\(1\.5\) has a non-finite center")

    @CASES
    @KERNELS
    def test_opposite_infinities_in_one_piece_named(self, mode, spread, limit):
        # t*c sums to inf - inf = NaN over the piece (21, 28]
        fam = spoiled({24: (math.inf, spread), BAD_K: (-math.inf, spread)},
                      spread)
        self.refused(fam, mode, limit, r"^spoiled: f_24\(1\.5\) has")

    @CASES
    @KERNELS
    def test_nan_spread_in_a_later_chunk_named(self, mode, spread, limit):
        # NaN is truthy: one NaN spread makes no chunk of zero spreads
        fam = spoiled({BAD_K: (1.0 / BAD_K, math.nan)}, spread)
        self.refused(fam, mode, limit,
                     r"^spoiled: f_25\(1\.5\) has a non-finite center or spread")

    @CASES
    @KERNELS
    def test_negative_spread_in_a_later_chunk_refused(self, mode, spread, limit):
        fam = spoiled({BAD_K: (1.0 / BAD_K, -0.5)}, spread)
        self.refused(fam, mode, limit,
                     r"^spoiled: f_25\(1\.5\) .* or a negative spread$")

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (1.0, -0.5),
                                     (math.inf, 0.0)])
    @pytest.mark.parametrize("spread", [0.0, 0.25])
    def test_x_dependent_family_names_the_bad_point(self, bad, spread):
        fam = spoiled({BAD_K: bad}, spread, at_x=1.5)
        with mock.patch.object(schemes, "_CHUNK", 7):
            with pytest.raises(ValueError, match=r"^spoiled: f_25\(1\.5\) has"):
                classify_thetas(fam, None, classical_scheme(),
                                constant_weights(1), (0.5, 1.0), 0.1,
                                uniform_grid(1, 2, 5), 40)

    @CASES
    @KERNELS
    def test_finite_center_overflowing_its_product_is_a_sum_error(
            self, mode, spread, limit):
        # t*c = 10 * 1e308 is inf; numpy's overflow warning is not the error
        fam = spoiled({BAD_K: (1e308, spread)}, spread)
        with np.errstate(over="ignore"):
            self.refused(fam, mode, limit, r"^spoiled: a window sum over "
                         "const:10 weights overflows a float$",
                         constant_weights(10))


class TestZeroLimitShortcut:
    """At a crisp zero limit a zero-spread chunk's t*dev is |t*c|: the bits
    of t*|c - 0|, as t > 0."""

    @settings(max_examples=100, deadline=None)
    @given(centers=st.lists(st.one_of(
               st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.0 ** -1022,
                                -(2.0 ** -1040), 1e308, -1e308]),
               st.floats(allow_nan=False, allow_infinity=False)),
               min_size=1, max_size=40),
           weights=st.sampled_from(["const:0.1", "const:3", "const:1e10",
                                    "recip5", "harmonicplus"]),
           cuts=st.lists(st.integers(0, 200), min_size=1, max_size=6))
    @example(centers=[-0.0, 5e-324, 1e308, -1e308, -5e-324, 1e308, -1e308],
             weights="harmonicplus", cuts=[0, 5, 31, 90])
    def test_piece_sums_have_the_bits_of_the_product(self, centers, weights,
                                                    cuts):
        table = np.array(centers)

        def profile(ks, x):
            z = np.zeros(len(ks))
            return table[(ks - 1) % len(table)], z, z

        fam = FuzzyFunctionSequence("table", profile, x_free=True)
        w, cuts = parse_weight_spec(weights), schemes.unique_ints(cuts)
        # 1e308 * 1e10 overflows, and +inf and -inf may share a piece
        with mock.patch.object(schemes, "_CHUNK", 7), \
                np.errstate(over="ignore", invalid="ignore"):
            _, got = _dense_pieces(fam, w, [(0.0, 0.0, 0.0)], [1.0], cuts, 0.1)
            want = [np.zeros(0)] + [
                np.add.reduceat(t * np.abs(profile(ks, 1.0)[0] - 0.0), starts)
                for ks, t, starts, _ in w.chunks(cuts)]
        assert np.array_equal(got[0, :, 0], np.concatenate(want))
        assert got[0, :, 0].tobytes() == np.concatenate(want).tobytes()


class TestTracedCounts:
    """A dense walk over N indices in m chunks with p keys evaluates the
    weights m times over N indices and the profile m*p times over N*p, and
    the distance kernel m*p times over N*p elements, or never when every
    spread is zero: the counts a per-layer tracer reads."""

    N, CHUNK = 1000, 61  # m = 17 chunks

    @pytest.mark.parametrize("family, limits, kernel_runs", [
        # x-free, three distinct limits: three keys
        (alternating_crisp_family(), [0.0, 0.5, -1.0], False),
        # read as x-dependent: one key per point
        (dataclasses.replace(constant_family(0.5, 0.25, 0.25), x_free=False),
         [None] * 3, True),
    ])
    def test_counts(self, monkeypatch, family, limits, kernel_runs):
        w = harmonicplus_weights()
        weights_seen, profile_seen, kernel_seen = [], [], []
        values = WeightSequence.values
        monkeypatch.setattr(WeightSequence, "values", lambda self, ks: (
            weights_seen.append(len(ks)) or values(self, ks)))
        kernel = summability.triangular_profile_distance
        monkeypatch.setattr(summability, "triangular_profile_distance",
                            lambda *a: kernel_seen.append(len(a[0])) or kernel(*a))
        monkeypatch.setattr(schemes, "_CHUNK", self.CHUNK)
        fam = dataclasses.replace(family, profile=lambda ks, x: (
            profile_seen.append(len(ks)) or family.profile(ks, x)))
        xs = [1.0, 1.5, 2.0]
        lims = [limit_profile_fn(fam, lim)(x) for lim, x in zip(limits, xs)]
        _stream(fam, w, lims, xs, [(1, self.N), (200, 700), (13, 13)], 0.1)
        m, p = math.ceil(self.N / self.CHUNK), 3
        assert (len(weights_seen), sum(weights_seen)) == (m, self.N)
        assert (len(profile_seen), sum(profile_seen)) == (m * p, self.N * p)
        assert (len(kernel_seen), sum(kernel_seen)) == (
            (m * p, self.N * p) if kernel_runs else (0, 0))


def test_sp_counts_up_to_an_integer_total():
    # recip5 on classical at n = 45 sums 45 weights 0.2, so floor(T) = 9;
    # a walked float total came to 8.999999999999996
    fam = alternating_crisp_family()
    p = params(eps=0.1, scheme=classical_scheme(), weights=recip5_weights())
    assert sp_density(fam, None, p, 45, 1.0) == \
        pytest.approx(oracle_sp_density(fam, None, p, 45, 1.0), rel=1e-12)


def test_mode_params_validation():
    with pytest.raises(ValueError):
        params(theta=0.0)
    with pytest.raises(ValueError):
        params(theta=1.5)
    with pytest.raises(ValueError):
        params(eps=0.0)


@pytest.mark.parametrize("fam", [
    crisp_index_family(),
    add_families(harmonic_crisp_family(), crisp_index_family()),
    dataclasses.replace(harmonic_crisp_family(), limit_profile=None)],
    ids=["crisp_index", "sum", "replaced"])
def test_no_limit_given_and_none_claimed(fam):
    with pytest.raises(ValueError, match=re.escape(
            f"{fam.label}: no limit given and none claimed")):
        limit_profile_fn(fam)


class TestLimitRule:
    """A limit that is no triangular value, explicit, returned by a
    callable or claimed, is a ValueError naming the family and the limit,
    with no numpy warning first."""

    BAD = [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0), (-math.inf, 0.0, 0.0),
           (0.0, -1.0, 0.0), (0.0, 0.0, math.inf), (0.0, math.nan, 0.25)]
    NAMED = (r"^harmonic_crisp: the (claimed )?limit \(.*\) at x=1\.5 has "
             r"a non-finite center or spread, or a negative spread$")

    @staticmethod
    def forms(bad):
        fam = harmonic_crisp_family()
        yield fam, bad
        yield fam, lambda x: bad
        yield fam, lambda x: list(bad)
        if not (bad[1] or bad[2]):
            yield fam, bad[0]
        yield dataclasses.replace(fam, limit_profile=lambda x: bad), None

    @pytest.mark.parametrize("bad", BAD)
    def test_refused_by_name_on_every_path(self, bad):
        grid = XGridPolicy((1.5, 2.0))
        for fam, limit in self.forms(bad):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for mode in ("sp", "abs"):
                    with pytest.raises(ValueError, match=self.NAMED):
                        TestProfileChecksOnSums.MODES[mode](fam, limit, params())
                for mode in ("sp", "abs", "ord"):
                    with pytest.raises(ValueError, match=self.NAMED):
                        classify(fam, limit, classical_scheme(),
                                 constant_weights(1), 1.0, 0.1, grid, 64,
                                 modes=(mode,))
                with pytest.raises(ValueError, match=self.NAMED):
                    tauberian_experiment(fam, limit, classical_scheme(),
                                         constant_weights(1), grid, 64)

    def test_negative_spread_limit_gives_no_number(self):
        # this once returned 0.918
        p = ModeParams(1.0, 0.1, classical_scheme(), constant_weights(1))
        with pytest.raises(ValueError, match=re.escape(
                "harmonic_crisp: the limit (0.0, -1.0, 0.0) at x=1.5 has a "
                "non-finite")):
            absolute_partial(harmonic_crisp_family(), (0.0, -1.0, 0.0), p,
                             40, 1.5)

    def test_limit_refused_before_any_stream(self):
        fam = dataclasses.replace(harmonic_crisp_family(), profile=None)
        late = AssertionError("the stream started before refusing")
        with mock.patch.object(summability, "_stream", side_effect=late), \
                pytest.raises(ValueError, match="the limit"):
            classify(fam, (0.0, 0.0, -0.5), classical_scheme(),
                     constant_weights(1), 1.0, 0.1, XGridPolicy((1.5,)), 64)

    @pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan])
    def test_claimed_limit_named_on_the_sparse_path(self, m):
        # an explicit finite limit at eps = inf still reads the claimed one
        # off the exceptions
        fam = square_indicator_family(m)
        named = (rf"^square_indicator\(M={m:g}\): the claimed limit "
                 rf"\({m}, 0\.0, 0\.0\) at x=1\.5 has a non-finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                absolute_partial(fam, 0.0, params(), 40, 1.5)
            with pytest.raises(ValueError, match=named):
                classify(fam, None, classical_scheme(), constant_weights(1),
                         1.0, 0.1, XGridPolicy((1.5,)), 64)

    def test_good_limits_pass_unchanged(self):
        fam = harmonic_crisp_family()
        for limit in (0.5, (0.5, 0.0, 0.25), crisp(0.5), lambda x: (x, 0, 1),
                      lambda x: triangular(x, 0.5, 0.0)):
            trip = limit_profile_fn(fam, limit)(1.5)
            assert is_triangular(*trip) and all(type(v) is float for v in trip)


class TestLimitTypes:
    """One normalizer types an explicit limit and a callable's value
    alike: a FuzzyNumber, a real (numpy scalars included) or a tuple or
    list of three reals; anything else is a TypeError naming the family,
    the limit and x."""

    GOOD = [(np.float32(0.5), (0.5, 0.0, 0.0)), (np.int64(0), (0.0, 0.0, 0.0)),
            ([0, 0, 0], (0.0, 0.0, 0.0)),
            ((np.float32(0.5), np.int64(0), 1), (0.5, 0.0, 1.0)),
            ([np.float64(2.0), 0.25, 0.5], (2.0, 0.25, 0.5))]
    BAD = [(0, 0), [0.0, 0.0, 0.0, 0.0], "0.5", np.array([0.0, 0.0, 0.0]),
           (0, 0, "1"), {"c": 0.0}, 1j]

    @pytest.mark.parametrize("value, trip", GOOD)
    def test_accepted_explicit_or_returned(self, value, trip):
        fam = harmonic_crisp_family()
        for limit in (value, lambda x: value):
            got = limit_profile_fn(fam, limit)(1.5)
            assert got == trip and all(type(v) is float for v in got)
        p = ModeParams(1.0, 0.1, classical_scheme(), constant_weights(1))
        assert absolute_partial(fam, lambda x: value, p, 40, 1.5) == \
            absolute_partial(fam, trip, p, 40, 1.5)

    @pytest.mark.parametrize("value", BAD + [None])
    def test_refused_by_name_explicit_or_returned(self, value):
        fam = harmonic_crisp_family()
        named = (rf"^harmonic_crisp: the limit {re.escape(repr(value))} at "
                 rf"x=1\.5 is not a FuzzyNumber, a real or a triple of reals$")
        p = ModeParams(1.0, 0.1, classical_scheme(), constant_weights(1))
        # None given explicitly asks for the claimed limit
        for limit in ([lambda x: value] if value is None
                      else [value, lambda x: value]):
            with pytest.raises(TypeError, match=named):
                absolute_partial(fam, limit, p, 40, 1.5)
            with pytest.raises(TypeError, match=named):
                classify(fam, limit, classical_scheme(), constant_weights(1),
                         1.0, 0.1, XGridPolicy((1.5,)), 64)


class TestOverflowNamed:
    """A product or sum past the float range is the named window-sum
    error on the dense and sparse paths alike, with no numpy warning
    first."""

    NAMED = r"a window sum over const:(10|1) weights overflows a float$"

    @pytest.mark.parametrize("fam, weights", [
        (constant_family(1e308), constant_weights(10)),  # dense: t*c
        (square_indicator_family(1e308), constant_weights(1)),  # sparse: c*W
        (square_indicator_family(1e308), constant_weights(10)),
    ])
    @pytest.mark.parametrize("mode", ["abs", "ord"])
    def test_named_without_warning(self, fam, weights, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=self.NAMED):
                classify(fam, None, classical_scheme(), weights, 1.0, 0.1,
                         uniform_grid(1, 2, 2), 64, modes=(mode,))

    def test_opposite_infinities_in_two_pieces_named(self):
        # t*c overflows to +inf up to k = 20 and to -inf past it; a window
        # over both once raised math.fsum's "-inf + inf in fsum"
        def profile(ks, x):
            z = np.zeros(len(ks))
            return np.where(ks <= 20, 1e308, -1e308), z, z

        fam = FuzzyFunctionSequence("pm", profile, lambda x: (0.0, 0.0, 0.0),
                                    x_free=True)
        with warnings.catch_warnings(), \
                mock.patch.object(schemes, "_CHUNK", 7):
            warnings.simplefilter("error")
            for mode in ("abs", "ord"):
                with pytest.raises(ValueError, match=r"^pm: " + self.NAMED):
                    classify(fam, None, classical_scheme(), constant_weights(10),
                             1.0, 0.1, uniform_grid(1, 2, 2), 64, modes=(mode,))


class TestSingleWindowHelpers:
    """``weighted_deviation_sum``, ``deviation_count`` and
    ``window_fuzzy_mean`` on one window [lo, hi], empty when hi < lo, on
    the dense and the sparse path, against an index-by-index
    ``math.fsum``."""

    TOP = 600

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(SPARSE_FAMILIES + ["ex4.1", "harmonic"]),
           drop_hook=st.booleans(),
           weights=st.sampled_from(["const:0.1", "const:2.5", "recip5",
                                    "harmonicplus"]),
           limit=st.sampled_from(LIMITS),
           lo=st.integers(1, TOP // 2), width=st.integers(-2, TOP // 2),
           eps=st.sampled_from([0.05, 0.5, 2.0]),
           divisor=st.sampled_from([1.0, 3.5, 0.25]),
           x=st.floats(1.0, 2.0))
    @example(family="ex3.2", drop_hook=False, weights="harmonicplus",
             limit=None, lo=16, width=1, eps=0.05, divisor=1.0,
             x=1.5).via("one index, a square")
    @example(family="ex3.2", drop_hook=False, weights="harmonicplus",
             limit=None, lo=16, width=0, eps=0.05, divisor=1.0,
             x=1.5).via("the empty window [16, 15]")
    @example(family="ex4.1", drop_hook=False, weights="recip5",
             limit=0.5, lo=9, width=-2, eps=0.05, divisor=3.5,
             x=1.0).via("hi two below lo")
    def test_match_index_sums(self, family, drop_hook, weights, limit, lo,
                              width, eps, divisor, x):
        fam, w = parse_family_spec(family), parse_weight_spec(weights)
        if drop_hook:
            fam = dense(fam)
        hi = lo + width - 1
        lim_fn = limit_profile_fn(fam, limit)
        with mock.patch.object(schemes, "_CHUNK", 61):
            got_sum = weighted_deviation_sum(fam, w, lim_fn, x, lo, hi)
            got_count = deviation_count(fam, w, lim_fn, x, hi, eps)
            got_mean = window_fuzzy_mean(fam, w, lo, hi, x, divisor)
        ks = np.arange(1, self.TOP + 1)
        t = w.values(ks)
        c, l, r = fam.values(ks, x)
        td = t * triangular_profile_distance(c, l, r, *lim_fn(x))
        window = slice(lo - 1, max(hi, lo - 1))
        assert close(got_sum, math.fsum(td[window]))
        assert got_count == np.count_nonzero(td[:max(hi, 0)] >= eps)
        cs, ls, rs = (math.fsum(v[window]) / divisor
                      for v in (t * c, t * l, t * r))
        ends = (got_mean.lower[-1], got_mean.lower[0], got_mean.upper[0])
        assert all(close(g, v) for g, v in zip(ends, (cs, cs - ls, cs + rs)))
        if hi < lo:
            assert got_sum == 0.0 and distance(got_mean, zero()) == 0.0

    # an infinite divisor once gave a zero mean
    @pytest.mark.parametrize("divisor", [0.0, -0.0, -1.0, -math.inf, math.inf,
                                         math.nan])
    def test_divisor_must_be_positive(self, divisor):
        with pytest.raises(ValueError, match=r"^divisor must lie in \(0, inf\), "
                                             rf"got {divisor!r}$"):
            window_fuzzy_mean(harmonic_crisp_family(), constant_weights(1), 1,
                              10, 1.5, divisor)
