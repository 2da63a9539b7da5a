"""One rule for a real argument: every theta, eps, lam, weight, divisor,
alpha, scale factor, x and verdict threshold.

Each entry point below refuses a non-real (a str, None, a complex) with a
TypeError naming the argument, and NaN or a value outside its range with a
ValueError naming the argument and the range, before it streams, walks or
reads a value; it takes a numpy float as the Python float it equals.
"""

import json
import math
import re
from dataclasses import asdict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from fuzzysumm import (ModeParams, VerdictPolicy, XGridPolicy, absolute_partial,
                       classical_scheme, classify, constant_weights, crisp,
                       dilate, dilation_mean_identity, harmonic_crisp_family,
                       ladder, parse_family_spec, parse_scheme_spec,
                       parse_weight_spec, ratio_condition, scale, scale_family,
                       shrink_mean_identity, slowly_decreasing_check, summability,
                       tauberian, tauberian_experiment, triangular,
                       uniform_grid, verdict, window_fuzzy_mean)
from fuzzysumm.cli import RunConfig
from fuzzysumm.numbers import closeness_check, real_in
from fuzzysumm.schemes import WeightSequence
from fuzzysumm.sequences import FuzzyFunctionSequence
from fuzzysumm.summability import (classify_thetas, deviation_count,
                                   limit_profile_fn)

FAM = harmonic_crisp_family()
ONES = constant_weights(1)
LIMIT = limit_profile_fn(FAM)
GRID = XGridPolicy((1.0, 1.5))
INF, NAN = math.inf, math.nan
POSITIVE = "(0, inf)"

# (id, the call of v, the name its errors give, its range as they give it,
# a valid value, the refused values other than a non-real).  Once, an
# infinite scan or ratio lam ran (411 violations; "a walk up to
# k=4611686018427387904"), an infinite eps or divisor read 0 everywhere, and
# a NaN or negative verdict threshold changed verdicts silently.
ENTRY_POINTS = [
    ("theta", lambda v: classify_thetas(FAM, None, classical_scheme(), ONES,
                                        (v,), 0.1, GRID, 64),
     "theta", "(0, 1]", 0.5, [NAN, 0.0, -0.5, 1.5, INF, -INF]),
    ("classify_eps", lambda v: classify(FAM, None, classical_scheme(), ONES,
                                        1.0, v, GRID, 64),
     "eps", POSITIVE, 0.1, [NAN, 0.0, -0.1, INF, -INF]),
    ("ModeParams_eps", lambda v: ModeParams(1.0, v, classical_scheme(), ONES),
     "eps", POSITIVE, 0.1, [NAN, 0.0, INF]),
    ("RunConfig_eps", lambda v: RunConfig("ex4.1", eps=v),
     "eps", POSITIVE, 0.1, [NAN, 0.0, INF]),
    ("deviation_count_eps",
     lambda v: deviation_count(FAM, ONES, LIMIT, 1.0, 10, v),
     "eps", POSITIVE, 0.1, [NAN, 0.0, -0.1, INF]),
    ("closeness_eps", lambda v: closeness_check(crisp(0), crisp(0), v),
     "eps", POSITIVE, 0.1, [NAN, 0.0, -0.1, INF]),
    ("scan_eps", lambda v: slowly_decreasing_check(FAM, 1.0, v, 2.0, 10, 50),
     "eps", POSITIVE, 0.1, [NAN, 0.0, -0.1, INF]),
    ("probe_eps", lambda v: tauberian._last_violations(FAM, 1.0, (0.1, v), 2.0, 10, 50),
     "eps", POSITIVE, 0.1, [NAN, 0.0, INF]),
    ("scan_lam", lambda v: slowly_decreasing_check(FAM, 1.0, 0.1, v, 10, 50),
     "lam", POSITIVE, 2.0, [NAN, 0.0, -2.0, INF, -INF]),
    # a lam of 1 is on neither side: it is read as a shrink
    ("scan_lam_one", lambda v: slowly_decreasing_check(FAM, 1.0, 0.1, v, 10, 50),
     "lam", "(0, 1)", 0.5, [1.0]),
    ("probe_lam", lambda v: tauberian._last_violations(FAM, 1.0, (0.1,), v, 10, 50),
     "lam", POSITIVE, 2.0, [NAN, 0.0, INF]),
    ("dilation_identity",
     lambda v: dilation_mean_identity(FAM, classical_scheme(), ONES, v, 8, 1.0),
     "lam", "(1, inf)", 2.0, [NAN, 1.0, 0.5, 0.0, INF, -INF]),
    ("shrink_identity",
     lambda v: shrink_mean_identity(FAM, classical_scheme(), ONES, v, 8, 1.0),
     "lam", "(0, 1)", 0.5, [NAN, 0.0, 1.0, 2.0, INF, -INF]),
    ("dilate", lambda v: dilate(classical_scheme(), v),
     "lam", POSITIVE, 2.0, [NAN, 0.0, -1.0, INF, -INF]),
    ("condition2", lambda v: ratio_condition(classical_scheme(), ONES, v, 64, 2),
     "lam", "(1, inf)", 2.0, [NAN, 1.0, 0.5, INF]),
    ("condition3", lambda v: ratio_condition(classical_scheme(), ONES, v, 64, 3),
     "lam", "(0, 1)", 0.5, [NAN, 0.0, 1.0, 2.0, INF]),
    ("condition4", lambda v: ratio_condition(classical_scheme(), ONES, v, 64, 4),
     "lam", "(1, inf)", 2.0, [NAN, 1.0, INF]),
    ("condition5", lambda v: ratio_condition(classical_scheme(), ONES, v, 64, 5),
     "lam", "(0, 1)", 0.5, [NAN, 1.0, -0.5, INF]),
    ("constant_weight", lambda v: constant_weights(v),
     "constant weight", POSITIVE, 2.5, [NAN, 0.0, -1.0, INF, -INF]),
    ("scale", lambda v: scale(v, crisp(1.0)),
     "scale factor", "(-inf, inf)", -2.0, [NAN, INF, -INF]),
    ("scale_family", lambda v: scale_family(v, FAM),
     "scale factor", "(-inf, inf)", 0.5, [NAN, INF, -INF]),
    ("divisor", lambda v: window_fuzzy_mean(FAM, ONES, 1, 10, 1.5, v),
     "divisor", POSITIVE, 2.0, [NAN, 0.0, -1.0, INF, -INF]),
    ("alpha", lambda v: triangular(0.0, 1.0, 1.0).cut(v),
     "alpha", "[0, 1]", 0.5, [NAN, -0.1, 1.5, INF, -INF]),
    ("x", lambda v: FAM.eval(3, v), "x", "[1, 2]", 1.5, [NAN, 0.5, 2.5, INF]),
    ("policy_tol", lambda v: VerdictPolicy(tol=v),
     "policy tol", "[0, inf)", 0.0, [NAN, -1.0, INF]),
    ("policy_limit_tol", lambda v: VerdictPolicy(limit_tol=v),
     "policy limit_tol", "[0, inf)", 0.0, [NAN, -1.0, INF]),
    ("policy_divergence_factor", lambda v: VerdictPolicy(divergence_factor=v),
     "policy divergence_factor", POSITIVE, 2.0, [NAN, 0.0, -1.0, INF]),
]
IDS = [e[0] for e in ENTRY_POINTS]
REFUSED = [(e[1], e[2], e[3], bad) for e in ENTRY_POINTS for bad in e[5]]
REFUSED_IDS = [f"{e[0]}-{bad!r}" for e in ENTRY_POINTS for bad in e[5]]


@pytest.fixture
def no_work():
    """Every stream, walk over the weights and read of family values fails,
    so a refusal must come before them."""
    late = AssertionError("work began before the argument was refused")
    with mock.patch.object(summability, "_stream", side_effect=late), \
            mock.patch.object(tauberian, "_stream", side_effect=late), \
            mock.patch.object(WeightSequence, "window_totals", side_effect=late), \
            mock.patch.object(FuzzyFunctionSequence, "values", side_effect=late):
        yield


class TestRealIn:
    @pytest.mark.parametrize("value", [3, np.int64(3), 3.0, np.float64(3),
                                       np.float32(3), Fraction(3)])
    def test_reals_come_back_as_python_floats(self, value):
        got = real_in(value, "knob", 0, 3)
        assert got == 3.0 and type(got) is float

    @pytest.mark.parametrize("value", ["1", None, 1j, np.complex128(1), [1.0]])
    def test_non_reals_are_type_errors(self, value):
        with pytest.raises(TypeError,
                           match=rf"^knob must be a real number, got {re.escape(repr(value))}$"):
            real_in(value, "knob", 0, 3)

    @pytest.mark.parametrize("flags, span, kept", [
        ({}, "[0, 1]", (0, 1)), ({"open_low": True}, "(0, 1]", (1,)),
        ({"open_high": True}, "[0, 1)", (0,)),
        ({"open_low": True, "open_high": True}, "(0, 1)", ()),
    ])
    def test_flagged_ends_are_open(self, flags, span, kept):
        for end in (0, 1):
            if end in kept:
                assert real_in(end, "knob", 0, 1, **flags) == end
                continue
            with pytest.raises(ValueError,
                               match=rf"^knob must lie in {re.escape(span)}, got {end}$"):
                real_in(end, "knob", 0, 1, **flags)

    @pytest.mark.parametrize("value", [INF, -INF, NAN, 10 ** 400, -(10 ** 400)])
    def test_unbounded_range_still_refuses_the_non_finite(self, value):
        with pytest.raises(ValueError, match=r"^knob must lie in \(-inf, inf\), got "):
            real_in(value, "knob", -INF, INF)

    def test_an_infinite_end_reads_open_whatever_its_flag(self):
        with pytest.raises(ValueError, match=r"^knob must lie in \[0, inf\), got inf$"):
            real_in(INF, "knob", 0, INF)
        assert real_in(1e308, "knob", 0, INF) == 1e308


@pytest.mark.parametrize("call, name, span, bad", REFUSED, ids=REFUSED_IDS)
def test_out_of_range_refused_by_name(call, name, span, bad, no_work):
    with pytest.raises(ValueError, match=rf"^{name} must lie in "
                                         rf"{re.escape(span)}, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("call, name", [e[1:3] for e in ENTRY_POINTS], ids=IDS)
@pytest.mark.parametrize("bad", ["0.5", None, 0.5j], ids=["str", "None", "complex"])
def test_non_real_refused_by_name(call, name, bad, no_work):
    with pytest.raises(TypeError,
                       match=rf"^{name} must be a real number, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("call, valid", [(e[1], e[4]) for e in ENTRY_POINTS],
                         ids=IDS)
def test_numpy_float_accepted(call, valid):
    call(np.float64(valid))


class TestDefectsMended:
    """The faults the one rule mends, each as it was found."""

    def test_nan_limit_tol_no_longer_makes_a_member(self):
        # ex4.1's abs trace converges to 1: a non-member, but every
        # |estimate| > nan is False, so a NaN limit_tol made it a member
        fam = parse_family_spec("ex4.1")
        rep = classify(fam, None, classical_scheme(), ONES, 1.0, 0.1,
                       XGridPolicy((1.5,)), 4096, modes=("abs",))
        assert rep.membership["abs"] is False
        with pytest.raises(ValueError, match="^policy limit_tol must lie in"):
            classify(fam, None, classical_scheme(), ONES, 1.0, 0.1,
                     XGridPolicy((1.5,)), 4096, modes=("abs",),
                     policy=VerdictPolicy(limit_tol=NAN))

    @pytest.mark.parametrize("field, value", [
        ("tol", NAN), ("tol", -1.0), ("divergence_factor", NAN),
        ("divergence_factor", -1.0)])
    def test_bad_threshold_no_longer_changes_a_verdict(self, field, value):
        # a converging trace read inconclusive (tol) or diverges (factor)
        trace = [(n, 1.0 + 1.0 / n) for n in ladder(4096)]
        assert verdict(trace).kind == "converges"
        with pytest.raises(ValueError, match=f"^policy {field} must lie in"):
            verdict(trace, VerdictPolicy(**{field: value}))

    def test_window_checked_once_when_the_policy_is_built(self):
        policy = VerdictPolicy(window=np.int64(3))
        assert type(policy.window) is int
        assert verdict([(1, 1.0), (2, 1.0)], policy).kind == "inconclusive"

    def test_infinite_scan_lam_refused_before_any_row(self, no_work):
        # it ran and reported 411 violations, where dilate refused inf
        with pytest.raises(ValueError, match=r"^lam must lie in \(0, inf\), got inf$"):
            slowly_decreasing_check(FAM, 1.0, 0.1, INF, 0, 64)

    def test_infinite_ratio_lam_named_not_the_weights(self, no_work):
        with pytest.raises(ValueError, match=r"^lam must lie in \(1, inf\), got inf$"):
            ratio_condition(classical_scheme(), ONES, INF, 256, 2)

    def test_huge_finite_lam_still_meets_the_walk_budget(self):
        with pytest.raises(ValueError, match="exceeds the budget"):
            ratio_condition(classical_scheme(), ONES, 1e18, 256, 2)

    def test_huge_finite_identity_lam_refused_by_name(self):
        # floor(1e308 * 8) raised a bare OverflowError
        with pytest.raises(ValueError, match=r"^lam=1e\+308 moves the window "
                                             r"top 8 past the float range$"):
            dilation_mean_identity(FAM, classical_scheme(), ONES, 1e308, 8, 1.0)

    def test_huge_finite_dilate_lam_refused_by_name(self):
        # the dilated gamma raised a bare OverflowError at the first window
        with pytest.raises(ValueError, match=r"^lam=1e\+308 moves the window "
                                             r"top 2 past the float range$"):
            dilate(classical_scheme(), 1e308).window(2)
        assert dilate(classical_scheme(), 1e300).window(2) == (1, math.floor(2e300))

    def test_numpy_scalars_give_the_json_of_python_floats(self):
        # each numpy scalar was stored as given: "Object of type float32 is
        # not JSON serializable", and a scan's eps=True stayed True
        def report(theta=1.0, eps=0.5, points=(1.0, 1.5)):
            return json.dumps(classify(FAM, None, classical_scheme(), ONES, theta,
                                       eps, XGridPolicy(points), 64).to_dict())
        want = report()
        assert report(theta=np.float32(1.0)) == want
        assert report(theta=np.int64(1)) == want
        assert report(eps=np.float32(0.5)) == want
        assert report(points=(np.float32(1.0), np.float32(1.5))) == want

        def experiment(a, b):
            return json.dumps(tauberian_experiment(
                parse_family_spec("ex3.2"), None, classical_scheme(), ONES,
                uniform_grid(a, b, 3), 64).to_dict())
        assert experiment(np.float32(1), np.float32(2)) == experiment(1.0, 2.0)

        def witness(eps, lam):
            return json.dumps(asdict(slowly_decreasing_check(FAM, 1.0, eps, lam,
                                                             10, 50)))
        assert witness(True, np.float32(2.0)) == witness(1.0, 2.0)

    def test_mode_params_keep_python_floats(self):
        # theta was stored as given: T ** np.float32(0.25) is a float32, so
        # absolute_partial returned np.float32(15178.537)
        fam, scheme = parse_family_spec("ex3.2"), parse_scheme_spec("pow:2")
        weights = parse_weight_spec("recip5")
        p = ModeParams(np.float32(0.25), np.float32(0.5), scheme, weights)
        assert (type(p.theta), type(p.eps)) == (float, float)
        got = absolute_partial(fam, None, p, 100, 1.5)
        want = absolute_partial(fam, None, ModeParams(0.25, 0.5, scheme, weights),
                                100, 1.5)
        assert type(got) is float and got == want == 15178.537803786001

    def test_infinite_eps_refused_where_sp_read_zero(self):
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, inf\), got inf$"):
            RunConfig("ex4.1", eps=INF, modes=("sp",))
