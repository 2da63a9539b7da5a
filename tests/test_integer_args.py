"""One rule for an integer argument: every count, index and horizon.

Each entry point below refuses a float or NaN with a TypeError naming the
argument, and one below its least value with a ValueError naming it, and
takes a numpy integer as the Python int it equals.
"""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from fuzzysumm import (BetaGammaScheme, VerdictPolicy, classical_scheme,
                       constant_weights, harmonic_crisp_family, is_bounded,
                       ladder, power_scheme, ratio_condition,
                       slowly_decreasing_check, tauberian_experiment,
                       truncated_square_indicator_family, uniform_alphas,
                       uniform_grid, validate_scheme, verdict)
from fuzzysumm.cli import RunConfig, reproduce, run
from fuzzysumm.numbers import integer_at_least
from fuzzysumm.summability import (deviation_count, limit_profile_fn,
                                   weighted_deviation_sum, window_fuzzy_mean)

FAM = harmonic_crisp_family()
ONES = constant_weights(1)
LIMIT = limit_profile_fn(FAM)
TRACE = [(n, 1.0) for n in ladder(64)]


def _experiment(**kw):
    return tauberian_experiment(FAM, None, classical_scheme(), ONES,
                                uniform_grid(1, 2, 2), 64, **kw)


# (id, the call of v, the name its errors give, the least value or None for
# no bound, a valid value).  At the parent a float was truncated (window(2.5)
# was (1, 2), window_total(1, 10.7) the total over [1, 10]), NaN passed every
# bound (reproduce ran uncapped) or numpy failed without naming the argument.
ENTRY_POINTS = [
    ("uniform_alphas", lambda v: uniform_alphas(v), "level_count", 2, 5),
    ("window", lambda v: classical_scheme().window(v), "window index n", 1, 3),
    ("validate_scheme", lambda v: validate_scheme(classical_scheme(), v),
     "horizon n_max", 2, 8),
    ("ratio_condition",
     lambda v: ratio_condition(classical_scheme(), ONES, 2.0, v, 2),
     "horizon n_max", 2, 8),
    ("power_scheme", lambda v: power_scheme(v), "power p", 1, 2),
    ("uniform_grid", lambda v: uniform_grid(1, 2, v), "grid count", 1, 3),
    ("eval", lambda v: FAM.eval(v, 1.0), "sequence index k", 1, 2),
    ("truncated", lambda v: truncated_square_indicator_family(v),
     "truncation index n_trunc", 1, 16),
    ("is_bounded", lambda v: is_bounded(FAM, uniform_grid(1, 2, 2), v),
     "k_max", 1, 10),
    ("verdict", lambda v: verdict(TRACE, VerdictPolicy(window=v)),
     "policy window", 1, 4),
    ("ladder", lambda v: ladder(v), "horizon", 1, 100),
    ("scan_n0", lambda v: slowly_decreasing_check(FAM, 1.0, 0.1, 2.0, v, 50),
     "n0", 0, 10),
    ("scan_horizon", lambda v: slowly_decreasing_check(FAM, 1.0, 0.1, 2.0, 10, v),
     "horizon", 11, 50),
    ("experiment_scan_horizon", lambda v: _experiment(scan_horizon=v),
     "scan_horizon", 1, 32),
    ("experiment_n0", lambda v: _experiment(n0=v), "n0", 0, 10),
    ("RunConfig", lambda v: RunConfig("ex4.1", horizon=v), "horizon", 64, 128),
    ("reproduce", lambda v: reproduce(horizon_cap=v, out=io.StringIO()),
     "horizon cap", 1, 16),
    ("value", lambda v: ONES.value(v), "weight index k", None, 3),
    ("window_total_lo", lambda v: ONES.window_total(v, 10), "lo", None, 2),
    ("window_total_hi", lambda v: ONES.window_total(1, v), "hi", None, 10),
    ("weighted_deviation_sum_lo",
     lambda v: weighted_deviation_sum(FAM, ONES, LIMIT, 1.0, v, 10),
     "lo", None, 2),
    ("weighted_deviation_sum_hi",
     lambda v: weighted_deviation_sum(FAM, ONES, LIMIT, 1.0, 1, v),
     "hi", None, 10),
    ("deviation_count", lambda v: deviation_count(FAM, ONES, LIMIT, 1.0, v, 0.1),
     "k_max", None, 10),
    ("window_fuzzy_mean_lo",
     lambda v: window_fuzzy_mean(FAM, ONES, v, 10, 1.0, 1.0), "lo", None, 2),
    ("window_fuzzy_mean_hi",
     lambda v: window_fuzzy_mean(FAM, ONES, 1, v, 1.0, 1.0), "hi", None, 10),
]
IDS = [e[0] for e in ENTRY_POINTS]


class TestIntegerAtLeast:
    @pytest.mark.parametrize("value", [7, np.int64(7), np.int32(7), np.uint8(7)])
    def test_integers_come_back_as_python_ints(self, value):
        got = integer_at_least(value, 7, "count")
        assert got == 7 and type(got) is int

    @pytest.mark.parametrize("value", [2.5, 7.0, math.nan, math.inf,
                                       np.float64(7), "7", None])
    def test_non_integers_are_type_errors(self, value):
        with pytest.raises(TypeError,
                           match=r"^count must be an integer, got "):
            integer_at_least(value, 0, "count")

    def test_below_least_is_a_value_error(self):
        with pytest.raises(ValueError, match="^count must be at least 8, got 7$"):
            integer_at_least(np.int64(7), 8, "count")

    def test_no_bound(self):
        assert integer_at_least(-(1 << 70), None, "lo") == -(1 << 70)


@pytest.mark.parametrize("call, name", [e[1:3] for e in ENTRY_POINTS], ids=IDS)
@pytest.mark.parametrize("bad", [2.5, math.nan], ids=["2.5", "nan"])
def test_non_integer_refused_by_name(call, name, bad):
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("call, name, least",
                         [e[1:4] for e in ENTRY_POINTS if e[3] is not None],
                         ids=[e[0] for e in ENTRY_POINTS if e[3] is not None])
def test_too_small_refused_by_name(call, name, least):
    with pytest.raises(ValueError,
                       match=rf"^{name} must be at least {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("call, valid", [(e[1], e[4]) for e in ENTRY_POINTS],
                         ids=IDS)
def test_numpy_integer_accepted(call, valid):
    call(np.int64(valid))


class TestDefectsMended:
    """Cases the table does not reach."""

    def test_float_level_count_after_the_cached_int(self):
        # a float equal to a cached int was a cache hit past the check
        uniform_alphas(5)
        with pytest.raises(TypeError, match="level_count"):
            uniform_alphas(5.0)

    def test_window_index_reaches_the_maps_as_a_python_int(self):
        seen = []
        scheme = BetaGammaScheme(lambda n: seen.append(type(n)) or 1,
                                 lambda n: n, "probe")
        assert scheme.window(np.int64(3)) == (1, 3)
        assert seen == [int]

    def test_numpy_horizon_run_writes_its_report(self, tmp_path):
        # the whole sweep ran, then json.dump met an int64 horizon
        config = RunConfig("ex4.1", horizon=np.int64(256), modes=("ord",),
                           out_dir=str(tmp_path))
        assert type(config.horizon) is int
        result = run(config)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["horizon"] == result["horizon"] == 256

    def test_numpy_n0_keeps_the_report_serializable(self):
        # an entry whose scan found no violation reported the int64 n0
        exp = _experiment(n0=np.int64(10), scan_horizon=np.int64(32))
        assert all(type(e.n0) is int for e in exp.slow_decrease)
        json.dumps(exp.to_dict())

    def test_numpy_bounds_reach_the_witness_as_python_ints(self):
        # the witness was built from the arguments as given, not the ints
        # that were checked
        wit = slowly_decreasing_check(FAM, 1.0, 0.1, 2.0, np.int64(10),
                                      np.int64(50))
        assert (wit.n0, wit.horizon) == (10, 50)
        assert type(wit.n0) is int and type(wit.horizon) is int
        json.dumps(dataclasses.asdict(wit))
