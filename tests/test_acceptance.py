"""Acceptance gate: one test per criterion, each printing a PASS line.

Thresholds that the criteria leave to configuration are pinned here and
stated next to their use; every expected value is either a hand-checked
closed form or recomputed by a brute-force oracle inside the test.
"""

import math
import time

import numpy as np
import pytest

from conftest import icbrt, rng_triangular

import fuzzysumm as fz
from fuzzysumm.sequences import crisp_index_family

GRID = fz.uniform_grid(1, 2, 5)


def _pass(label):
    print(f"ACCEPTANCE {label}: PASS")


# ---------------------------------------------------------------------------
# 1. square_indicator family on counting windows
# ---------------------------------------------------------------------------

def test_criterion_1_square_indicator_absolute():
    fam = fz.square_indicator_family(1.0)
    scheme, weights = fz.classical_scheme(), fz.constant_weights(1)
    horizon = 1 << 20
    started = time.monotonic()
    for theta in (0.25, 0.75):
        p = fz.ModeParams(theta=theta, eps=0.1, scheme=scheme, weights=weights)
        for n in fz.ladder(horizon):
            got = fz.absolute_partial(fam, None, p, n, 1.5)
            assert abs(got - math.isqrt(n) / n**theta) <= 1e-12

    # tol 0.05: the tail decays like n**-0.25, spreading ~0.011 over the
    # last four ladder points at this horizon
    policy = fz.VerdictPolicy(tol=0.05)
    rep_hi = fz.classify(fam, None, scheme, weights, theta=0.75, eps=0.1,
                         grid=GRID, horizon=horizon, modes=("abs",),
                         policy=policy)
    for x in GRID.points:
        t = rep_hi.trace(x, "abs")
        assert t.verdict.kind == "converges"
        assert t.points[-1][1] <= 0.04
    assert rep_hi.membership["abs"] is True

    rep_lo = fz.classify(fam, None, scheme, weights, theta=0.25, eps=0.1,
                         grid=GRID, horizon=horizon, modes=("abs",),
                         policy=policy)
    for x in GRID.points:
        t = rep_lo.trace(x, "abs")
        assert t.verdict.kind == "diverges"
        assert t.points[-1][1] >= 10.0
    assert rep_lo.membership["abs"] is False

    assert time.monotonic() - started < 60.0  # prefix sums keep this cheap
    _pass("1 square_indicator absolute orders 0.25/0.75")


# ---------------------------------------------------------------------------
# 2. triangular_growing family on square windows, fifth weights
# ---------------------------------------------------------------------------

def test_criterion_2_triangular_growing():
    fam = fz.triangular_growing_family()
    scheme, weights = fz.power_scheme(2), fz.recip5_weights()
    p1 = fz.ModeParams(theta=1.0, eps=0.1, scheme=scheme, weights=weights)

    # eps 0.1 keeps even the k=1 square (weighted deviation x/5 >= 0.2)
    # inside the counted set, matching the closed-form count of 4 at n=10
    for x in GRID.points:
        assert abs(fz.sp_density(fam, None, p1, 10, x) - 0.2) <= 1e-12

    horizon = 512
    policy = fz.VerdictPolicy(tol=0.05)
    rep_sp = fz.classify(fam, None, scheme, weights, theta=1.0, eps=0.1,
                         grid=GRID, horizon=horizon, modes=("sp",),
                         policy=policy)
    for x in GRID.points:
        t = rep_sp.trace(x, "sp")
        assert t.verdict.kind == "converges"
        assert abs(t.verdict.estimate) <= 0.05
        for n, v in t.points:
            assert v <= math.sqrt(5) / n + 1e-9
    assert rep_sp.membership["sp"] is True

    rep_abs = fz.classify(fam, None, scheme, weights, theta=0.25, eps=0.1,
                          grid=GRID, horizon=horizon, modes=("abs",))
    for x in GRID.points:
        t = rep_abs.trace(x, "abs")
        assert t.verdict.kind == "diverges"
        assert t.points[-1][1] >= 1e3  # already past 10^3 by n = 512
    assert rep_abs.membership["abs"] is False
    _pass("2 triangular_growing: sp member, absolute order-1/4 diverges")


# ---------------------------------------------------------------------------
# 3. cube_decaying family on square windows, harmonic-plus weights
# ---------------------------------------------------------------------------

def test_criterion_3_cube_decaying():
    fam = fz.cube_decaying_family()
    scheme, weights = fz.power_scheme(2), fz.harmonicplus_weights()
    horizon = 256

    rep_abs = fz.classify(fam, None, scheme, weights, theta=1.0, eps=1e-9,
                          grid=GRID, horizon=horizon, modes=("abs",))
    for x in GRID.points:
        t = rep_abs.trace(x, "abs")
        assert t.verdict.kind == "converges"
        assert t.points[-1][1] <= 1e-2
    assert rep_abs.membership["abs"] is True

    # eps 1e-9 sits below every weighted cube deviation x/k + x/k^2 on
    # this horizon, so the counted set is exactly the cubes up to floor(T)
    p = fz.ModeParams(theta=0.2, eps=1e-9, scheme=scheme, weights=weights)
    for n in fz.ladder(horizon):
        total = fz.weighted_total(scheme, weights, n)
        count = fz.sp_density(fam, None, p, n, 1.0) * total**0.2
        assert round(count) == icbrt(math.floor(total))
        assert abs(count - round(count)) < 1e-6

    # density grows like T**(2/15): too slow for the default factor-10
    # divergence bar at any feasible horizon, so pin factor 2 here
    rep_sp = fz.classify(fam, None, scheme, weights, theta=0.2, eps=1e-9,
                         grid=GRID, horizon=horizon, modes=("sp",),
                         policy=fz.VerdictPolicy(divergence_factor=2.0))
    for x in GRID.points:
        assert rep_sp.trace(x, "sp").verdict.kind == "diverges"
    assert rep_sp.membership["sp"] is False
    _pass("3 cube_decaying: absolute member, sp order-0.2 diverges")


# ---------------------------------------------------------------------------
# 4. alternating family on counting windows
# ---------------------------------------------------------------------------

def test_criterion_4_alternating():
    fam = fz.alternating_crisp_family()
    scheme, weights = fz.classical_scheme(), fz.constant_weights(1)
    p = fz.ModeParams(theta=1.0, eps=0.1, scheme=scheme, weights=weights)

    for n in (2, 4, 10, 256, 1000):
        assert fz.distance(fz.ordinary_partial(fam, p, n, 1.5), fz.zero()) == 0.0
    for n in (1, 5, 17, 999, 1001):
        got = fz.ordinary_partial(fam, p, n, 1.5)
        assert fz.distance(got, fz.crisp(1.0 / n)) == 0.0

    assert fz.distance(fz.ordinary_partial(fam, p, 1001, 1.0),
                       fz.zero()) <= 1e-3

    for n in (1, 2, 3, 64, 1001, 4096):
        assert fz.absolute_partial(fam, None, p, n, 1.2) == 1.0

    rep = fz.classify(fam, None, scheme, weights, theta=1.0, eps=0.1,
                      grid=GRID, horizon=4096, modes=("ord", "abs"))
    assert rep.membership["ord"] is True
    assert rep.membership["abs"] is False
    _pass("4 alternating: ordinary member with limit 0, absolute non-member")


# ---------------------------------------------------------------------------
# 5. truncated square families vs their pointwise limit
# ---------------------------------------------------------------------------

def test_criterion_5_truncated_vs_limit_family():
    scheme, weights = fz.classical_scheme(), fz.constant_weights(1)
    horizon = 1 << 20
    # traces decay like isqrt(n_trunc)/n**0.25 toward 0; tol 0.2 reads the
    # plateau, and membership allows estimates up to 0.5 at this horizon
    policy = fz.VerdictPolicy(tol=0.2, limit_tol=0.5)

    for n_trunc in (4, 16, 64):
        fam = fz.truncated_square_indicator_family(n_trunc)
        rep = fz.classify(fam, None, scheme, weights, theta=0.25, eps=0.1,
                          grid=GRID, horizon=horizon, modes=("abs",),
                          policy=policy)
        for x in GRID.points:
            t = rep.trace(x, "abs")
            assert t.verdict.kind == "converges"
            # closed form of the finite perturbation along the ladder
            for n, v in t.points:
                expect = math.isqrt(min(n, n_trunc)) / n**0.25
                assert abs(v - expect) <= 1e-12
            tail = [v for _, v in t.points[-8:]]
            assert all(b <= a for a, b in zip(tail, tail[1:]))  # decaying
        assert rep.membership["abs"] is True

    limit_fam = fz.square_indicator_family(1.0)
    rep_limit = fz.classify(limit_fam, None, scheme, weights, theta=0.25,
                            eps=0.1, grid=GRID, horizon=horizon,
                            modes=("abs",), policy=policy)
    for x in GRID.points:
        assert rep_limit.trace(x, "abs").verdict.kind == "diverges"
    assert rep_limit.membership["abs"] is False
    _pass("5 truncated families summable at order 1/4, pointwise limit is not")


# ---------------------------------------------------------------------------
# 6. bulk property suites, >= 1000 sampled instances each
# ---------------------------------------------------------------------------

def test_criterion_6a_metric_axioms():
    rng = np.random.default_rng(60)
    for _ in range(1000):
        x, y, z = (rng_triangular(rng) for _ in range(3))
        dxy = fz.distance(x, y)
        assert dxy >= 0.0
        assert dxy == fz.distance(y, x)
        assert fz.distance(x, x) == 0.0
        if dxy == 0.0:
            assert np.array_equal(x.lower, y.lower)
            assert np.array_equal(x.upper, y.upper)
        assert fz.distance(x, z) <= dxy + fz.distance(y, z) + 1e-12
    _pass("6a metric axioms on 1000 dyadic triples")


def test_criterion_6b_metric_compatibilities():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        x, y, z, w = (rng_triangular(rng) for _ in range(4))
        c = float(rng.integers(-256, 257)) / 64
        # scaling: |c| factors out, 1e-12 relative
        lhs = fz.distance(fz.scale(c, x), fz.scale(c, y))
        rhs = abs(c) * fz.distance(x, y)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)
        # translation: exact on the dyadic grid
        assert fz.distance(fz.add(x, z), fz.add(y, z)) == fz.distance(x, y)
        # joint additivity
        assert fz.distance(fz.add(x, z), fz.add(y, w)) \
            <= fz.distance(x, y) + fz.distance(z, w) + 1e-12
    _pass("6b scale/translate/additivity compatibilities on 1000 samples")


def test_criterion_6c_closeness_agreement():
    rng = np.random.default_rng(62)
    agree_true = 0
    for _ in range(1000):
        x, y = rng_triangular(rng), rng_triangular(rng)
        eps = float(rng.integers(1, 512)) / 64
        got = fz.closeness_check(x, y, eps)
        assert got.by_metric == got.by_order
        agree_true += got.by_metric
    assert 0 < agree_true < 1000  # both outcomes exercised
    _pass("6c metric/order closeness agreement on 1000 samples")


def test_criterion_6d_order_monotonicity():
    rng = np.random.default_rng(63)
    fams = [fz.square_indicator_family(1.0), fz.triangular_growing_family(),
            fz.alternating_crisp_family(), fz.cube_decaying_family()]
    for theta, delta in ((0.3, 0.6), (0.5, 1.0)):
        p_lo = fz.ModeParams(theta=delta, eps=0.1, scheme=fz.classical_scheme(),
                             weights=fz.constant_weights(1))
        p_hi = fz.ModeParams(theta=theta, eps=0.1, scheme=fz.classical_scheme(),
                             weights=fz.constant_weights(1))
        for _ in range(1000):
            fam = fams[rng.integers(len(fams))]
            n = int(rng.integers(1, 600))
            x = float(rng.uniform(*fam.domain))
            assert fz.absolute_partial(fam, None, p_lo, n, x) \
                <= fz.absolute_partial(fam, None, p_hi, n, x)
    _pass("6d higher-order partials never exceed lower-order, 2x1000 samples")


def test_criterion_6e_mean_domination():
    rng = np.random.default_rng(64)
    fams = [fz.square_indicator_family(1.0), fz.triangular_growing_family(),
            fz.cube_decaying_family(), fz.alternating_crisp_family(),
            fz.truncated_square_indicator_family(16), fz.harmonic_crisp_family()]
    weights = [fz.constant_weights(1), fz.harmonicplus_weights()]
    for i in range(1000):
        fam = fams[i % len(fams)]
        p = fz.ModeParams(theta=1.0, eps=0.1, scheme=fz.classical_scheme(),
                          weights=weights[i % 2])
        n = int(rng.integers(1, 400))
        x = float(rng.uniform(*fam.domain))
        lim = fz.triangular(*fam.limit_profile(x))
        d = fz.distance(fz.ordinary_partial(fam, p, n, x), lim)
        s = fz.absolute_partial(fam, None, p, n, x)
        assert d <= s + 1e-12
    _pass("6e window-mean deviation dominated by mean deviation, 1000 samples")


def test_criterion_6f_decomposition_identities():
    rng = np.random.default_rng(65)
    schemes = [fz.classical_scheme(), fz.parse_scheme_spec("lacunary:pow2")]
    weights = [fz.constant_weights(1), fz.harmonicplus_weights()]
    fams = [fz.alternating_crisp_family(), fz.triangular_growing_family(),
            fz.square_indicator_family(1.0)]
    checked = 0
    while checked < 1000:
        scheme = schemes[rng.integers(2)]
        w = weights[rng.integers(2)]
        fam = fams[rng.integers(3)]
        x = float(rng.uniform(*fam.domain))
        lam = (1.5, 2.0, 0.5)[rng.integers(3)]
        if scheme.label.startswith("lacunary"):
            n = int(rng.integers(2, 9))
        else:
            n = int(rng.integers(4, 256))
        if lam > 1:
            dev = fz.dilation_mean_identity(fam, scheme, w, lam, n, x)
        else:
            try:
                dev = fz.shrink_mean_identity(fam, scheme, w, lam, n, x)
            except fz.DegenerateWindowError:
                continue  # shrunken top fell out of the window
        assert dev <= 1e-9
        checked += 1
    _pass("6f window-mean decomposition identities <= 1e-9 on 1000 samples")


# ---------------------------------------------------------------------------
# 7. ratio-condition equivalences across schemes and weights
# ---------------------------------------------------------------------------

def test_criterion_7_ratio_condition_table():
    ups = (1.25, 1.5, 2.0, 3.0)
    downs = (0.8, 0.67, 0.5, 0.33)
    horizons = {"classical": 1 << 16, "pow:2": 256, "lacunary:pow2": 14}
    for sspec, n_max in horizons.items():
        scheme = fz.parse_scheme_spec(sspec)
        for wspec in ("const:1", "harmonicplus"):
            w = fz.parse_weight_spec(wspec)
            h = n_max
            up_hold = [fz.ratio_condition(scheme, w, lam, h, 2).holds
                       for lam in ups]
            down_hold = [fz.ratio_condition(scheme, w, lam, h, 3).holds
                         for lam in downs]
            assert all(up_hold) == all(down_hold)
            assert all(up_hold), (sspec, wspec)
            for lam in ups:
                r = fz.ratio_condition(scheme, w, lam, h, 4)
                assert r.holds and math.isfinite(r.estimate)
            for lam in downs:
                r = fz.ratio_condition(scheme, w, lam, h, 5)
                assert r.holds and math.isfinite(r.estimate)

    scheme, w = fz.classical_scheme(), fz.constant_weights(1)
    h = 1 << 16
    assert abs(fz.ratio_condition(scheme, w, 2.0, h, 2).estimate - 2.0) <= 1e-3
    assert abs(fz.ratio_condition(scheme, w, 0.5, h, 3).estimate - 2.0) <= 1e-3
    assert abs(fz.ratio_condition(scheme, w, 2.0, h, 4).estimate - 2.0) <= 1e-3
    _pass("7 growth/gap ratio conditions equivalent; classical estimates = 2")


# ---------------------------------------------------------------------------
# 8. the Tauber experiment end to end
# ---------------------------------------------------------------------------

def test_criterion_8_tauberian_experiment():
    scheme, weights = fz.classical_scheme(), fz.constant_weights(1)

    exp = fz.tauberian_experiment(
        fz.harmonic_crisp_family(), None, scheme, weights, GRID,
        horizon=1 << 17, scan_horizon=1024)
    assert exp.condition2_holds
    assert exp.slowly_decreasing_holds
    assert exp.summable is True
    assert exp.hypotheses_pass
    assert exp.conclusion_holds is True
    assert exp.sandwich_ok is True
    assert exp.identity_checks and all(c.ok for c in exp.identity_checks)
    for trace in exp.conclusion:
        for n, v in trace.points:
            if n >= 1000:
                assert v <= 1e-3
    # the window top at step 1000 is index 1000 itself on this scheme
    fam = fz.harmonic_crisp_family()
    assert fz.distance(fam.eval(scheme.gamma(1000), 1.0), fz.zero()) <= 1e-3

    bad = fz.tauberian_experiment(
        fz.alternating_crisp_family(), None, scheme, weights, GRID,
        horizon=4096, scan_horizon=512)
    assert not bad.slowly_decreasing_holds
    failed = [e for e in bad.slow_decrease if not e.holds]
    assert failed and failed[0].witness
    n, k = failed[0].witness[0]
    u = fz.alternating_crisp_family()
    assert not fz.partial_leq(fz.translate(u.eval(n, failed[0].x), -failed[0].eps),
                              u.eval(k, failed[0].x))
    assert not bad.hypotheses_pass
    _pass("8 Tauber experiment: harmonic passes, alternating fails with witness")


# ---------------------------------------------------------------------------
# composite: the built-in reference table agrees end to end
# ---------------------------------------------------------------------------

def test_reference_table_full_agreement(capsys):
    from fuzzysumm.cli import reproduce
    failures = reproduce()
    out = capsys.readouterr().out
    assert failures == 0
    assert "FAIL" not in out
    assert "inconclusive" not in out.replace("0 inconclusive", "")
    _pass("composite reference table 5/5 groups agree")
