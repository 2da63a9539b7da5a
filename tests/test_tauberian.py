"""Slow-decrease scans, decomposition identities, and the full experiment."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysumm import (DegenerateWindowError, add, classical_scheme,
                       constant_family, constant_weights, crisp,
                       alternating_crisp_family,
                       dilation_mean_identity, distance, harmonic_crisp_family,
                       harmonicplus_weights, parse_scheme_spec, partial_leq,
                       scale, shrink_mean_identity, slowly_decreasing_check,
                       slowly_decreasing_check_shrink, square_indicator_family,
                       tauberian_experiment, translate,
                       triangular_growing_family, uniform_grid)
from fuzzysumm import tauberian
from fuzzysumm.sequences import FuzzyFunctionSequence, crisp_index_family


def left_spread_family():
    """Crisp 0 widened to the left by (k mod 3)*x: only support bottoms move,
    so a scan that skips a zero spread must skip the right one."""
    def profile(ks, x):
        z = np.zeros(len(ks))
        return z, (ks % 3) * x, z
    return FuzzyFunctionSequence("left_spread", profile)


def violating_pairs(fam, x, eps, lam, n0, horizon):
    """Every violating (n, k) of a slow-decrease scan in (n, k) order,
    compared level by level on FuzzyNumbers."""
    values = {k: fam.eval(k, x) for k in range(1, horizon + 1)}
    pairs = []
    for n in range(n0 + 1, horizon + 1):
        if lam > 1:
            lowered = translate(values[n], -eps)
            pairs += [(n, k) for k in range(n + 1, min(math.floor(lam * n), horizon) + 1)
                      if not partial_leq(lowered, values[k])]
        else:
            pairs += [(n, k) for k in range(math.floor(lam * n) + 1, n + 1)
                      if not partial_leq(translate(values[k], -eps), values[n])]
    return pairs


class TestSlowDecreaseCheck:
    def test_monotone_increasing_has_no_violations(self):
        fam = crisp_index_family()
        for eps in (1e-6, 0.5):
            wit = slowly_decreasing_check(fam, 1.5, eps, 2.0, 0, 400)
            assert wit.holds

    def test_harmonic_clean_past_n0(self):
        # drops are at most 1/n < 0.1 once n > 10; exhaustive check agrees
        fam = harmonic_crisp_family()
        wit = slowly_decreasing_check(fam, 1.0, 0.1, 2.0, 10, 600)
        assert wit.holds

    def test_alternating_violations_found(self):
        fam = alternating_crisp_family()
        wit = slowly_decreasing_check(fam, 1.0, 0.5, 2.0, 4, 200)
        assert not wit.holds
        # every recorded pair is a genuine order violation
        for n, k in wit.violations[:20]:
            assert 4 < n < k <= math.floor(2.0 * n)
            u_n = fam.eval(n, 1.0)
            u_k = fam.eval(k, 1.0)
            assert not partial_leq(translate(u_n, -0.5), u_k)

    def test_violations_shrink_as_eps_grows(self):
        fam = alternating_crisp_family()
        wit_small = slowly_decreasing_check(fam, 1.0, 0.5, 2.0, 2, 120)
        wit_large = slowly_decreasing_check(fam, 1.0, 1.5, 2.0, 2, 120)
        assert set(wit_large.violations) <= set(wit_small.violations)
        wit_huge = slowly_decreasing_check(fam, 1.0, 2.5, 2.0, 2, 120)
        assert wit_huge.holds  # swings are exactly 2

    def test_matches_bruteforce_order_scan(self):
        # exhaustive FuzzyNumber-space rescan of a small horizon
        fam = triangular_growing_family()
        x, eps, lam, n0, horizon = 1.25, 3.0, 1.6, 2, 40
        wit = slowly_decreasing_check(fam, x, eps, lam, n0, horizon)
        values = {k: fam.eval(k, x) for k in range(1, horizon + 1)}
        expect = []
        for n in range(n0 + 1, horizon + 1):
            for k in range(n + 1, min(math.floor(lam * n), horizon) + 1):
                if not partial_leq(translate(values[n], -eps), values[k]):
                    expect.append((n, k))
        assert wit.count == len(expect)
        assert wit.violations == tuple(expect[:8])
        assert wit.last_bad == expect[-1][0]
        assert expect  # the growing spikes do violate at this eps

    def test_shrink_form_mirrors_growth_form(self):
        for fam in (harmonic_crisp_family(), crisp_index_family()):
            up = slowly_decreasing_check(fam, 1.0, 0.1, 2.0, 12, 300)
            down = slowly_decreasing_check_shrink(fam, 1.0, 0.1, 0.5, 24, 300)
            assert up.holds and down.holds
        fam = alternating_crisp_family()
        up = slowly_decreasing_check(fam, 1.0, 0.5, 2.0, 12, 300)
        down = slowly_decreasing_check_shrink(fam, 1.0, 0.5, 0.5, 24, 300)
        assert not up.holds and not down.holds

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(["alternating", "triangular_growing", "harmonic",
                                   "square_indicator", "crisp_index",
                                   "left_spread"]),
           lam=st.sampled_from([0.2, 0.5, 0.6667, 0.8, 1.25, 1.6, 2.0, 3.0]),
           eps=st.sampled_from([1e-6, 0.1, 0.5, 3.0]),
           x=st.floats(1.0, 2.0),
           bounds=st.integers(2, 300).flatmap(
               lambda h: st.tuples(st.integers(0, h - 1), st.just(h))))
    def test_blocked_scan_matches_bruteforce(self, family, lam, eps, x, bounds):
        fam = {"alternating": alternating_crisp_family,
               "triangular_growing": triangular_growing_family,
               "harmonic": harmonic_crisp_family,
               "square_indicator": square_indicator_family,
               "crisp_index": crisp_index_family,
               "left_spread": left_spread_family}[family]()
        n0, horizon = bounds
        check = slowly_decreasing_check if lam > 1 else slowly_decreasing_check_shrink
        expect = violating_pairs(fam, x, eps, lam, n0, horizon)
        # 7-entry blocks: short rows share a block, longer ones get their own
        with mock.patch.object(tauberian, "_BLOCK", 7):
            wit = check(fam, x, eps, lam, n0, horizon)
            assert wit.count == len(expect)
            assert wit.violations == tuple(expect[:8])
            assert wit.last_bad == (expect[-1][0] if expect else None)
            assert wit.holds == (not expect)
        # row n's count is the drop from the scan after n - 1 to the one after n
        counts = [check(fam, x, eps, lam, m, horizon).count
                  for m in range(n0, horizon)] + [0]
        for n in range(n0 + 1, horizon + 1):
            row = sum(1 for m, _ in expect if m == n)
            assert counts[n - 1 - n0] - counts[n - n0] == row

    def test_alternating_count_at_scale(self):
        # closed form: every odd n > 10 against each even k in (n, min(2n, 2^14)]
        fam = alternating_crisp_family()
        wit = slowly_decreasing_check(fam, 1.0, 0.5, 2.0, 10, 1 << 14)
        assert wit.count == 16_781_297
        assert wit.last_bad == (1 << 14) - 1
        assert wit.violations == ((11, 12), (11, 14), (11, 16), (11, 18),
                                  (11, 20), (11, 22), (13, 14), (13, 16))

    def test_parameter_validation(self):
        fam = harmonic_crisp_family()
        with pytest.raises(ValueError):
            slowly_decreasing_check(fam, 1.0, 0.1, 1.0, 0, 50)
        with pytest.raises(ValueError):
            slowly_decreasing_check(fam, 1.0, -0.1, 2.0, 0, 50)
        with pytest.raises(ValueError):
            slowly_decreasing_check(fam, 1.0, 0.1, 2.0, 60, 50)
        with pytest.raises(ValueError):
            slowly_decreasing_check_shrink(fam, 1.0, 0.1, 2.0, 0, 50)


class TestDecompositionIdentities:
    @pytest.mark.parametrize("scheme_spec", ["classical", "lacunary:pow2"])
    @pytest.mark.parametrize("lam", [1.5, 2.0])
    def test_dilation_identity_tiny_deviation(self, scheme_spec, lam):
        scheme = parse_scheme_spec(scheme_spec)
        fams = [alternating_crisp_family(), triangular_growing_family(),
                square_indicator_family(1.0)]
        ns = (3, 5, 8) if scheme_spec == "lacunary:pow2" else (4, 16, 128)
        for fam in fams:
            for weights in (constant_weights(1), harmonicplus_weights()):
                for n in ns:
                    dev = dilation_mean_identity(fam, scheme, weights, lam,
                                                 n, 1.5)
                    assert dev <= 1e-9

    @pytest.mark.parametrize("scheme_spec", ["classical", "lacunary:pow2"])
    def test_shrink_identity_tiny_deviation(self, scheme_spec):
        scheme = parse_scheme_spec(scheme_spec)
        fams = [alternating_crisp_family(), triangular_growing_family(),
                square_indicator_family(1.0)]
        ns = (3, 5, 8) if scheme_spec == "lacunary:pow2" else (4, 16, 128)
        # halving a lacunary top empties the window: 2^(n-1) < beta(n)
        lams = (0.75,) if scheme_spec == "lacunary:pow2" else (0.5, 0.75)
        for fam in fams:
            for weights in (constant_weights(1), harmonicplus_weights()):
                for n in ns:
                    for lam in lams:
                        dev = shrink_mean_identity(fam, scheme, weights, lam,
                                                   n, 1.5)
                        assert dev <= 1e-9

    def test_identity_lambda_ranges(self):
        fam = alternating_crisp_family()
        with pytest.raises(ValueError):
            dilation_mean_identity(fam, classical_scheme(), constant_weights(1),
                                   0.5, 8, 1.0)
        with pytest.raises(ValueError):
            shrink_mean_identity(fam, classical_scheme(), constant_weights(1),
                                 2.0, 8, 1.0)
        # at n = 1 the dilated top stays at 1 and the shrunken one drops to 0
        for identity, lam in ((dilation_mean_identity, 1.25),
                              (shrink_mean_identity, 0.8)):
            with pytest.raises(DegenerateWindowError):
                identity(fam, classical_scheme(), constant_weights(1), lam, 1, 1.0)


class TestExperiment:
    def test_harmonic_passes_everything(self):
        exp = tauberian_experiment(
            harmonic_crisp_family(), None, classical_scheme(),
            constant_weights(1), uniform_grid(1, 2, 3), horizon=1 << 17,
            scan_horizon=800)
        assert exp.condition2_holds
        assert exp.slowly_decreasing_holds
        assert exp.summable is True
        assert exp.hypotheses_pass
        assert exp.conclusion_holds is True
        assert exp.sandwich_ok is True
        assert all(c.ok for c in exp.identity_checks)
        # subsequence distance is exactly 1/n on the classical windows
        for n, v in exp.conclusion[0].points:
            assert v == pytest.approx(1.0 / n, rel=1e-12)

    def test_late_n0_is_the_last_violating_row(self):
        # harmonic drops 1/n - 1/k exceed eps = 0.01 only for small n, so
        # the scan restarts its clean tail after the last violating row
        fam, scan = harmonic_crisp_family(), 400
        exp = tauberian_experiment(
            fam, None, classical_scheme(), constant_weights(1),
            uniform_grid(1, 2, 2), horizon=1024, scan_horizon=scan)
        late = [e for e in exp.slow_decrease if e.n0 != 10]
        assert late
        for e in late:
            assert e.holds and e.n0 <= scan // 2
            assert e.n0 == violating_pairs(fam, e.x, e.eps, e.lam, 10, scan)[-1][0]

    def test_alternating_fails_slow_decrease_with_witness(self):
        exp = tauberian_experiment(
            alternating_crisp_family(), None, classical_scheme(),
            constant_weights(1), uniform_grid(1, 2, 3), horizon=4096,
            scan_horizon=400)
        assert not exp.slowly_decreasing_holds
        failed = [e for e in exp.slow_decrease if not e.holds]
        assert failed and failed[0].witness  # explicit (n, k) pairs
        n, k = failed[0].witness[0]
        assert n < k
        # hypothesis failure reported, yet the conclusion was still measured
        assert not exp.hypotheses_pass
        assert exp.conclusion

    def test_constant_family_trivial_pass(self):
        fam = constant_family(2.0, 0.5, 0.5)
        exp = tauberian_experiment(
            fam, None, classical_scheme(), constant_weights(1),
            uniform_grid(1, 2, 3), horizon=2048, scan_horizon=300)
        assert exp.hypotheses_pass
        assert exp.conclusion_holds is True
        for n, v in exp.conclusion[0].points:
            assert v == 0.0

    def test_report_serializes(self):
        import json
        exp = tauberian_experiment(
            harmonic_crisp_family(), None, classical_scheme(),
            constant_weights(1), uniform_grid(1, 2, 2), horizon=1024,
            scan_horizon=200)
        blob = json.dumps(exp.to_dict())
        assert "hypotheses" in blob and "conclusion" in blob

    def test_eps_ladder_validation(self):
        with pytest.raises(ValueError):
            tauberian_experiment(
                harmonic_crisp_family(), None, classical_scheme(),
                constant_weights(1), uniform_grid(1, 2, 2), horizon=256,
                eps_ladder=())
