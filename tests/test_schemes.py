"""Window schemes, weights, totals, dilation, and the ratio conditions."""

import math
import re

import numpy as np
import pytest

from fuzzysumm import (BetaGammaScheme, DegenerateWindowError, HorizonPolicy,
                       WeightSequence, classical_scheme, constant_weights, dilate,
                       harmonicplus_weights, lacunary_scheme, lambda_scheme,
                       parse_family_spec, parse_scheme_spec, parse_weight_spec,
                       power_scheme, ratio_condition, recip5_weights,
                       validate_scheme, weighted_total)
from fuzzysumm import schemes


class TestValidation:
    def test_classical_passes_all_conditions(self):
        v = validate_scheme(classical_scheme(), HorizonPolicy(512))
        assert v.nondecreasing and v.ordered and v.growing and v.ok

    def test_constant_width_fails_growth(self):
        s = BetaGammaScheme(lambda n: n, lambda n: n, "b=g")
        v = validate_scheme(s, HorizonPolicy(512))
        assert v.nondecreasing and v.ordered
        assert not v.growing and not v.ok
        assert "width" in v.detail

    def test_lacunary_pow2_passes(self):
        s = parse_scheme_spec("lacunary:pow2")
        assert validate_scheme(s, HorizonPolicy(24)).ok
        # block boundaries: [2^(r-1)+1, 2^r]
        assert s.window(3) == (5, 8)
        assert s.window(10) == (513, 1024)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError):
            HorizonPolicy(0)
        with pytest.raises(ValueError):
            HorizonPolicy(10, trend_window=10)


class TestWeightedTotal:
    def test_counting_weights(self):
        assert weighted_total(classical_scheme(), constant_weights(1), 7) == 7.0

    def test_recip5_square_windows(self):
        # T = n^2 / 5 at n = 10
        got = weighted_total(power_scheme(2), recip5_weights(), 10)
        assert got == pytest.approx(20.0, abs=1e-9)

    def test_harmonicplus_direct_sum(self):
        # oracle: direct summation of 1 + 1/k over [1, 4]
        expect = sum(1 + 1 / k for k in range(1, 5))
        got = weighted_total(power_scheme(2), harmonicplus_weights(), 2)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(6.083333333333333, rel=1e-12)

    def test_counting_width_identity(self):
        s = parse_scheme_spec("lacunary:pow2")
        w = constant_weights(1)
        for r in (1, 3, 7, 12):
            b, g = s.window(r)
            assert weighted_total(s, w, r) == float(g - b + 1)

    def test_range_additivity(self):
        w = harmonicplus_weights()
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = int(rng.integers(1, 500))
            g = b + int(rng.integers(1, 2000))
            m = int(rng.integers(b, g))
            whole = w.window_total(b, g)
            parts = w.window_total(b, m) + w.window_total(m + 1, g)
            assert whole == pytest.approx(parts, rel=1e-12)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            constant_weights(0)
        with pytest.raises(ValueError):
            parse_weight_spec("const:-2")


class TestPrefixCache:
    @pytest.mark.parametrize("spec", ["recip5", "harmonicplus", "const:0.1"])
    def test_growth_is_bit_identical_to_one_shot_cumsum(self, spec, monkeypatch):
        # every T_n is read from these bytes, so filling the cache chunk by
        # chunk must not move a single bit against prefix[-1] + cumsum
        monkeypatch.setattr(schemes, "_FILL_CHUNK", 7)
        w = parse_weight_spec(spec)
        want = np.zeros(1)
        for k_max in (5, 1500, 3000, 10_000):
            w.ensure(k_max)
            ks = np.arange(len(want), len(w._prefix), dtype=np.int64)
            want = np.concatenate((want, want[-1] + np.cumsum(w.values(ks))))
            assert w._prefix.tobytes() == want.tobytes()

    def test_nonpositive_weight_found_past_first_chunk(self, monkeypatch):
        monkeypatch.setattr(schemes, "_FILL_CHUNK", 7)
        w = WeightSequence(lambda ks: np.where(ks == 500, 0.0, 1.0), "dip")
        with pytest.raises(ValueError, match="t_500"):
            w.ensure(600)
        assert w.prefix(0) == 0.0


class TestDilate:
    def test_identity_factor(self):
        s = classical_scheme()
        d = dilate(s, 1.0)
        for n in (1, 5, 17, 123):
            assert d.gamma(n) == s.gamma(n)
            assert d.beta(n) == s.beta(n)

    def test_floor_semantics(self):
        d = dilate(classical_scheme(), 1.5)
        assert d.gamma(3) == 4  # floor(4.5)
        d2 = dilate(power_scheme(2), 0.3)
        assert d2.gamma(4) == 4  # floor(0.3 * 16)

    def test_collapsed_window_reported(self):
        d = dilate(classical_scheme(), 0.5)
        with pytest.raises(DegenerateWindowError):
            d.window(1)  # floor(0.5) = 0 < beta = 1

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            dilate(classical_scheme(), 0.0)


class TestRatioConditions:
    def test_classical_growth_ratios(self):
        s, w = classical_scheme(), constant_weights(1)
        h = HorizonPolicy(4096)
        est2 = ratio_condition(s, w, 2.0, h, 2)
        assert est2.holds and est2.estimate == pytest.approx(2.0, abs=1e-3)
        est3 = ratio_condition(s, w, 0.5, h, 3)
        assert est3.holds and est3.estimate == pytest.approx(2.0, abs=1e-3)
        est4 = ratio_condition(s, w, 2.0, h, 4)
        assert est4.holds and est4.estimate == pytest.approx(2.0, abs=1e-3)
        est5 = ratio_condition(s, w, 0.5, h, 5)
        assert est5.holds and math.isfinite(est5.estimate)

    def test_lambda_range_enforced(self):
        s, w = classical_scheme(), constant_weights(1)
        h = HorizonPolicy(256)
        with pytest.raises(ValueError):
            ratio_condition(s, w, 0.5, h, 2)
        with pytest.raises(ValueError):
            ratio_condition(s, w, 2.0, h, 3)
        with pytest.raises(ValueError):
            ratio_condition(s, w, 2.0, h, 7)

    def test_degenerate_gap_reported(self):
        # factor so close to 1 the dilated top never moves on a short horizon
        s, w = classical_scheme(), constant_weights(1)
        with pytest.raises(DegenerateWindowError):
            ratio_condition(s, w, 1.001, HorizonPolicy(64), 4)

    @pytest.mark.parametrize("spec", ["classical", "pow:2", "lacunary:pow2"])
    @pytest.mark.parametrize("wspec", ["const:1", "harmonicplus"])
    def test_growth_conditions_equivalent(self, spec, wspec):
        # liminf form for factors above 1 agrees with the form below 1
        scheme = parse_scheme_spec(spec)
        weights = parse_weight_spec(wspec)
        n_max = {"classical": 2048, "pow:2": 160, "lacunary:pow2": 14}[spec]
        h = HorizonPolicy(n_max)
        up = [ratio_condition(scheme, weights, lam, h, 2).holds
              for lam in (1.25, 1.5, 2.0, 3.0)]
        down = [ratio_condition(scheme, weights, lam, h, 3).holds
                for lam in (0.8, 0.67, 0.5, 0.33)]
        assert all(up) == all(down)
        assert all(up)

    @pytest.mark.parametrize("spec", ["classical", "pow:2", "lacunary:pow2"])
    def test_gap_conditions_follow(self, spec):
        # finite gap estimates, consistent with 1/(1 - 1/liminf)
        scheme = parse_scheme_spec(spec)
        weights = constant_weights(1)
        n_max = {"classical": 2048, "pow:2": 160, "lacunary:pow2": 14}[spec]
        h = HorizonPolicy(n_max)
        for lam in (1.5, 2.0):
            lim2 = ratio_condition(scheme, weights, lam, h, 2)
            lim4 = ratio_condition(scheme, weights, lam, h, 4)
            assert lim4.holds
            assert lim4.estimate <= 1.0 / (1.0 - 1.0 / lim2.estimate) + 1e-9
        for lam in (0.5, 0.67):
            assert ratio_condition(scheme, weights, lam, h, 5).holds


class TestBuiltinsAndSpecs:
    def test_classical_windows(self):
        s = parse_scheme_spec("classical")
        assert s.window(1) == (1, 1)
        assert s.window(9) == (1, 9)

    def test_lambda_identity_degenerates_to_classical(self):
        s = parse_scheme_spec("lambda:n")
        for n in (1, 2, 17, 300):
            assert s.window(n) == (1, n)

    def test_lambda_half_is_trailing_half_window(self):
        s = parse_scheme_spec("lambda:half")
        assert s.window(10) == (6, 10)
        assert validate_scheme(s, HorizonPolicy(512)).ok

    def test_lambda_side_conditions_named(self):
        with pytest.raises(ValueError, match="start at 1"):
            lambda_scheme(lambda n: n + 1, "bad", check_horizon=64)
        with pytest.raises(ValueError, match="at most 1"):
            lambda_scheme(lambda n: 1 if n == 1 else 2 * n, "bad", check_horizon=64)
        with pytest.raises(ValueError, match="non-decreasing"):
            lambda_scheme(lambda n: 2 if n == 2 else 1, "bad", check_horizon=64)
        with pytest.raises(ValueError, match="infinity"):
            lambda_scheme(lambda n: 1, "bad", check_horizon=64)

    def test_lacunary_side_conditions_named(self):
        with pytest.raises(ValueError, match="k_0 = 0"):
            lacunary_scheme(lambda r: r + 1, "bad")
        with pytest.raises(ValueError, match="strictly increasing"):
            lacunary_scheme(lambda r: 0 if r == 0 else 5, "bad")

    def test_scheme_file_roundtrip(self, tmp_path):
        path = tmp_path / "scheme.txt"
        path.write_text("# beta gamma per row\n1 2\n1 4\n2 8\n")
        s = parse_scheme_spec(f"file:{path}")
        assert s.window(1) == (1, 2)
        assert s.window(3) == (2, 8)
        with pytest.raises(ValueError, match="ends at"):
            s.window(4)

    def test_weight_file_roundtrip(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0.5\n1.5\n2.5\n")
        w = parse_weight_spec(f"file:{path}")
        assert w.window_total(1, 3) == pytest.approx(4.5)
        with pytest.raises(ValueError, match="ends at"):
            w.window_total(1, 4)

    @pytest.mark.parametrize("parse, text, where", [
        (parse_scheme_spec, "1 2\n1 4 8\n", ":2: 3 entries, expected 2"),
        (parse_scheme_spec, "1 2\n# n=2\n1 x\n", ":3: invalid literal"),
        (parse_scheme_spec, "# beta gamma\n\n", ": empty table"),
        (parse_weight_spec, "0.5\n1.5, 2.5\n", ":2: 2 entries, expected 1"),
        (parse_weight_spec, "0.5\nheavy\n", ":2: could not convert"),
        (parse_weight_spec, "", ": empty table"),
        (parse_family_spec, "1 0.0 1.0\n2 3.5\n", ":2: 2 entries, expected 3"),
        (parse_family_spec, "1 0.0 1.0\n2.5 0.0 1.0\n", ":2: invalid literal"),
        (parse_family_spec, "# k center spread\n", ": empty table"),
    ])
    def test_table_errors_name_path_and_line(self, tmp_path, parse, text, where):
        path = tmp_path / "table.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{where}")):
            parse(f"file:{path}")

    def test_unknown_tokens_named(self):
        with pytest.raises(ValueError, match="nope"):
            parse_scheme_spec("nope")
        with pytest.raises(ValueError, match="wat"):
            parse_weight_spec("wat")
