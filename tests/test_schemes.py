"""Window schemes, weights, totals, dilation, and the ratio conditions."""

import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzysumm import (BetaGammaScheme, DegenerateWindowError, WeightSequence,
                       classical_scheme, constant_weights, dilate,
                       harmonicplus_weights, lacunary_scheme, ladder,
                       lambda_scheme, parse_family_spec, parse_scheme_spec,
                       parse_weight_spec, power_scheme, ratio_condition,
                       recip5_weights, validate_scheme, weighted_total)
from fuzzysumm import schemes
from fuzzysumm.schemes import unique_ints

INT64 = st.integers(-(1 << 63), (1 << 63) - 1)


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.one_of(st.integers(-3, 3), INT64), max_size=30),
       b=st.lists(st.one_of(st.integers(-3, 3), INT64), max_size=30))
@example(a=[], b=[])
@example(a=[7], b=[])
@example(a=[-(1 << 63), (1 << 63) - 1, -(1 << 63), 0, -1, 0],
         b=[(1 << 63) - 1, -(1 << 63)])
def test_unique_ints_is_np_unique(a, b):
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    for got, want in ((unique_ints(a), np.unique(a)),
                      (unique_ints(np.append(a, b)), np.union1d(a, b))):
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()


@pytest.fixture(scope="module")
def weight_table(tmp_path_factory):
    """A 5,000-row ``file:`` weight table and its values."""
    values = np.random.default_rng(11).uniform(0.01, 3.0, 5000)
    path = tmp_path_factory.mktemp("weights") / "w.txt"
    path.write_text("\n".join(map(repr, values.tolist())))
    return f"file:{path}", values


def table_or_hand_built(kind, spec, values):
    """The weights of a ``file:`` table, or a hand-built sequence of them."""
    if kind == "file":
        return parse_weight_spec(spec)
    return WeightSequence(lambda ks: values[ks - 1], "hand-built")


@settings(max_examples=200, deadline=None)
@given(cuts=st.lists(st.integers(0, 60), min_size=1, max_size=10),
       spec=st.sampled_from(["harmonicplus", "const:0.7", "hand-built"]))
@example(cuts=[0, 7, 14, 21, 35, 36], spec="hand-built").via("cuts on chunk ends")
@example(cuts=[0, 7, 14, 21, 35, 36], spec="harmonicplus").via("the same, closed")
@example(cuts=[5, 6], spec="const:0.7").via("a one-index walk")
@example(cuts=[3], spec="hand-built").via("an empty walk")
@example(cuts=[3], spec="harmonicplus").via("an empty closed-form walk")
def test_chunk_pieces_are_the_piece_sums(cuts, spec):
    # 7-index chunks: each chunk's starts give its pieces' first indices,
    # and no yielded end is a view that keeps a chunk's indices alive.  A
    # walked sequence's pieces end where the walk's do; a closed form's
    # end only at the cuts, each the fsum of the walk's pieces over it
    cuts = unique_ints(cuts)
    w = (WeightSequence(lambda ks: 1.0 + 1.0 / ks, "hand-built")
         if spec == "hand-built" else parse_weight_spec(spec))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "_CHUNK", 7)
        walked = list(w.chunks(cuts))
        ends, sums = w.piece_sums(cuts)
    lasts = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [last for *_, last in walked])
    if w.sums is None:
        assert lasts.dtype == np.int64 and lasts.tolist() == ends.tolist()
    else:
        assert ends.dtype == np.int64 and ends.tolist() == cuts[1:].tolist()
        pieces = np.concatenate([np.zeros(0)] + [
            np.add.reduceat(t, starts) for _, t, starts, _ in walked]).tolist()
        edges = np.searchsorted(lasts, cuts, "right").tolist()
        for got, a, b in zip(sums.tolist(), edges, edges[1:]):
            want = math.fsum(pieces[a:b])
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    firsts = (np.append(cuts[0], lasts)[:-1] + 1).tolist()
    assert np.concatenate([np.zeros(0, dtype=np.int64)] + [
        starts + ks[0] for ks, _, starts, _ in walked]).tolist() == firsts
    for ks, t, starts, last in walked:
        assert last.base is None
        assert ks.tolist() == list(range(int(ks[0]), int(last[-1]) + 1))
        assert len(ks) <= 7 and t.tolist() == w.values(ks).tolist()
    assert sum(map(len, (ks for ks, *_ in walked))) == cuts[-1] - cuts[0]


def test_single_window_total_matches_ladder_total():
    # recip5 on classical: walked, the ladder's rungs (then 1, 2, 4, ...,
    # 32, 45; now 1, 2, 5, 11, 22, 45) split [1, 45] into pieces that
    # summed to 9.000000000000002 and the window alone to
    # 8.999999999999996; the closed form gives 9.0 to both
    scheme, weights = classical_scheme(), recip5_weights()
    windows = [scheme.window(n) for n in ladder(45)]
    in_ladder = weights.window_totals(*zip(*windows))[-1]
    assert in_ladder == weights.window_total(1, 45)


class TestExactTotals:
    def test_decimal_constant_is_not_its_binary_float(self):
        # the float 0.7 lies below 7/10: taken exactly, ten of it total
        # 7 - 2**-51, which floors to 6
        total = parse_weight_spec("const:0.7").window_total(1, 10)
        assert total == 7.0
        assert math.floor(total) == 7

    @settings(max_examples=100, deadline=None)
    @given(c=st.one_of(st.just(None), st.floats(1e-6, 1e6)),
           windows=st.lists(st.tuples(st.integers(1, 1 << 26),
                                      st.integers(0, 1 << 26)),
                            min_size=1, max_size=6))
    @example(c=None, windows=[(1, 44), (1, 0), (1, 31)])  # recip5, n=45 ladder
    @example(c=0.1, windows=[(1, 9), (1, 29)])
    def test_totals_are_exact_and_alone(self, c, windows):
        # c None stands for recip5; a window is (lo, width - 1)
        spec = "recip5" if c is None else f"const:{c!r}"
        weight = Fraction(1, 5) if c is None else Fraction(repr(c))
        w = parse_weight_spec(spec)
        los = [lo for lo, _ in windows]
        his = [lo + d for lo, d in windows]
        together = w.window_totals(los, his)
        for lo, hi, total in zip(los, his, together):
            assert total == w.window_total(lo, hi)
            assert total == float(weight * (hi - lo + 1))

    @pytest.mark.parametrize("ratio, widths", [
        # p*w at 2**53 divides in floats, and one past it in ints: as a
        # float, 2**53 + 1 would round to 2**53 before the division
        ((1, 3), [2 ** 53, 2 ** 53 + 1]),
        ((1 << 20, 3), [2 ** 33, 2 ** 33 + 1]),
        ((7, 10), [2 ** 53 // 7, 2 ** 53 // 7 + 1]),
        # 17 digits: q = 10**17 is past 2**53
        ("0.12345678901234568", [1, 3, 10 ** 6, 2 ** 40 + 1]),
        # q = 10**23 has no exact float, though every p*w here does
        ("1e-23", [1, 3, 7, 10 ** 6, 2 ** 40 + 1]),
        ("1e20", [1, 3, 2 ** 40 + 1]),
    ])
    def test_ratio_totals_are_int_true_divisions(self, ratio, widths):
        p, q = (ratio if isinstance(ratio, tuple)
                else schemes._decimal_ratio(float(ratio)))
        g = np.array(widths, dtype=np.int64)
        for i in range(len(widths)):  # each width alone, then all together
            for at in (slice(i, i + 1), slice(None)):
                got = schemes._ratio_sums(p, q)(np.zeros_like(g[at]), g[at], True)
                assert got.tolist() == [p * w / q for w in widths[at]]

    @pytest.mark.parametrize("kind", ["file", "hand-built"])
    @settings(max_examples=100, deadline=None)
    @given(windows=st.lists(st.tuples(st.integers(1, 5000), st.integers(0, 600)),
                            min_size=1, max_size=7))
    def test_table_totals_are_fsums_and_alone(self, weight_table, kind, windows):
        # a walk cut its pieces at every window end of the call, so most
        # windows once totalled differently alone and in a 7-window call
        spec, values = weight_table
        w = table_or_hand_built(kind, spec, values)
        los = [lo for lo, _ in windows]
        his = [min(lo + d, 5000) for lo, d in windows]
        together = w.window_totals(los, his)
        for lo, hi, total in zip(los, his, together):
            assert total == w.window_total(lo, hi)
            assert total == math.fsum(values[lo - 1:hi].tolist())

    # harmonicplus windows as (lo, width - 1), short ones summed term by term
    HARMONIC_WINDOWS = st.lists(
        st.tuples(st.integers(1, 1 << 26),
                  st.one_of(st.integers(0, 100), st.integers(0, 1 << 26))),
        min_size=1, max_size=6)

    @settings(max_examples=100, deadline=None)
    @given(windows=HARMONIC_WINDOWS)
    @example(windows=[(1, 0), (1, 44), (1, 64), (2, 64), (64, 64), (65, 64),
                      (2**15 + 1, 2**15 - 1)])
    def test_harmonicplus_totals_alone(self, windows):
        w = harmonicplus_weights()
        los = [lo for lo, _ in windows]
        his = [lo + d for lo, d in windows]
        together = w.window_totals(los, his)
        for lo, hi, total in zip(los, his, together):
            assert total == w.window_total(lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(windows=HARMONIC_WINDOWS)
    @example(windows=[(1, 0), (1, 64), (1, (1 << 27) - 1), (63, 1 << 26),
                      (64, 1 << 26), ((1 << 27) - 65, 64)])
    def test_harmonicplus_totals_within_2_ulp(self, windows):
        mpmath = pytest.importorskip("mpmath")
        w = harmonicplus_weights()
        los = [lo for lo, _ in windows]
        his = [lo + d for lo, d in windows]
        with mpmath.workdps(40):
            for lo, hi, total in zip(los, his, w.window_totals(los, his)):
                exact = (hi - lo + 1 + mpmath.harmonic(hi)
                         - mpmath.harmonic(lo - 1))
                assert abs(mpmath.mpf(total) - exact) <= 2 * math.ulp(float(exact))

    def test_harmonicplus_term_by_term_floors(self):
        # windows of up to 64 indices are summed term by term and never
        # refused: up to g = 300 their floors are those of exact fractions,
        # and past it H_g - H_{b-1} lies in [1/g, 0.28], far from an integer
        harmonic = [Fraction(0)]
        for k in range(1, 301):
            harmonic.append(harmonic[-1] + Fraction(1, k))
        windows = [(b, g) for g in range(1, 301)
                   for b in range(max(1, g - 63), g + 1)]
        got = harmonicplus_weights().window_totals(*zip(*windows))
        for (b, g), total in zip(windows, got):
            exact = g - b + 1 + harmonic[g] - harmonic[b - 1]
            assert math.floor(total) == math.floor(exact)
            assert abs(Fraction(total) - exact) <= schemes._HARMONIC_ERR * exact

    @settings(max_examples=10, deadline=None)
    @given(a=st.integers(3_400_000, 6_600_000))
    @example(a=0)  # H_g crosses 19 near g = 1.0e8
    def test_harmonicplus_total_near_an_integer_named(self, a):
        # H_g - H_a crosses an integer once for g in [2^26, 2^27] (near
        # e^3 * a for these a), in steps of 1/g below an ulp of the total:
        # the total nearest an integer is within its error bound of it
        w = harmonicplus_weights()
        coarse = np.arange(1 << 26, (1 << 27) + 1, 4096)
        frac = w.sums(np.full(len(coarse), a), coarse, False) - (coarse - a)
        j = np.flatnonzero(np.diff(np.floor(frac)))[0]
        fine = np.arange(coarse[j], coarse[j + 1] + 1)
        totals = w.sums(np.full(len(fine), a), fine, False)
        g = int(fine[np.argmin(np.abs(totals - np.rint(totals)))])
        with pytest.raises(ValueError, match=rf"harmonicplus: the total .* over "
                                             rf"\[{a + 1}, {g}\] lies within its "
                                             "error bound of an integer"):
            w.window_totals([a + 1, a + 1], [g - 4096, g])

    @pytest.mark.parametrize("spec, label", [
        ("const:1", "const:1"), ("const:0.1", "const:0.1"),
        ("const:1e6", "const:1e+06"),
        # six digits would name both of these const:0.123457
        ("const:0.1234567", "const:0.1234567"),
        ("const:0.12345678", "const:0.12345678"),
    ])
    def test_constant_label_names_the_weight(self, spec, label):
        assert parse_weight_spec(spec).label == label

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(1e-300, 1e300))
    def test_constant_label_round_trips(self, c):
        assert float(constant_weights(c).label[6:]) == c

    @pytest.mark.parametrize("spec", ["const:inf", "const:nan"])
    def test_constant_must_be_finite(self, spec):
        with pytest.raises(ValueError, match=r"^constant weight must lie in "
                                             r"\(0, inf\), got (inf|nan)$"):
            parse_weight_spec(spec)

    def test_overflowing_constant_total_named(self):
        w = parse_weight_spec("const:1e308")
        assert w.window_total(1, 1) == 1e308
        with pytest.raises(ValueError, match=r"const:1e\+308: a window total "
                                             "overflows a float"):
            w.window_total(1, 64)

    def test_overflowing_table_total_named(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1e308\n" * 4)
        w = parse_weight_spec(f"file:{path}")
        assert w.window_total(2, 2) == 1e308
        with pytest.raises(ValueError, match="w.txt: a window total overflows"):
            w.window_total(1, 4)


class TestValidation:
    def test_classical_passes_all_conditions(self):
        v = validate_scheme(classical_scheme(), 512)
        assert v.nondecreasing and v.ordered and v.growing and v.ok

    def test_constant_width_fails_growth(self):
        s = BetaGammaScheme(lambda n: n, lambda n: n, "b=g")
        v = validate_scheme(s, 512)
        assert v.nondecreasing and v.ordered
        assert not v.growing and not v.ok
        assert "width" in v.detail

    def test_lacunary_pow2_passes(self):
        s = parse_scheme_spec("lacunary:pow2")
        assert validate_scheme(s, 24).ok
        # block boundaries: [2^(r-1)+1, 2^r]
        assert s.window(3) == (5, 8)
        assert s.window(10) == (513, 1024)

    @pytest.mark.parametrize("beta, gamma, note", [
        (lambda n: 1 + (n == 3), lambda n: n + 5, "an index map decreases"),
        (lambda n: 1, lambda n: 5 - n, "an index map decreases; "
                                       "gamma < beta or beta < 1 at some n"),
        (lambda n: n - 1, lambda n: 2 * n, "gamma < beta or beta < 1 at some n"),
    ])
    def test_failure_notes(self, beta, gamma, note):
        v = validate_scheme(BetaGammaScheme(beta, gamma, "bad"), 64)
        assert not v.ok
        assert v.detail.startswith(note)

    @pytest.mark.parametrize("b", [0, -3])
    def test_window_below_one_refused(self, b):
        scheme = BetaGammaScheme(lambda n: b, lambda n: n, "low")
        with pytest.raises(DegenerateWindowError,
                           match=rf"^low: beta\(4\) = {b} < 1$"):
            scheme.window(4)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            validate_scheme(classical_scheme(), 0)
        with pytest.raises(ValueError, match="at least 2"):
            ratio_condition(classical_scheme(), constant_weights(1), 2.0, 1, 2)

    def test_horizon_past_the_budget_refused_first(self):
        # refused before np.arange builds the range of n; the cap itself
        # passes the check and reaches the first array
        late = AssertionError("an array was built before the refusal")
        cap = schemes._MAX_INDEX
        for check in (lambda n: validate_scheme(classical_scheme(), n),
                      lambda n: ratio_condition(classical_scheme(),
                                                constant_weights(1), 2.0, n, 2)):
            for n_max, refused in ((cap + 1, ValueError), (cap, AssertionError)):
                with mock.patch.object(np, "arange", side_effect=late), \
                        pytest.raises(refused) as err:
                    check(n_max)
                if refused is ValueError:
                    assert str(err.value) == (f"horizon n_max={cap + 1} exceeds "
                                              f"the budget of {cap} indices")


def test_index_named_in_full_below_1e20():
    assert schemes.index_text(10 ** 20 - 1) == "99999999999999999999"
    assert schemes.index_text(10 ** 20) == "2^66.44"
    assert schemes.index_text(1 << 16384) == "2^16384.00"


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


class TestWindowTotals:
    @pytest.mark.parametrize("spec", ["const:0.1", "recip5", "harmonicplus",
                                      "file"])
    def test_matches_fsum_across_chunk_edges(self, spec, tmp_path, monkeypatch):
        # 7-index chunks put chunk edges inside nearly every window
        monkeypatch.setattr(schemes, "_CHUNK", 7)
        if spec == "file":
            rng = np.random.default_rng(5)
            path = tmp_path / "w.txt"
            values = rng.uniform(0.01, 3.0, 400).tolist()
            path.write_text("\n".join(map(repr, values)))
            spec = f"file:{path}"
        w = parse_weight_spec(spec)
        windows = ([(1, 400), (10, 390), (150, 250), (200, 200)]      # nested
                   + [(k, k + 40) for k in range(1, 360, 17)]          # sliding
                   + [(7 * j + d, 7 * j + 30 + e) for j in (1, 20, 50)  # chunk edges
                      for d in (-1, 0, 1) for e in (-1, 0, 1)])
        los, his = zip(*windows)
        got = w.window_totals(los, his)
        for (lo, hi), total in zip(windows, got):
            want = math.fsum(w.values(np.arange(lo, hi + 1)))
            assert total == pytest.approx(want, rel=1e-12)
            assert w.window_total(lo, hi) == pytest.approx(want, rel=1e-12)

    def test_table_piece_sums_are_the_walks(self, weight_table, monkeypatch):
        monkeypatch.setattr(schemes, "_CHUNK", 61)
        table = parse_weight_spec(weight_table[0])
        walked = WeightSequence(table.values, "walked")
        cuts = np.array([3, 40, 41, 500, 1234, 4999])
        for got, want in zip(table.piece_sums(cuts), walked.piece_sums(cuts)):
            assert got.tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.floats(5e-324, 1e306), min_size=1, max_size=60),
           windows=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)),
                            min_size=1, max_size=6))
    @example(rows=[5e-324, 1e306, 2.0 ** -1022, 1.0, 1e-300, 3.0, 1e306],
             windows=[(0, 59), (1, 0), (2, 2), (0, 0)])
    def test_table_totals_exact_for_any_floats(self, rows, windows):
        # rows from the smallest subnormal to near the float range, in
        # 7-row chunks, cross every band and chunk edge of the exact pass
        n = len(rows)
        a = [min(lo, n - 1) for lo, _ in windows]
        g = [min(lo + 1 + d, n) for lo, (_, d) in zip(a, windows)]
        table = np.array(rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schemes, "_CHUNK", 7)
            got = WeightSequence(lambda ks: table[ks - 1], "t").window_totals(
                np.array(a) + 1, g)
        for lo, hi, total in zip(a, g, got):
            assert total == math.fsum(rows[lo:hi])

    def test_table_totals_pass_over_the_span_once(self, weight_table, monkeypatch):
        # nested windows [1, n], as ratio_condition asks for: one pass over
        # (0, 2000] for all of them, not one per window
        seen, exact = [], schemes._exact_piece_sums
        monkeypatch.setattr(schemes, "_exact_piece_sums",
                            lambda t, *rest: seen.append(len(t)) or exact(t, *rest))
        w = parse_weight_spec(weight_table[0])
        tops = np.arange(1000, 2001)
        totals = w.window_totals(np.ones_like(tops), tops)
        assert sum(seen) == 2000
        assert totals[-1] == math.fsum(weight_table[1][:2000].tolist())

    @pytest.mark.parametrize("kind", ["file", "hand-built"])
    def test_table_weight_checked_only_inside_the_windows(self, tmp_path, kind):
        path = tmp_path / "w.txt"
        path.write_text("1\n1\n1\nnan\n1\n0\n")
        w = table_or_hand_built(kind, f"file:{path}",
                                np.array([1, 1, 1, math.nan, 1, 0]))
        assert w.window_totals([1, 5], [3, 5]).tolist() == [3.0, 1.0]
        with pytest.raises(ValueError, match="t_4 is not a finite positive"):
            w.window_totals([5, 1], [6, 5])

    def test_total_does_not_depend_on_request_order(self):
        # lacunary:pow2 at n = 16: the base window and its dilation by 1.25,
        # whose identity value once moved when the dilated total came first
        w = harmonicplus_weights()
        base, moved = (2**15 + 1, 2**16), (2**15 + 1, math.floor(1.25 * 2**16))
        first = [w.window_total(*base), w.window_total(*moved)]
        fresh = harmonicplus_weights()
        second = [fresh.window_total(*moved), fresh.window_total(*base)][::-1]
        assert first == second
        both = w.window_totals((base[0], moved[0]), (base[1], moved[1]))
        swapped = w.window_totals((moved[0], base[0]), (moved[1], base[1]))
        assert both.tolist() == swapped[::-1].tolist()

    def test_nonpositive_weight_found_past_first_chunk(self, monkeypatch):
        monkeypatch.setattr(schemes, "_CHUNK", 7)
        w = WeightSequence(lambda ks: np.where(ks == 500, 0.0, 1.0), "dip")
        with pytest.raises(ValueError, match="t_500"):
            w.window_total(1, 600)
        assert w.window_total(1, 499) == 499.0

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_table_weight_named(self, tmp_path, bad):
        path = tmp_path / "w.txt"
        path.write_text(f"1\n{bad}\n1\n1\n")
        w = parse_weight_spec(f"file:{path}")
        assert w.window_total(3, 4) == 2.0
        with pytest.raises(ValueError, match="t_2 is not a finite positive"):
            w.window_total(1, 4)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-1.5"])
    @pytest.mark.parametrize("k", [10, 14])  # mid-chunk, a chunk's last index
    def test_bad_table_weight_named_in_its_chunk(self, tmp_path, monkeypatch,
                                                 bad, k):
        monkeypatch.setattr(schemes, "_CHUNK", 7)  # chunks (0, 7], (7, 14], ...
        rows = ["1"] * 30
        rows[k - 1] = bad
        rows[k + 1] = "0"  # a later bad weight is not the one named
        path = tmp_path / "w.txt"
        path.write_text("\n".join(rows))
        w = parse_weight_spec(f"file:{path}")
        assert w.window_total(1, k - 1) == k - 1
        with pytest.raises(ValueError, match=rf"w\.txt: weight t_{k} is not a "
                                             "finite positive number$"):
            w.window_total(1, 30)


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

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_rejects_nonfinite_factor(self, lam):
        # an infinite factor once failed only at window time, OverflowError
        with pytest.raises(ValueError, match=r"^lam must lie in \(0, inf\), got "):
            dilate(classical_scheme(), lam)


class TestRatioConditions:
    def test_classical_growth_ratios(self):
        s, w = classical_scheme(), constant_weights(1)
        h = 4096
        est2 = ratio_condition(s, w, 2.0, h, 2)
        assert est2.holds and est2.estimate == pytest.approx(2.0, abs=1e-3)
        est3 = ratio_condition(s, w, 0.5, h, 3)
        assert est3.holds and est3.estimate == pytest.approx(2.0, abs=1e-3)
        est4 = ratio_condition(s, w, 2.0, h, 4)
        assert est4.holds and est4.estimate == pytest.approx(2.0, abs=1e-3)
        est5 = ratio_condition(s, w, 0.5, h, 5)
        assert est5.holds and math.isfinite(est5.estimate)

    @pytest.mark.parametrize("lam, which, match", [
        # once estimate 0.0 and "fails", with only a cast warning
        (1e18, 2, "const:1: a walk .* exceeds the budget"),
        # inf was blamed on a walk up to k=4611686018427387904
        (math.inf, 2, r"^lam must lie in \(1, inf\), got inf$"),
        (math.nan, 2, r"^lam must lie in \(1, inf\), got nan$"),
        (math.nan, 3, r"^lam must lie in \(0, 1\), got nan$"),
    ])
    def test_huge_or_nan_factor_refused_by_name(self, lam, which, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                ratio_condition(classical_scheme(), constant_weights(1), lam,
                                256, which)

    def test_lambda_range_enforced(self):
        s, w = classical_scheme(), constant_weights(1)
        h = 256
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
            ratio_condition(s, w, 1.001, 64, 4)

    @pytest.mark.parametrize("spec", ["classical", "pow:2", "lacunary:pow2"])
    @pytest.mark.parametrize("wspec", ["const:1", "harmonicplus"])
    def test_growth_conditions_equivalent(self, spec, wspec):
        # liminf form for factors above 1 agrees with the form below 1
        scheme = parse_scheme_spec(spec)
        weights = parse_weight_spec(wspec)
        n_max = {"classical": 2048, "pow:2": 160, "lacunary:pow2": 14}[spec]
        h = n_max
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
        h = n_max
        for lam in (1.5, 2.0):
            lim2 = ratio_condition(scheme, weights, lam, h, 2)
            lim4 = ratio_condition(scheme, weights, lam, h, 4)
            assert lim4.holds
            assert lim4.estimate <= 1.0 / (1.0 - 1.0 / lim2.estimate) + 1e-9
        for lam in (0.5, 0.67):
            assert ratio_condition(scheme, weights, lam, h, 5).holds

    @pytest.mark.parametrize("which, lams", [(2, (1.25, 1.5, 2.0)),
                                             (3, (0.8, 0.5, 0.2)),
                                             (4, (1.5, 2.0)), (5, (0.8, 0.5))])
    @pytest.mark.parametrize("spec", ["classical", "pow:2", "lambda:half"])
    @pytest.mark.parametrize("wspec", ["const:0.7", "harmonicplus", "file"])
    def test_batch_is_the_one_lam_calls(self, weight_table, which, lams, spec,
                                        wspec):
        # the index arrays are mapped once for every lam, and each estimate
        # is its one-lam call's, bit for bit
        base = parse_scheme_spec(spec)
        mapped = []
        scheme = BetaGammaScheme(lambda n: mapped.append(n) or base.beta(n),
                                 base.gamma, base.label)
        weights = parse_weight_spec(weight_table[0] if wspec == "file" else wspec)
        batch = schemes._ratio_conditions(scheme, weights, lams, 32, which)
        assert mapped == list(range(16, 33))
        assert batch == [ratio_condition(base, weights, lam, 32, which)
                         for lam in lams]


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
        assert validate_scheme(s, 512).ok

    def test_lambda_side_conditions_named(self):
        with pytest.raises(ValueError, match="start at 1"):
            lambda_scheme(lambda n: n + 1, "bad")
        with pytest.raises(ValueError, match="at most 1"):
            lambda_scheme(lambda n: 1 if n == 1 else 2 * n, "bad")
        with pytest.raises(ValueError, match="non-decreasing"):
            lambda_scheme(lambda n: 2 if n == 2 else 1, "bad")
        with pytest.raises(ValueError, match="infinity"):
            lambda_scheme(lambda n: 1, "bad")

    @pytest.mark.parametrize("lengths, named", [
        # a drop at step 3 before a jump at step 5, and the other way round
        ([1, 2, 3, 2, 3, 5], "must be non-decreasing"),
        ([1, 2, 4, 5, 3], "may grow by at most 1 per step"),
        # lengths past int64 (a float array) and past float64 (an object
        # array) after the first bad step
        ([1, 0, 2 ** 63], "must be non-decreasing"),
        ([1, 2, 1, 10 ** 400], "must be non-decreasing"),
        ([1, 2, 2 ** 63, 0], "may grow by at most 1 per step"),
        ([1, 2, -10 ** 400, 2], "must be non-decreasing"),
    ])
    def test_lambda_first_bad_step_named(self, lengths, named):
        # past the list the lengths follow n, which is a jump or a drop too
        def lam(n):
            return lengths[n - 1] if n <= len(lengths) else n

        with pytest.raises(ValueError, match=f"^lambda sequence {named}$"):
            lambda_scheme(lam, "bad")

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

    @pytest.mark.parametrize("spec", ["const:1", "recip5", "harmonicplus",
                                      "file"])
    def test_weight_index_below_one_refused(self, spec, tmp_path):
        # a 2-row table once wrapped: value(0) gave the last row
        if spec == "file":
            path = tmp_path / "w.txt"
            path.write_text("0.5\n1.5\n")
            spec = f"file:{path}"
        w = parse_weight_spec(spec)
        with pytest.raises(ValueError, match="k=0 is below 1"):
            w.value(0)
        with pytest.raises(ValueError, match="k=-1 is below 1"):
            w.values(np.array([2, -1], dtype=np.int64))
        # the sparse path's piece sums, walked or not
        with pytest.raises(ValueError, match="k=0 is below 1"):
            w.piece_sums(np.array([-1, 2], dtype=np.int64))

    def test_weight_table_values_on_empty_and_past_end(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0.5\n1.5\n")
        w = parse_weight_spec(f"file:{path}")
        assert w.values(np.zeros(0, dtype=np.int64)).shape == (0,)
        with pytest.raises(ValueError, match="ends at k=2"):
            w.values(np.array([1, 3], dtype=np.int64))

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

    def test_weight_table_parse_memory(self, tmp_path):
        # one tuple per row once held 120 bytes per row at the peak
        rows = 100_000
        path = tmp_path / "w.txt"
        values = np.random.default_rng(3).uniform(0.01, 3.0, rows)
        path.write_text("\n".join(map(repr, values.tolist())))
        tracemalloc.start()
        try:
            w = parse_weight_spec(f"file:{path}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * rows
        assert w.values(np.array([1, rows])).tolist() == [values[0], values[-1]]

    def test_unknown_tokens_named(self):
        with pytest.raises(ValueError, match="nope"):
            parse_scheme_spec("nope")
        with pytest.raises(ValueError, match="wat"):
            parse_weight_spec("wat")
