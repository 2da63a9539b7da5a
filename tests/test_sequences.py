"""Built-in families, profile/value consistency, and boundedness."""

import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import squares_upto

from fuzzysumm import (add_families, alternating_crisp_family, classical_scheme,
                       classify, constant_family, constant_weights, crisp,
                       cube_decaying_family, distance,
                       harmonic_crisp_family, harmonicplus_weights, is_bounded,
                       is_cube, is_square,
                       parse_family_spec, scale_family, slowly_decreasing_check,
                       square_indicator_family, tauberian_experiment,
                       triangular, triangular_growing_family,
                       triangular_profile_distance,
                       truncated_square_indicator_family, uniform_grid, zero)
from fuzzysumm import schemes
from fuzzysumm import tauberian
from fuzzysumm.sequences import (FuzzyFunctionSequence, XGridPolicy,
                                 crisp_index_family, int_cbrt, int_sqrt)


class TestIntegerRoots:
    def test_exact_on_perfect_powers(self):
        ks = np.array([1, 4, 9, 2**40, (3**13) ** 2], dtype=np.int64)
        assert np.all(is_square(ks))
        ks = np.array([1, 8, 27, 10**15, (7**5) ** 3], dtype=np.int64)
        assert np.all(is_cube(ks))

    def test_near_misses_rejected(self):
        base = np.array([10**7, 2**26], dtype=np.int64)
        assert not np.any(is_square(base * base + 1))
        assert not np.any(is_square(base * base - 1))
        c = np.array([10**5, 2**17], dtype=np.int64)
        assert not np.any(is_cube(c**3 + 1))
        assert not np.any(is_cube(c**3 - 1))

    def test_floor_roots_match_math(self):
        rng = np.random.default_rng(3)
        ks = rng.integers(1, 2**50, size=500)
        assert np.all(int_sqrt(ks) == np.array([math.isqrt(int(k)) for k in ks]))
        for k, c in zip(ks, int_cbrt(ks)):
            assert c**3 <= k < (c + 1) ** 3

    def test_largest_int64_roots(self):
        # the squares and cubes checking a root near 2^63 must not wrap
        top = 2**63 - 1
        s, c = 3037000499, 2097151  # isqrt(top) and the integer cbrt of top
        ks = np.array([s * s - 1, s * s, s * s + 1, top], dtype=np.int64)
        assert is_square(ks).tolist() == [False, True, False, False]
        assert int_sqrt(ks).tolist() == [math.isqrt(int(k)) for k in ks]
        ks = np.array([c**3 - 1, c**3, c**3 + 1, top], dtype=np.int64)
        assert is_cube(ks).tolist() == [False, True, False, False]
        assert int_cbrt(ks).tolist() == [c - 1, c, c, c]


class TestFamilies:
    def test_square_indicator_values(self):
        fam = square_indicator_family(1.0)
        assert distance(fam.eval(9, 1.5), zero()) == 0.0
        assert distance(fam.eval(10, 1.5), crisp(1.0)) == 0.0
        assert distance(fam.claimed_limit(1.5), crisp(1.0)) == 0.0

    def test_triangular_growing_values(self):
        fam = triangular_growing_family()
        x = 1.25
        # non-squares sit at 0
        assert distance(fam.eval(7, x), zero()) == 0.0
        # squares carry spread k*x, so distance to 0 is exactly k*x
        assert distance(fam.eval(16, x), zero()) == 16 * x

    def test_cube_decaying_weighted_deviation(self):
        # t_k * d at k = 8 is x/8 + x/64 for the harmonic-plus weights
        fam = cube_decaying_family()
        x = 1.5
        d = distance(fam.eval(8, x), zero())
        assert d == pytest.approx(x / 8)
        assert (1 + 1 / 8) * d == pytest.approx(x / 8 + x / 64)
        assert distance(fam.eval(9, x), zero()) == 0.0

    def test_alternating_values(self):
        fam = alternating_crisp_family()
        assert distance(fam.eval(3, 1.0), crisp(1)) == 0.0
        assert distance(fam.eval(4, 1.9), crisp(-1)) == 0.0
        ks = np.concatenate([np.arange(-5, 70), 2 ** 62 + np.arange(-3, 4),
                             [2 ** 63 - 1]]).astype(np.int64)
        c, l, r = fam.values(ks, 1.5)
        assert np.array_equal(c, [1.0 if k % 2 else -1.0 for k in ks.tolist()])
        assert not l.any() and not r.any()

    def test_truncated_matches_full_below_cutoff(self):
        full = square_indicator_family(1.0)
        for n_trunc in (4, 16, 64):
            fam = truncated_square_indicator_family(n_trunc)
            for k in range(1, n_trunc + 1):
                assert distance(fam.eval(k, 1.5), full.eval(k, 1.5)) == 0.0
            for k in list(range(n_trunc + 1, n_trunc + 12)) + [n_trunc**2]:
                assert distance(fam.eval(k, 1.5), crisp(1.0)) == 0.0

    def test_truncated_converges_pointwise_to_full(self):
        full = square_indicator_family(1.0)
        for k in (3, 4, 25, 26):
            for n_trunc in (k, k + 1, 4 * k):
                fam = truncated_square_indicator_family(n_trunc)
                assert distance(fam.eval(k, 1.0), full.eval(k, 1.0)) == 0.0

    def test_harmonic_values(self):
        fam = harmonic_crisp_family()
        assert distance(fam.eval(4, 1.0), crisp(0.25)) == 0.0

    def test_domain_enforced(self):
        fam = triangular_growing_family()
        with pytest.raises(ValueError, match=r"^x must lie in \[1, 2\], got 0.5$"):
            fam.eval(3, 0.5)
        with pytest.raises(ValueError):
            fam.eval(0, 1.5)

    def test_values_satisfy_cut_invariants(self):
        rng = np.random.default_rng(11)
        fams = [square_indicator_family(2.0), triangular_growing_family(),
                cube_decaying_family(), alternating_crisp_family(),
                truncated_square_indicator_family(9)]
        for fam in fams:
            for _ in range(40):
                k = int(rng.integers(1, 5000))
                x = float(rng.uniform(*fam.domain))
                v = fam.eval(k, x)  # constructor validates nesting
                assert np.all(v.lower <= v.upper)

    def test_profile_matches_eval_distance(self):
        # vectorized profile deviations vs the FuzzyNumber metric, one by one
        rng = np.random.default_rng(5)
        fams = [square_indicator_family(1.5), triangular_growing_family(),
                cube_decaying_family(), alternating_crisp_family()]
        for fam in fams:
            x = float(rng.uniform(*fam.domain))
            ks = rng.integers(1, 3000, size=60).astype(np.int64)
            c, l, r = fam.profile(ks, x)
            lim = fam.limit_profile(x)
            dev = triangular_profile_distance(c, l, r, *lim)
            lim_fn = triangular(*lim)
            for i, k in enumerate(ks):
                assert dev[i] == pytest.approx(
                    distance(fam.eval(int(k), x), lim_fn), abs=1e-12)


HOOKED = ["ex3.1", "ex3.1:M=2.5", "ex3.2", "ex3.3", "remark3:n=100",
          "square_indicator"]


class TestExceptionHooks:
    @pytest.mark.parametrize("spec", HOOKED)
    def test_hook_lists_every_index_off_the_limit(self, spec):
        # sorted, unique, in range, and profile == claimed limit elsewhere
        fam = parse_family_spec(spec)
        rng = np.random.default_rng(23)
        ranges = [tuple(int(v) for v in sorted(rng.integers(1, 1 << 16, 2)))
                  for _ in range(12)]
        ranges += [(1, 1 << 16), (1, 1), (1, 7), (2, 7), (9, 8), (100, 3),
                   (2**40 - 3, 2**40 + 3), (2**60 - 3, 2**60 + 3)]
        for lo, hi in ranges:
            ks = fam.exceptional(lo, hi)
            assert ks.dtype == np.int64
            assert np.all(np.diff(ks) > 0)
            assert np.all((lo <= ks) & (ks <= hi))
            others = np.setdiff1d(np.arange(lo, hi + 1, dtype=np.int64), ks)
            for x in (1.0, 1.375, 2.0):
                lim = fam.limit_profile(x)
                for got, want in zip(fam.profile(others, x), lim):
                    assert np.all(got == want), (lo, hi, x)

    def test_composite_families_have_no_hook(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("1 0.0 0.5\n2 1.0 0.0\n")
        f = triangular_growing_family()
        for fam in (add_families(f, f), scale_family(2.0, f),
                    parse_family_spec(f"file:{path}")):
            assert fam.exceptional is None

    @pytest.mark.parametrize("spec", ["ex3.2", "ex4.1"])
    def test_values_of_no_indices(self, spec):
        # a range without exceptions (cubes in [2, 7]) asks for no values
        c, l, r = parse_family_spec(spec).values(np.zeros(0, np.int64), 1.0)
        assert len(c) == len(l) == len(r) == 0


class TestCrispFastPaths:
    """The crisp families' lean forms keep the bits of the plain ones."""

    @settings(max_examples=200, deadline=None)
    @given(ks=st.lists(st.integers(1, 2 ** 62), min_size=1, max_size=64))
    def test_parity_signs_and_in_place_weights_keep_their_bits(self, ks):
        ks = np.array(ks, dtype=np.int64)
        c, _, _ = alternating_crisp_family().profile(ks, 1.0)
        assert c.tobytes() == np.where(ks >> 1 << 1 == ks, -1.0, 1.0).tobytes()
        t = harmonicplus_weights().values(ks)
        assert t.tobytes() == (1.0 + 1.0 / ks).tobytes()

    @pytest.mark.parametrize("spec", ["ex3.1", "ex4.1", "remark3:n=16",
                                      "harmonic", "crisp_index"])
    @pytest.mark.parametrize("n", [1, 8192, 8193])
    def test_crisp_spreads_are_read_only(self, spec, n):
        fam = (crisp_index_family() if spec == "crisp_index"
               else parse_family_spec(spec))
        _, l, r = fam.profile(np.arange(1, n + 1, dtype=np.int64), 1.5)
        assert r is l and len(l) == n and not l.any()
        with pytest.raises(ValueError, match="read-only"):
            l[0] = 1.0


class TestFamilyAlgebra:
    def test_add_families_pointwise(self):
        f = triangular_growing_family()
        g = constant_family(2.0, 0.5, 0.5)
        s = add_families(f, g)
        got = s.eval(4, 1.5)
        expect = triangular(2.0, 4 * 1.5 + 0.5, 4 * 1.5 + 0.5)
        assert distance(got, expect) <= 1e-12

    def test_scale_family_negative(self):
        f = constant_family(1.0, 0.5, 0.25)
        g = scale_family(-2.0, f)
        assert distance(g.eval(3, 1.5), triangular(-2.0, 0.5, 1.0)) <= 1e-12


class TestSpecStrings:
    def test_reference_ids(self):
        assert parse_family_spec("ex3.1:M=2").label == "square_indicator(M=2)"
        assert parse_family_spec("ex3.1").label == "square_indicator(M=1)"
        assert parse_family_spec("ex3.2").label == "triangular_growing"
        assert parse_family_spec("ex3.3").label == "cube_decaying"
        assert parse_family_spec("ex4.1").label == "alternating_crisp"
        assert "n=16" in parse_family_spec("remark3:n=16").label

    def test_descriptive_ids(self):
        assert parse_family_spec("harmonic").label == "harmonic_crisp"
        assert "n=4" in parse_family_spec("truncated:n=4").label

    def test_bad_tokens_named(self):
        with pytest.raises(ValueError, match="mystery"):
            parse_family_spec("mystery")
        with pytest.raises(ValueError, match="n="):
            parse_family_spec("remark3")
        with pytest.raises(ValueError, match="M"):
            parse_family_spec("ex3.1:M=abc")

    @pytest.mark.parametrize("rows", ["1 0 1\n1 0 1\n", "3 0 1\n1 0 1\n3 2 0\n"])
    def test_table_family_refuses_a_repeated_k(self, tmp_path, rows):
        path = tmp_path / "fam.txt"
        path.write_text(rows)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: duplicate index k$"):
            parse_family_spec(f"file:{path}")

    @pytest.mark.parametrize("points, named", [
        ((), "grid must be nonempty"),
        ((1.0, 1.0), "grid points must be strictly increasing"),
        ((1.0, 2.0, 1.5), "grid points must be strictly increasing")])
    def test_grid_refusals(self, points, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            XGridPolicy(points)

    def test_table_family(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("1 0.0 1.0\n2 3.5 0.0\n5 -1.0 2.0\n")
        fam = parse_family_spec(f"file:{path}")
        assert distance(fam.eval(2, 1.5), crisp(3.5)) == 0.0
        assert distance(fam.eval(5, 1.0), triangular(-1.0, 2.0, 2.0)) == 0.0
        with pytest.raises(ValueError, match="no row"):
            fam.eval(3, 1.5)

    @pytest.mark.parametrize("row", ["1 0 nan", "1 inf 0", "1 0 -inf"])
    def test_table_family_rejects_non_finite(self, tmp_path, row):
        path = tmp_path / "fam.txt"
        path.write_text(f"{row}\n2 0.0 1.0\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: non-finite"):
            parse_family_spec(f"file:{path}")

    @pytest.mark.parametrize("rows", ["1 0 1\n3 0 -0.5\n2 0 nan\n",
                                      "3 0 1\n2 -inf 0\n1 0 2\n"])
    def test_table_family_names_the_first_bad_row(self, tmp_path, rows):
        path = tmp_path / "fam.txt"
        path.write_text(rows)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: non-finite center or spread, or a negative spread, "
                "at k=2")):
            parse_family_spec(f"file:{path}")

    @pytest.mark.parametrize("value", [(math.nan,), (math.inf,), (0, math.inf),
                                       (0, 0, math.nan), (0, -0.5), (0, 0, -1)])
    def test_constant_family_refuses_what_is_not_triangular(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^constant\(.*\): the value "
                               "has a non-finite center or spread, or a "
                               "negative spread$"):
                constant_family(*value)


class TestBoundedness:
    def test_square_indicator_bounded(self):
        rep = is_bounded(square_indicator_family(1.0), uniform_grid(1, 2, 5), 512)
        assert rep.bounded and rep.bound == 1.0

    def test_alternating_bounded(self):
        rep = is_bounded(alternating_crisp_family(), uniform_grid(1, 2, 5), 256)
        assert rep.bounded and rep.bound == 1.0

    def test_cube_decaying_bounded(self):
        rep = is_bounded(cube_decaying_family(), uniform_grid(1, 2, 5), 512)
        assert rep.bounded and rep.bound == 2.0  # x/k peaks at k=1, x=2

    def test_triangular_growing_unbounded(self):
        rep = is_bounded(triangular_growing_family(), uniform_grid(1, 2, 5), 2048)
        assert not rep.bounded
        assert rep.witness_k in squares_upto(2048)
        assert rep.bound >= 2048 - 90  # last square times x >= 1

    def test_k_max_past_the_budget_refused_first(self):
        # refused before np.arange builds the range of k; the cap itself
        # passes the check and reaches the first array
        late = AssertionError("an array was built before the refusal")
        cap = schemes._MAX_INDEX
        for k_max, refused in ((cap + 1, ValueError), (cap, AssertionError)):
            with mock.patch.object(np, "arange", side_effect=late), \
                    pytest.raises(refused) as err:
                is_bounded(harmonic_crisp_family(), uniform_grid(1, 2, 5), k_max)
            if refused is ValueError:
                assert str(err.value) == (f"k_max={cap + 1} exceeds the budget "
                                          f"of {cap} indices")


def test_grid_policy_validation():
    with pytest.raises(ValueError):
        uniform_grid(1, 2, 0)
    g = uniform_grid(1, 2, 5)
    assert g.points[0] == 1.0 and g.points[-1] == 2.0 and len(g.points) == 5


@pytest.mark.parametrize("bad", [(0.0, -1.0, 1.0), (0.0, -0.5, -0.5),
                                 (math.nan, 0.0, 0.0), (0.0, 0.0, math.inf)])
def test_bad_values_refused_on_every_path(bad):
    # crisp 0 up to k = 3, then the bad triple; classical tops 1, 2, 4, ...
    def profile(ks, x):
        c, l, r = (np.where(ks >= 4, v, 0.0) for v in bad)
        # equal spreads share one array, as in the symmetric built-ins
        return c, l, (l if bad[1] == bad[2] else r)

    fam = FuzzyFunctionSequence("spoiled", profile, lambda x: (0.0, 0.0, 0.0))
    scheme, weights = classical_scheme(), constant_weights(1)
    grid = uniform_grid(1.5, 2, 2)
    named = re.escape("spoiled: f_4(1.5) has a non-finite center or spread, "
                      "or a negative spread")
    for mode in ("ord", "abs"):
        with pytest.raises(ValueError, match=named):
            classify(fam, None, scheme, weights, 1.0, 0.1, grid, 64, modes=(mode,))
    with pytest.raises(ValueError, match=named):
        slowly_decreasing_check(fam, 1.5, 0.1, 2.0, 0, 64)
    with pytest.raises(ValueError, match=named):
        is_bounded(fam, grid, 64)
    with pytest.raises(ValueError, match=named):
        tauberian_experiment(fam, None, scheme, weights, grid, 64)
    # a scan that stops before k = 4 and no classify leave the conclusion trace
    with mock.patch.object(tauberian, "classify"), \
            pytest.raises(ValueError, match=named):
        tauberian_experiment(fam, None, scheme, weights, grid, 64, n0=0,
                             scan_horizon=3)


@pytest.fixture(scope="module")
def family_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("family") / "table.txt"
    path.write_text("".join(f"{k} {(-1) ** k / k} {k % 3 / 4}\n"
                            for k in range(1, 301)))
    return str(path)


def built_families(table):
    """A family from every constructor, the two x-dependent ones included."""
    specs = ["ex3.1", "ex3.1:M=2.5", "ex3.2", "ex3.3", "ex4.1", "remark3:n=16",
             "harmonic", f"file:{table}"]
    return ([parse_family_spec(spec) for spec in specs]
            + [crisp_index_family(), constant_family(1.5, 0.25, 0.5)])


class TestXFree:
    def test_flag_comes_from_the_constructor(self, family_table):
        dependent = [f.label for f in built_families(family_table)
                     if not f.x_free]
        assert dependent == ["triangular_growing", "cube_decaying"]
        hand_built = FuzzyFunctionSequence(
            "hand", lambda ks, x: (np.zeros(len(ks)),) * 3)
        assert not hand_built.x_free

    @settings(max_examples=60, deadline=None)
    @given(i=st.integers(0, 9), j=st.integers(0, 9), c=st.floats(-3.0, 3.0),
           x1=st.floats(1.0, 2.0), x2=st.floats(1.0, 2.0))
    def test_x_free_families_do_not_read_x(self, family_table, i, j, c, x1, x2):
        fams = built_families(family_table)
        f, g = fams[i], fams[j]
        total, scaled = add_families(f, g), scale_family(c, f)
        assert total.x_free == (f.x_free and g.x_free)
        assert scaled.x_free == f.x_free
        ks = np.arange(1, 301, dtype=np.int64)
        for fam in (f, total, scaled):
            if not fam.x_free:
                continue
            for a, b in zip(fam.profile(ks, x1), fam.profile(ks, x2)):
                assert a.tobytes() == b.tobytes()
            if fam.limit_profile is not None:
                assert fam.limit_profile(x1) == fam.limit_profile(x2)

    @pytest.mark.parametrize("spec, calls", [("ex4.1", 1), ("ex3.2", 5)])
    def test_is_bounded_evaluates_x_free_family_once(self, spec, calls):
        fam = parse_family_spec(spec)
        seen = []

        def profile(ks, x):
            seen.append(x)
            return fam.profile(ks, x)

        grid = uniform_grid(1, 2, 5)
        got = is_bounded(dataclasses.replace(fam, profile=profile), grid, 256)
        assert len(seen) == calls
        assert got == is_bounded(fam, grid, 256)
        # every point is still checked against the domain
        with pytest.raises(ValueError, match=r"^x must lie in \[1, 2\], got 2.5$"):
            is_bounded(fam, XGridPolicy((1.0, 2.5)), 256)

    def test_bad_values_named_at_the_first_point(self):
        # an x-free spoiled family: the error names the first grid point,
        # as a per-point pass would
        def profile(ks, x):
            return np.where(ks >= 4, math.nan, 0.0), np.zeros(len(ks)), \
                np.zeros(len(ks))

        fam = FuzzyFunctionSequence("spoiled", profile,
                                    lambda x: (0.0, 0.0, 0.0), x_free=True)
        scheme, weights = classical_scheme(), constant_weights(1)
        grid = uniform_grid(1.5, 2, 2)
        named = re.escape("spoiled: f_4(1.5) has a non-finite center")
        for mode in ("sp", "abs", "ord"):
            with pytest.raises(ValueError, match=named):
                classify(fam, None, scheme, weights, 1.0, 0.1, grid, 64,
                         modes=(mode,))
        with pytest.raises(ValueError, match=named):
            is_bounded(fam, grid, 64)
        with pytest.raises(ValueError, match=named):
            tauberian_experiment(fam, None, scheme, weights, grid, 64)
        with mock.patch.object(tauberian, "classify"), \
                pytest.raises(ValueError, match=named):
            tauberian_experiment(fam, None, scheme, weights, grid, 64, n0=0,
                                 scan_horizon=3)
