"""Slow-decrease scans, decomposition identities, and the full experiment."""

import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_short_line

from fuzzysumm import (DegenerateWindowError, XGridPolicy, add, add_families,
                       classical_scheme, classify, constant_family,
                       constant_weights, crisp, alternating_crisp_family,
                       dilation_mean_identity, distance, harmonic_crisp_family,
                       harmonicplus_weights, ladder, parse_family_spec,
                       parse_scheme_spec, parse_weight_spec, partial_leq,
                       scale, shrink_mean_identity, slowly_decreasing_check,
                       square_indicator_family,
                       tauberian_experiment, translate,
                       triangular_growing_family, uniform_grid)
from fuzzysumm import schemes
from fuzzysumm import tauberian
from fuzzysumm.numbers import ATOL
from fuzzysumm.schemes import WeightSequence
from fuzzysumm.sequences import FuzzyFunctionSequence, crisp_index_family
from fuzzysumm.tauberian import SlowDecreaseEntry


def spike_weights():
    """1e20, then weights of 1 that it absorbs: every window [1, g] with
    g < 8193 totals exactly 1e20, so the gap between two of them is 0."""
    return WeightSequence(lambda ks: np.where(ks == 1, 1e20, 1.0), "spike")


def unequal_spread_family():
    """Symmetric spreads k*x on squares plus a constant with l != r, so a
    left/right mix-up on either side of a comparison shows."""
    return add_families(triangular_growing_family(),
                        constant_family(0.0, 0.25, 0.5))


def left_spread_family():
    """Crisp 0 widened to the left by (k mod 3)*x: only support bottoms move,
    so a scan that skips a zero spread must skip the right one."""
    def profile(ks, x):
        z = np.zeros(len(ks))
        return z, (ks % 3) * x, z
    return FuzzyFunctionSequence("left_spread", profile)


def right_spread_family():
    """Crisp 0 widened to the right by (k mod 3)*x: only support tops move,
    so a scan that skips a zero spread must skip the left one."""
    def profile(ks, x):
        z = np.zeros(len(ks))
        return z, z, (ks % 3) * x
    return FuzzyFunctionSequence("right_spread", profile)


def violating_pairs(fam, x, eps, lam, n0, horizon):
    """Every violating (n, k) of a slow-decrease scan in (n, k) order.

    Each value's cut ladder (lower then upper endpoints) is stacked once;
    a row is compared against its whole window by partial_leq's rule:
    every level, both endpoints, with ATOL slack.
    """
    cuts = np.stack([np.concatenate((v.lower, v.upper)) for v in
                     (fam.eval(k, x) for k in range(1, horizon + 1))])
    lowered = cuts + (-eps)  # translate(v, -eps), endpoint by endpoint
    pairs = []
    for n in range(n0 + 1, horizon + 1):
        if lam > 1:
            ks = np.arange(n + 1, min(math.floor(lam * n), horizon) + 1)
            ok = (lowered[n - 1] <= cuts[ks - 1] + ATOL).all(axis=1)
        else:
            ks = np.arange(math.floor(lam * n) + 1, n + 1)
            ok = (lowered[ks - 1] <= cuts[n - 1] + ATOL).all(axis=1)
        pairs += [(n, int(k)) for k in ks[~ok]]
    return pairs


def violating_pairs_per_pair(fam, x, eps, lam, n0, horizon):
    """The same pairs, one partial_leq call per pair on FuzzyNumbers."""
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


def probe(fam, x, eps, lam, n0, horizon):
    """The experiment's probe of one eps: the scan's last violating row,
    read from the window minima."""
    last, = tauberian._last_violations(fam, x, (eps,), lam, n0, horizon)
    return last


def crisp_table_family(levels):
    """Crisp values drawn at random from ``levels`` points of [-1, 1]: many
    ties for a few levels, next to none for more levels than indices.  Half
    of the zeros are -0.0, which ties with 0.0 in every comparison."""
    rng = np.random.default_rng(levels)
    table = rng.choice(np.linspace(-1.0, 1.0, levels), 2048)
    table[np.flatnonzero(table == 0)[::2]] = -0.0
    def profile(ks, x):
        z = np.zeros(len(ks))
        return table[ks - 1], z, z
    return FuzzyFunctionSequence(f"table{levels}", profile)


def step_family(at):
    """Crisp 0 up to k = ``at``, then -1: a row whose window crosses the
    step violates at every k on the far side, so the first violating rows
    are wide and full of violations, for lam > 1 and lam < 1 alike.  The
    centers are ints, which every compare must take as they are."""
    def profile(ks, x):
        z = np.zeros(len(ks))
        return np.where(ks <= at, 0, -1), z, z
    return FuzzyFunctionSequence(f"step{at}", profile)


SCAN_FAMILIES = {"alternating": alternating_crisp_family,
                 "triangular_growing": triangular_growing_family,
                 "harmonic": harmonic_crisp_family,
                 "square_indicator": square_indicator_family,
                 "crisp_index": crisp_index_family,
                 "left_spread": left_spread_family,
                 "right_spread": right_spread_family,
                 # triangular values with zero spreads scan one endpoint too
                 "constant_crisp": lambda: constant_family(2.0, 0.0, 0.0),
                 # D = 2, 5, 41 and about the horizon: rank-count tables with
                 # blocks of 1 and wider
                 **{f"table{d}": (lambda d=d: crisp_table_family(d))
                    for d in (2, 5, 41, 100_000)},
                 # late, wide first violating rows, each full of violations
                 "step150": lambda: step_family(150)}


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
            down = slowly_decreasing_check(fam, 1.0, 0.1, 0.5, 24, 300)
            assert up.holds and down.holds
        fam = alternating_crisp_family()
        up = slowly_decreasing_check(fam, 1.0, 0.5, 2.0, 12, 300)
        down = slowly_decreasing_check(fam, 1.0, 0.5, 0.5, 24, 300)
        assert not up.holds and not down.holds

    @pytest.mark.parametrize("family", list(SCAN_FAMILIES))
    @pytest.mark.parametrize("lam", [0.5, 0.8, 1.25, 2.0])
    def test_bruteforce_oracle_matches_per_pair_order(self, family, lam):
        # the stacked oracle against one partial_leq call per pair
        fam = SCAN_FAMILIES[family]()
        for eps in (1e-6, 0.5, 3.0):
            assert (violating_pairs(fam, 1.25, eps, lam, 2, 40)
                    == violating_pairs_per_pair(fam, 1.25, eps, lam, 2, 40))

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(list(SCAN_FAMILIES)),
           lam=st.sampled_from([0.2, 0.5, 0.6667, 0.8, 1.25, 1.6, 2.0, 3.0]),
           eps=st.sampled_from([1e-6, 0.1, 0.5, 3.0]),
           x=st.floats(1.0, 2.0),
           bounds=st.integers(2, 300).flatmap(
               lambda h: st.tuples(st.integers(0, h - 1), st.just(h))))
    # only the right endpoints violate
    @example(family="right_spread", lam=2.0, eps=0.5, x=1.5, bounds=(2, 40))
    # rank-count tables: blocks of 1 and partial blocks, each way
    @example(family="table5", lam=2.0, eps=0.5, x=1.0, bounds=(0, 300))
    @example(family="table41", lam=0.5, eps=0.1, x=1.0, bounds=(3, 300))
    @example(family="table100000", lam=3.0, eps=1e-6, x=1.0, bounds=(1, 300))
    @example(family="table100000", lam=0.2, eps=0.5, x=1.0, bounds=(7, 300))
    def test_blocked_scan_matches_bruteforce(self, family, lam, eps, x, bounds):
        fam = SCAN_FAMILIES[family]()
        n0, horizon = bounds
        expect = violating_pairs(fam, x, eps, lam, n0, horizon)
        # 7-entry blocks: short rows share a block, longer ones get their own
        with mock.patch.object(tauberian, "_BLOCK", 7):
            wit = slowly_decreasing_check(fam, x, eps, lam, n0, horizon)
            assert wit.count == len(expect)
            assert wit.violations == tuple(expect[:8])
            assert wit.last_bad == (expect[-1][0] if expect else None)
            assert wit.holds == (not expect)
        # row n's count is the drop from the scan after n - 1 to the one after n
        counts = [slowly_decreasing_check(fam, x, eps, lam, m, horizon).count
                  for m in range(n0, horizon)] + [0]
        for n in range(n0 + 1, horizon + 1):
            row = sum(1 for m, _ in expect if m == n)
            assert counts[n - 1 - n0] - counts[n - n0] == row

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(list(SCAN_FAMILIES)),
           lam=st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True),
                         st.floats(1, 1e4, exclude_min=True),
                         st.sampled_from([1e18, 1e300, 1e308])),
           eps=st.sampled_from([1e-6, 0.1, 0.5, 3.0]),
           x=st.floats(1.0, 2.0),
           bounds=st.integers(2, 200).flatmap(
               lambda h: st.tuples(st.integers(0, h - 1), st.just(h))))
    # once 0 violations and "holds", where lam = 3 finds 3,342
    @example(family="alternating", lam=1e18, eps=0.5, x=1.0, bounds=(10, 200))
    # lam * n itself overflows the float range
    @example(family="alternating", lam=1e308, eps=0.5, x=1.0, bounds=(10, 200))
    @example(family="alternating", lam=1e308, eps=0.5, x=1.0, bounds=(0, 2))
    @example(family="table2", lam=1e308, eps=0.5, x=1.0, bounds=(3, 200))
    @example(family="table41", lam=1e308, eps=0.1, x=1.0, bounds=(0, 200))
    @example(family="table100000", lam=1e308, eps=1e-6, x=1.0,
             bounds=(10, 200))
    @example(family="table100000", lam=1e-300, eps=0.1, x=1.0, bounds=(0, 200))
    def test_any_lam_matches_bruteforce(self, family, lam, eps, x, bounds):
        # a window top past the horizon is the horizon, as at lam = horizon
        fam, (n0, horizon) = SCAN_FAMILIES[family](), bounds
        expect = violating_pairs(fam, x, eps, min(lam, horizon), n0, horizon)
        with warnings.catch_warnings(), mock.patch.object(tauberian, "_BLOCK", 7):
            warnings.simplefilter("error")
            wit = slowly_decreasing_check(fam, x, eps, lam, n0, horizon)
            last = probe(fam, x, eps, lam, n0, horizon)
        assert wit.count == len(expect)
        assert wit.violations == tuple(expect[:8])
        assert wit.last_bad == last == (expect[-1][0] if expect else None)

    @settings(max_examples=40, deadline=None)
    @given(spec=st.sampled_from(["ex3.1", "ex3.2", "ex3.3", "ex4.1",
                                 "remark3:n=30", "harmonic"]),
           lams=st.lists(st.sampled_from([1.1, 1.25, 1.5, 2.0, 3.0]),
                         min_size=2, max_size=2, unique=True).map(sorted),
           eps=st.sampled_from([1e-6, 0.01, 0.1, 0.5, 3.0]),
           x=st.floats(1.0, 2.0),
           bounds=st.integers(2, 300).flatmap(
               lambda h: st.tuples(st.integers(0, h - 1), st.just(h))))
    def test_violations_grow_with_lam(self, spec, lams, eps, x, bounds):
        # (n, floor(lam*n)] grows with lam, and so do its violations: the
        # experiment tries the smallest lam alone unless it fails
        fam, (n0, horizon) = parse_family_spec(spec), bounds
        small, large = (slowly_decreasing_check(fam, x, eps, lam, n0, horizon)
                        for lam in lams)
        assert small.count <= large.count
        assert (small.last_bad or 0) <= (large.last_bad or 0)

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(list(SCAN_FAMILIES)),
           lam=st.sampled_from([0.2, 0.5, 0.8, 1.25, 1.6, 2.0, 3.0]),
           eps=st.sampled_from([1e-6, 0.1, 0.5, 3.0]),
           x=st.floats(1.0, 2.0),
           bounds=st.integers(1, 300).flatmap(
               lambda h: st.tuples(st.integers(0, h - 1), st.just(h))))
    # no row has a nonempty window: (n, floor(1.25*n)] is empty for n <= 3
    @example(family="alternating", lam=1.25, eps=0.5, x=1.0, bounds=(0, 3))
    @example(family="alternating", lam=2.0, eps=0.5, x=1.0, bounds=(1, 2))
    # a violation in the lowest row only
    @example(family="alternating", lam=2.0, eps=0.5, x=1.0, bounds=(10, 12))
    def test_probe_is_the_scans_last_bad(self, family, lam, eps, x, bounds):
        # one probe answers a whole eps ladder from the same window minima
        fam, (n0, horizon) = SCAN_FAMILIES[family](), bounds
        ladder = (eps, 0.5, 0.1, 1e-6)
        with mock.patch.object(tauberian, "_BLOCK", 7):
            want = [slowly_decreasing_check(fam, x, e, lam, n0, horizon).last_bad
                    for e in ladder]
            assert tauberian._last_violations(fam, x, ladder, lam, n0,
                                              horizon) == want

    @pytest.mark.parametrize("family", list(SCAN_FAMILIES))
    @pytest.mark.parametrize("lam", [2.0, 0.5])
    def test_kernels_agree_on_one_endpoint(self, family, lam):
        # the block kernel never meets one endpoint in a scan: on each
        # endpoint alone, it referees the rank-count table
        fam = SCAN_FAMILIES[family]()
        with mock.patch.object(tauberian, "_BLOCK", 7):
            for eps in (1e-6, 0.5, 3.0):
                scan = tauberian._scan(fam, 1.25, (eps,), lam, 2, 300)
                for side in scan.sides(eps):
                    table, blocks = (kernel(scan, [side]) for kernel in (
                        tauberian._rank_counts, tauberian._violation_blocks))
                    assert table[0] == blocks[0]
                    assert table[1].tolist() == blocks[1].tolist()

    @pytest.mark.parametrize("block", [7, 200, 1 << 15])
    @pytest.mark.parametrize("lam", [2.0, 0.5])
    def test_partial_blocks_in_chunks_of_any_size(self, block, lam):
        # D near 1,200 raises the table's blocks past isqrt(D) = 34 to 38,
        # and the partial compares run one row, two rows or a few hundred
        # rows at a time
        fam = crisp_table_family(100_000)
        expect = violating_pairs(fam, 1.0, 0.1, lam, 5, 1200)
        with mock.patch.object(tauberian, "_BLOCK", block):
            wit = slowly_decreasing_check(fam, 1.0, 0.1, lam, 5, 1200)
        assert wit.count == len(expect) > 0
        assert wit.violations == tuple(expect[:8])
        assert wit.last_bad == expect[-1][0]

    @pytest.mark.parametrize("lam", [2.0, 0.5])
    def test_exact_float_ties(self, lam):
        # terms equal, bit for bit, to another's lowered value: each decision
        # is the float comparison c[k] < c[n] - eps - ATOL, or its mirror
        eps, horizon = 0.5, 120
        low = 1.0 - eps - ATOL
        c = np.resize([1.0, low, 0.25, low - eps - ATOL, 0.25], horizon)
        fam = FuzzyFunctionSequence("ties", lambda ks, x: (
            c[ks - 1], np.zeros(len(ks)), np.zeros(len(ks))))
        lowered = c - eps - ATOL
        expect = []
        for n in range(1, horizon + 1):
            if lam > 1:
                expect += [(n, k) for k in range(n + 1, min(int(lam * n), horizon) + 1)
                           if c[k - 1] < lowered[n - 1]]
            else:
                expect += [(n, k) for k in range(int(lam * n) + 1, n + 1)
                           if lowered[k - 1] > c[n - 1]]
        wit = slowly_decreasing_check(fam, 1.0, eps, lam, 0, horizon)
        assert wit.count == len(expect) > 0
        assert wit.violations == tuple(expect[:8])
        assert wit.last_bad == expect[-1][0]

    @pytest.mark.parametrize("family", [
        alternating_crisp_family, harmonic_crisp_family,
        lambda: constant_family(2.0, 0.0, 0.0),
        lambda: add_families(alternating_crisp_family(),
                             constant_family(2.0, 0.0, 0.0))],
        ids=["alternating", "harmonic", "constant", "alternating_plus_2"])
    def test_one_endpoint_never_takes_the_blocks(self, family):
        # the path follows the endpoints the scan sees, not the family's type
        fam = family()
        with mock.patch.object(tauberian, "_violation_blocks",
                               side_effect=AssertionError("blocks entered")):
            for lam in (2.0, 0.5):
                wit = slowly_decreasing_check(fam, 1.0, 0.5, lam, 10, 300)
                assert probe(fam, 1.0, 0.5, lam, 10, 300) == wit.last_bad

    @pytest.mark.parametrize("lam", [2.0, 0.5])
    def test_spread_family_at_several_blocks(self, lam):
        # three endpoints per value, and about 90,000 window entries: the
        # default _BLOCK splits the scan into several blocks
        fam, horizon = unequal_spread_family(), 600
        assert sum(min(math.floor(lam * n), horizon) - n if lam > 1
                   else n - math.floor(lam * n)
                   for n in range(1, horizon + 1)) > 2 * tauberian._BLOCK
        for eps in (0.5, 3.0):
            expect = violating_pairs(fam, 1.5, eps, lam, 10, horizon)
            wit = slowly_decreasing_check(fam, 1.5, eps, lam, 10, horizon)
            assert expect and wit.count == len(expect)
            assert wit.violations == tuple(expect[:8])
            assert wit.last_bad == expect[-1][0] == probe(
                fam, 1.5, eps, lam, 10, horizon)

    def test_alternating_count_at_scale(self):
        # closed form: every odd n > 10 against each even k in (n, min(2n, 2^14)]
        fam = alternating_crisp_family()
        wit = slowly_decreasing_check(fam, 1.0, 0.5, 2.0, 10, 1 << 14)
        assert wit.count == 16_781_297
        assert wit.last_bad == (1 << 14) - 1
        assert wit.violations == ((11, 12), (11, 14), (11, 16), (11, 18),
                                  (11, 20), (11, 22), (13, 14), (13, 16))

    def test_witnesses_stop_at_eight_pairs(self):
        # at lam 0.5 each of the first 8 violating rows holds 2^14 pairs;
        # turning all of them into tuples once more than tripled the peak
        horizon = 1 << 16
        fam = step_family(horizon // 2)
        peaks = {}
        for lam in (2.0, 0.5):
            tracemalloc.start()
            try:
                wit = slowly_decreasing_check(fam, 1.0, 0.5, lam, 10, horizon)
                peaks[lam] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(wit.violations) == 8
        assert peaks[0.5] <= 1.5 * peaks[2.0], peaks

    def test_parameter_validation(self):
        fam = harmonic_crisp_family()
        with pytest.raises(ValueError):
            slowly_decreasing_check(fam, 1.0, 0.1, 1.0, 0, 50)
        with pytest.raises(ValueError):
            slowly_decreasing_check(fam, 1.0, -0.1, 2.0, 0, 50)
        with pytest.raises(ValueError):
            slowly_decreasing_check(fam, 1.0, 0.1, 2.0, 60, 50)
        with pytest.raises(ValueError):
            slowly_decreasing_check(fam, 1.0, 0.1, 0.0, 0, 50)
        # eps <= 0 is False for NaN: the harmonic family then reported
        # 2,445 violations at lam 2, n0 10, horizon 100
        for scan in (slowly_decreasing_check, probe):
            with pytest.raises(ValueError,
                               match=r"^eps must lie in \(0, inf\), got nan$"):
                scan(fam, 1.0, math.nan, 2.0, 10, 100)

    def test_nan_lam_refused(self):
        for scan in (slowly_decreasing_check, probe):
            with pytest.raises(ValueError,
                               match=r"^lam must lie in \(0, inf\), got nan$"):
                scan(harmonic_crisp_family(), 1.0, 0.1, math.nan, 10, 100)

    def test_horizon_past_the_budget_refused_first(self):
        # refused before np.arange or the family builds an array over it;
        # the cap itself passes the check and reaches the first array
        late = AssertionError("an array was built before the refusal")
        fam = harmonic_crisp_family()
        cap = schemes._MAX_INDEX
        for scan in (slowly_decreasing_check, probe):
            for horizon, refused in ((cap + 1, ValueError), (cap, AssertionError)):
                with mock.patch.object(np, "arange", side_effect=late), \
                        mock.patch.object(FuzzyFunctionSequence, "values",
                                          side_effect=late), \
                        pytest.raises(refused) as err:
                    scan(fam, 1.0, 0.1, 2.0, 10, horizon)
                if refused is ValueError:
                    assert str(err.value) == (f"horizon={cap + 1} exceeds the "
                                              f"scan budget of {cap} indices")

    def test_huge_horizon_named_by_its_size(self):
        # 10^5000 has more digits than Python prints (4300)
        with pytest.raises(ValueError) as err:
            slowly_decreasing_check(harmonic_crisp_family(), 1.0, 0.1, 2.0, 10,
                                    10 ** 5000)
        assert one_short_line(str(err.value), "budget")


class TestDecompositionIdentities:
    def test_top_past_the_float_range_named_by_its_size(self):
        # gamma(14300) = 2^14300 has more digits than Python prints (4300)
        with pytest.raises(ValueError) as err:
            dilation_mean_identity(alternating_crisp_family(),
                                   parse_scheme_spec("lacunary:pow2"),
                                   parse_weight_spec("recip5"), 1.5, 14300, 1.0)
        assert one_short_line(str(err.value), "float range")

    @pytest.mark.parametrize("scheme_spec", ["classical", "lacunary:pow2"])
    @pytest.mark.parametrize("lam", [1.5, 2.0])
    def test_dilation_identity_tiny_deviation(self, scheme_spec, lam):
        scheme = parse_scheme_spec(scheme_spec)
        fams = [alternating_crisp_family(), triangular_growing_family(),
                square_indicator_family(1.0), unequal_spread_family()]
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
                square_indicator_family(1.0), unequal_spread_family()]
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

    def test_infinite_lam_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^lam must lie in \(1, inf\), got inf$"):
            dilation_mean_identity(alternating_crisp_family(), classical_scheme(),
                                   constant_weights(1), math.inf, 8, 1.0)

    def test_zero_total_gap_is_degenerate(self):
        # the gap T_o - T_i was divided by: ZeroDivisionError, or a
        # RuntimeWarning under -W error
        fam = alternating_crisp_family()
        for identity, lam in ((dilation_mean_identity, 2.0),
                              (shrink_mean_identity, 0.5)):
            with pytest.raises(DegenerateWindowError, match="no total gap"):
                identity(fam, classical_scheme(), spike_weights(), lam, 16, 1.0)


def random_family(kind, seed):
    """Crisp or triangular values of period 97, drawn from ``seed``, whose
    centers and left spreads scale with x."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-2.0, 2.0, 97)
    l, r = (np.zeros(97), np.zeros(97)) if kind == "crisp" else rng.uniform(0, 1, (2, 97))

    def profile(ks, x):
        i = (ks - 1) % 97
        return c[i] * x, l[i] * x, r[i]
    return FuzzyFunctionSequence(f"random_{kind}", profile)


@pytest.fixture(scope="module")
def identity_weights(tmp_path_factory):
    """The weights of the identity batch test by name: two closed forms, a
    constant, a small random ``file:`` table and CI's zero-gap spike table
    (1e20, then 20,000 weights of 1 that it absorbs)."""
    root = tmp_path_factory.mktemp("identity-weights")
    small, spike = root / "small.txt", root / "spike.txt"
    rows = np.random.default_rng(3).uniform(0.01, 3.0, 4096).tolist()
    small.write_text("\n".join(map(repr, rows)))
    spike.write_text("1e20\n" + "1.0\n" * 20000)
    specs = {"const:0.7": "const:0.7", "recip5": "recip5",
             "harmonicplus": "harmonicplus", "file": f"file:{small}",
             "spike": f"file:{spike}"}
    return {name: parse_weight_spec(spec) for name, spec in specs.items()}


class TestIdentityBatch:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["crisp", "triangular"]),
           seed=st.integers(0, 2 ** 32 - 1),
           scheme=st.sampled_from(["classical", "pow:2", "lambda:half",
                                   "lacunary:pow2"]),
           weights=st.sampled_from(["const:0.7", "recip5", "harmonicplus", "file"]),
           x=st.floats(1.0, 2.0), horizon=st.sampled_from([16, 64]))
    # every total gap rounds to 0: no check is kept
    @example(kind="crisp", seed=0, scheme="classical", weights="spike", x=1.5,
             horizon=64)
    def test_experiment_checks_are_the_one_check_calls(
            self, identity_weights, kind, seed, scheme, weights, x, horizon):
        # lacunary tops are 2**n: at n = 8 they stay inside the small table
        horizon = 8 if scheme == "lacunary:pow2" else horizon
        fam, sch = random_family(kind, seed), parse_scheme_spec(scheme)
        w = identity_weights[weights]
        exp = tauberian_experiment(fam, 0.0, sch, w, XGridPolicy((x,)),
                                   horizon=horizon, n0=2, scan_horizon=16)
        want = []
        for n in [n for n in ladder(horizon) if 4 <= n <= max(8, horizon // 8)][-3:]:
            for name, identity, lams in (
                    ("dilation", dilation_mean_identity, (1.25, 1.5, 2.0)),
                    ("shrink", shrink_mean_identity, (0.8, 0.666667, 0.5))):
                for lam in lams:
                    try:
                        want.append((name, lam, n, x,
                                     identity(fam, sch, w, lam, n, x)))
                    except DegenerateWindowError:
                        pass
        assert ([(c.kind, c.lam, c.n, c.x) for c in exp.identity_checks]
                == [check[:4] for check in want])
        for c, (*_, dev) in zip(exp.identity_checks, want):
            assert c.ok == (dev <= 1e-9)
            assert abs(c.deviation - dev) <= 1e-12
        if weights == "spike":
            assert exp.identity_checks == []


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

    def test_conclusion_matches_cut_ladder_distance(self):
        # classical tops 1, 2, 4, ..., 64 mix squares and non-squares
        fam, scheme = unequal_spread_family(), classical_scheme()
        exp = tauberian_experiment(fam, None, scheme, constant_weights(1),
                                   uniform_grid(1, 2, 3), horizon=64,
                                   scan_horizon=64)
        for trace in exp.conclusion:
            for n, v in trace.points:
                want = distance(fam.eval(scheme.gamma(n), trace.x),
                                fam.claimed_limit(trace.x))
                assert v == pytest.approx(want, rel=1e-12)

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

    @pytest.mark.parametrize("family, holds", [
        (harmonic_crisp_family, True), (alternating_crisp_family, False),
        (lambda: parse_family_spec("ex3.2"), False)])  # three endpoints
    def test_slow_decrease_entries_are_the_first_lam_that_works(self, family,
                                                                holds):
        # every lam of the experiment tried in turn, as its definition reads;
        # a failing entry reports the last lam's scan
        fam, grid, scan = family(), uniform_grid(1, 2, 2), 400
        exp = tauberian_experiment(fam, None, classical_scheme(),
                                   constant_weights(1), grid, horizon=1024,
                                   scan_horizon=scan)
        want = []
        for x in grid.points:
            for eps in (0.5, 0.1, 0.01):
                for lam in (1.25, 1.5, 2.0):
                    wit = slowly_decreasing_check(fam, x, eps, lam, 10, scan)
                    if wit.holds or wit.last_bad <= scan // 2:
                        want.append(SlowDecreaseEntry(
                            x, eps, True, lam, wit.last_bad or 10, scan, 0, ()))
                        break
                else:
                    want.append(SlowDecreaseEntry(x, eps, False, lam, 10, scan,
                                                  wit.count, wit.violations))
        assert exp.slow_decrease == want
        assert exp.slowly_decreasing_holds is holds

    @pytest.mark.parametrize("horizon", [4096, 4097])
    def test_conclusion_away_from_the_limit_fails(self, horizon):
        # ex4.1's distance to its limit 0 is 1 at every top: the verdict
        # calls the plateau converged, but 1 away from the limit
        exp = tauberian_experiment(
            parse_family_spec("ex4.1"), None, classical_scheme(),
            constant_weights(1), uniform_grid(1, 2, 3), horizon=horizon)
        assert [str(t.verdict) for t in exp.conclusion] == ["converges(1)"] * 3
        assert exp.conclusion_holds is False and exp.sandwich_ok is False
        blob = exp.to_dict()
        assert blob["conclusion"]["holds"] is False
        assert "sandwich_ok" not in json.dumps(blob)

    def test_zero_total_gaps_skip_every_identity(self):
        exp = tauberian_experiment(
            parse_family_spec("ex4.1"), None, classical_scheme(),
            spike_weights(), uniform_grid(1, 2, 5), horizon=4096)
        assert exp.identity_checks == []
        # every total of condition 2 is 1e20 too: its ratios are all 1
        assert [tuple(r) for r in exp.condition2.values()] == [(1.0, False)] * 3

    def test_collapsed_shrinks_skipped_on_a_valid_scheme(self):
        # lambda:half windows are [n/2 + 1, n] at even n, so halving the top
        # drops it below beta at each identity n = 8, 16, 32
        exp = tauberian_experiment(
            parse_family_spec("ex4.1"), None, parse_scheme_spec("lambda:half"),
            harmonicplus_weights(), uniform_grid(1, 2, 5), horizon=256)
        kept = {(c.kind, c.lam, c.n) for c in exp.identity_checks}
        every = {(kind, lam, n) for n in (8, 16, 32)
                 for kind, lams in (("dilation", (1.25, 1.5, 2.0)),
                                    ("shrink", (0.8, 0.666667, 0.5)))
                 for lam in lams}
        assert len(exp.identity_checks) == 15
        assert every - kept == {("shrink", 0.5, n) for n in (8, 16, 32)}
        assert all(c.ok for c in exp.identity_checks)

    def test_window_top_past_the_walk_budget_refused_first(self):
        # the classical top 2^28 was refused only by the ord sweep, after
        # condition 2 had started on n_max = 2^26
        late = AssertionError("condition 2 started before refusing")
        with mock.patch.object(tauberian, "_ratio_conditions", side_effect=late), \
                pytest.raises(ValueError, match="classical: window top 268435456"):
            tauberian_experiment(
                alternating_crisp_family(), None, classical_scheme(),
                constant_weights(1), uniform_grid(1, 2, 2), horizon=1 << 28)

    def test_lacunary_ladder_stops_at_the_first_huge_top(self):
        # the tops 2^n of lacunary:pow2 were built for every rung before the
        # budget refused the largest: 2^(2^24) at this horizon
        built = []

        def k_fn(r):
            built.append(r)
            return 0 if r == 0 else 2 ** r

        scheme = schemes.lacunary_scheme(k_fn, "lacunary:pow2")
        fam, weights = alternating_crisp_family(), parse_weight_spec("recip5")
        for run, named in (
                (lambda: classify(fam, None, scheme, weights, 1.0, 0.1,
                                  uniform_grid(1, 2, 2), 1 << 24, ("sp",)),
                 "recip5: a walk over the weights up to k=2^128.00 exceeds "
                 "the budget"),
                (lambda: tauberian_experiment(fam, None, scheme, weights,
                                              uniform_grid(1, 2, 2), 1 << 24),
                 "lacunary:pow2: window top 2^128.00 exceeds the walk budget")):
            built.clear()
            with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
                run()
            assert max(built) == 128

    def test_constant_family_trivial_pass(self):
        fam = constant_family(2.0, 0.5, 0.5)
        exp = tauberian_experiment(
            fam, None, classical_scheme(), constant_weights(1),
            uniform_grid(1, 2, 3), horizon=2048, scan_horizon=300)
        assert exp.hypotheses_pass
        assert exp.conclusion_holds is True
        for n, v in exp.conclusion[0].points:
            assert v == 0.0

    @pytest.mark.parametrize("family, limit", [
        (alternating_crisp_family, None),  # slow decrease fails, witnesses
        (harmonic_crisp_family, None),
        (lambda: square_indicator_family(1.0), None),
        # a limit that moves with x moves the conclusion trace, not the scan
        (harmonic_crisp_family, lambda x: (x - 1.0, 0.0, 0.25 * x)),
    ])
    def test_x_free_points_match_one_point_runs(self, family, limit):
        fam = family()
        assert fam.x_free
        grid = uniform_grid(1.1, 1.9, 5)

        def run(grid):
            with mock.patch.object(tauberian, "slowly_decreasing_check",
                                   wraps=slowly_decreasing_check) as scan, \
                    mock.patch.object(tauberian, "_last_violations",
                                      wraps=tauberian._last_violations) as probe:
                exp = tauberian_experiment(fam, limit, classical_scheme(),
                                           constant_weights(1), grid,
                                           horizon=256, scan_horizon=128)
            return exp, (scan.call_count, probe.call_count)

        def at(entries, x):
            return json.dumps([e.to_dict() for e in entries if e.x == x])

        shared, scans = run(grid)
        for x in grid.points:
            one, one_scans = run(XGridPolicy((x,)))
            assert scans == one_scans  # the 5 points are scanned once
            assert at(shared.slow_decrease, x) == at(one.slow_decrease, x)
            assert at(shared.conclusion, x) == at(one.conclusion, x)
            assert (at(shared.summability.traces, x)
                    == at(one.summability.traces, x))
        # every point is still checked against the domain, as it is scanned
        late = AssertionError("a point outside the domain passed the scans")
        with mock.patch.object(tauberian, "classify", side_effect=late), \
                pytest.raises(ValueError, match=r"^x must lie in \[1, 2\], got 2.5$"):
            tauberian_experiment(fam, limit, classical_scheme(),
                                 constant_weights(1), XGridPolicy((1.0, 2.5)),
                                 horizon=256, scan_horizon=128)

    def test_x_dependent_family_scanned_at_every_point(self):
        fam = unequal_spread_family()
        assert not fam.x_free
        grid = uniform_grid(1.1, 1.9, 5)
        entries, scans = [], []
        for g in (grid, *(XGridPolicy((x,)) for x in grid.points)):
            with mock.patch.object(tauberian, "slowly_decreasing_check",
                                   wraps=slowly_decreasing_check) as scan, \
                    mock.patch.object(tauberian, "_last_violations",
                                      wraps=tauberian._last_violations) as probe:
                exp = tauberian_experiment(fam, None, classical_scheme(),
                                           constant_weights(1), g,
                                           horizon=256, scan_horizon=128)
            entries.append([e.to_dict() for e in exp.slow_decrease])
            scans.append(np.array([scan.call_count, probe.call_count]))
        # every point takes the scans and the one probe it takes alone
        assert (scans[0] == sum(scans[1:])).all() and scans[0][1] == 5
        assert entries[0] == sum(entries[1:], [])

    def test_report_serializes(self):
        exp = tauberian_experiment(
            harmonic_crisp_family(), None, classical_scheme(),
            constant_weights(1), uniform_grid(1, 2, 2), horizon=1024,
            scan_horizon=200)
        blob = json.dumps(exp.to_dict())
        assert "hypotheses" in blob and "conclusion" in blob

    @pytest.mark.parametrize("n0, scan_horizon, match", [
        (10, 0, "scan_horizon must be at least 1"),  # once read as 1024
        (0, -5, "scan_horizon must be at least 1"),
        (10, 11, r"n0=10 must lie in \[0, .* = 5\]"),  # compared no pair
        (10, 10, r"n0=10 must lie in \[0, .* = 5\]"),
        (10, 4, r"n0=10 must lie in \[0, .* = 2\]"),
        (-1, 64, "^n0 must be at least 0, got -1$"),
        (40, 1024, r"n0=40 must lie in \[0, .* = 32\]"),  # horizon 64 caps it
    ])
    def test_scan_horizon_that_verifies_nothing_refused(self, n0, scan_horizon,
                                                        match):
        late = AssertionError("the experiment started before refusing")
        with mock.patch.object(tauberian, "_ratio_conditions", side_effect=late), \
                pytest.raises(ValueError, match=match):
            tauberian_experiment(
                alternating_crisp_family(), None, classical_scheme(),
                constant_weights(1), uniform_grid(1, 2, 2), horizon=64,
                n0=n0, scan_horizon=scan_horizon)
