"""Slow-decrease detection and the windowed-mean Tauberian experiment.

A sequence is slowly decreasing (for given eps, lam > 1, n0) when no term
within the stretched lookahead window (n, floor(lam*n)] drops more than
eps below the window's start in the cut-wise partial order.  Together
with the dilation growth condition on the window totals, that hypothesis
upgrades ordinary windowed-mean summability to convergence of the
subsequence picked out by the window tops; the experiment here measures
every ingredient of that implication at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .numbers import ATOL, integer_at_least, real_in, triangular_profile_distance
from .schemes import (BetaGammaScheme, DegenerateWindowError, DILATION_LIMINF,
                      RatioResult, WeightSequence, _ratio_conditions,
                      dilated_indices, dilated_top, dilation_factor,
                      unique_ints, within_budget)
from .sequences import FuzzyFunctionSequence, XGridPolicy
from .summability import (ConvergenceReport, ModeTrace, _membership, _stream,
                          classify, ladder, ladder_windows, limit_profile_fn,
                          verdict)


@dataclass(frozen=True)
class SlowDecreaseWitness:
    """Outcome of an exhaustive slow-decrease scan.

    ``count`` is the number of violating (n, k) pairs with n0 < n <= horizon
    (for lam > 1, n < k <= floor(lam*n): the k-th term drops more than eps
    below the n-th; for lam < 1, floor(lam*n) < k <= n: the n-th drops more
    than eps below the k-th).  ``last_bad`` is the largest violating n, and
    ``violations`` holds the first 8 pairs in (n, k) order; a zero count
    means the property holds for these parameters on the horizon.
    """

    eps: float
    lam: float
    n0: int
    horizon: int
    violations: tuple[tuple[int, int], ...]
    count: int
    last_bad: Optional[int]

    @property
    def holds(self) -> bool:
        return self.count == 0


_BLOCK = 1 << 15  # window entries compared at once (2^15 beat 2^18 on time and RSS)
# Most rank-count table entries per scanned index, up to a constant: the
# table's block size is raised past isqrt(D) where D would need more.
_TABLE_PER_INDEX = 32
_WITNESSES = 8
# An identity deviation above rounding noise flags an arithmetic bug.
_IDENTITY_TOL = 1e-9
# Dilation factors the experiment tries, for slow decrease and condition 2.
_LAMBDAS = (1.25, 1.5, 2.0)
# Slow-decrease eps; the finest is also the ord sweep's eps and tolerance.
_EPS_LADDER = (0.5, 0.1, 0.01)


class _Scan(NamedTuple):
    """The checked ints and the rows of one slow-decrease scan.

    ``eps`` holds the checked eps, ``ns`` the rows with a nonempty window
    and ``starts``, ``widths`` their windows, the 0-based positions
    [start, start + width).  ``endpoints`` are the arrays over 1..horizon
    whose pairs are compared: c, then c - l and c + r where a spread is
    nonzero (a spread that is zero throughout repeats c's inequality).
    """

    eps: tuple
    n0: int
    horizon: int
    grow: bool
    ns: np.ndarray
    starts: np.ndarray
    widths: np.ndarray
    endpoints: list

    def sides(self, eps: float) -> list:
        """Each endpoint's (w, v) at eps: the pair (ns[i], k) violates
        there where w[k - 1] < v[i], and a pair violates where any
        endpoint does.

        Growth violates where window < row - eps - ATOL, shrink where
        window - eps - ATOL > row, written -(window - eps - ATOL) < -row
        as negation is exact.  Each is the exact negation of a per-pair
        comparison, as the values are checked finite and eps is a
        positive number (not NaN).
        """
        sides = []
        for a in self.endpoints:
            lowered = a - eps - ATOL
            sides.append((a, lowered[self.ns - 1]) if self.grow
                         else (-lowered, -a[self.ns - 1]))
        return sides


def _scan(seq: FuzzyFunctionSequence, x: float, eps_ladder, lam: float,
          n0: int, horizon: int) -> _Scan:
    """Check a scan's arguments, every eps of ``eps_ladder`` among them,
    and lay out its rows and endpoints from one evaluation of the family.
    A horizon past the index budget is refused before any array is built."""
    lam = dilation_factor(lam)
    eps = tuple(real_in(e, "eps", 0, math.inf, open_low=True) for e in eps_ladder)
    n0 = integer_at_least(n0, 0, "n0")
    horizon = within_budget(integer_at_least(horizon, n0 + 1, "horizon"),
                            "horizon=", "scan budget")
    x = seq.check_x(x)
    c, l, r = seq.values(np.arange(1, horizon + 1, dtype=np.int64), x)
    grow = lam > 1
    ns = np.arange(n0 + 1, horizon + 1, dtype=np.int64)
    cut = dilated_indices(ns, lam, horizon)
    # 0-based window [start, stop): k in (n, cut] or (cut, n]
    starts, stops = (ns, cut) if grow else (cut, ns)
    keep = stops > starts
    ns, starts, widths = ns[keep], starts[keep], (stops - starts)[keep]
    endpoints = [c]
    if l.any():
        endpoints.append(c - l)
    if r.any():
        endpoints.append(c + r)
    return _Scan(eps, n0, horizon, grow, ns, starts, widths, endpoints)


def _compares(sides: list, starts: np.ndarray, widths: np.ndarray):
    """Yield (i, j, bad) for rows i:j of about _BLOCK window entries: bad[r,
    c] is whether w[starts[i + r] + c] < v[i + r] at some side (w, v), and
    False past widths[i + r].  Windows are rows of a sliding view of each
    padded w, a slice, not a copy, where a block's starts run one by one:
    memory stays O(len(w) + _BLOCK) however many pairs violate."""
    wmax = int(widths.max(initial=0))
    if not wmax:
        return
    views = []
    for w, v in sides:  # sliding_window_view's layout, without its checks
        padded = np.concatenate((w, np.zeros(wmax, w.dtype)))  # masked below
        views.append((np.ndarray((len(w) + 1, wmax), w.dtype, padded, 0,
                                 padded.strides * 2), v))
    # blocks end where the least rise-then-fall bound on the widths sums
    # past a multiple of _BLOCK: about a block's widest where they zigzag
    bound = np.minimum(np.maximum.accumulate(widths),
                       np.maximum.accumulate(widths[::-1])[::-1])
    running = np.cumsum(bound)
    edges = unique_ints(np.searchsorted(
        running, np.arange(0, running[-1], _BLOCK), "right")).tolist()
    for i, j in zip(edges, edges[1:] + [len(widths)]):
        s, ws = starts[i:j], widths[i:j]
        w, narrow = int(ws.max()), int(ws.min())
        if s[-1] - s[0] == j - i - 1 and (s[1:] - s[:-1] == 1).all():
            s = slice(int(s[0]), int(s[0]) + j - i)
        (view, v), *rest = views
        bad = view[s, :w] < v[i:j, None]
        for view, v in rest:
            bad |= view[s, :w] < v[i:j, None]
        if narrow < w:  # only columns past the narrowest window need the mask
            bad[:, narrow:] &= np.arange(narrow, w) < ws[:, None]
        yield i, j, bad


def _violation_blocks(scan: _Scan, sides: list) -> tuple[int, np.ndarray]:
    """The violation count of a scan at the ``sides`` of one eps and the
    sorted indices of its violating rows, from every pair: for scans with
    several endpoints, whose union the rank-count table cannot count."""
    count, hit = 0, np.zeros(len(scan.widths), dtype=bool)
    for i, j, bad in _compares(sides, scan.starts, scan.widths):
        count += int(np.count_nonzero(bad))
        bad.any(axis=1, out=hit[i:j])
    return count, np.flatnonzero(hit)


def _rank_counts(scan: _Scan, sides: list) -> tuple[int, np.ndarray]:
    """The violation count of a scan at the one side ``(w, v)`` of one eps
    and the sorted indices of its violating rows: row i counts the
    positions k of its window with w[k] < v[i], exactly and with no
    arithmetic on values.

    With r_k the rank of w[k] among w's D distinct values and q_i the
    number of them below v[i], w[k] < v[i] exactly where r_k < q_i.  The
    positions fall into blocks of b, and ``table[m, q]`` counts the k in
    the first m blocks with r_k < q: a row's full blocks cost two lookups,
    and ``_compares`` takes only its partial blocks at either end.  b =
    isqrt(D) balances the table's O(H*D/b) against the compares' O(H*b),
    so a scan costs O(H*sqrt(D)); b is raised where needed to hold the
    table to about _TABLE_PER_INDEX entries per position.
    """
    (w, v), = sides
    starts, widths = scan.starts, scan.widths
    h = len(w)
    distinct = np.sort(w)
    keep = np.ones(h, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=keep[1:])
    distinct = distinct[keep]
    d = len(distinct)
    q = np.searchsorted(distinct, v)
    b = max(math.isqrt(d), -(-(d + 1) // _TABLE_PER_INDEX))
    # block m's rank r is first counted at [m + 1, r + 1]; the two sums
    # then count the blocks before row m and the ranks before column q
    rows = -(-h // b) + 1
    table = np.bincount((np.arange(h) // b + 1) * (d + 1)
                        + np.searchsorted(distinct, w) + 1,
                        minlength=rows * (d + 1)).reshape(rows, d + 1)
    np.cumsum(table, axis=0, out=table)
    np.cumsum(table, axis=1, out=table)
    stops = starts + widths
    first = -(-starts // b)  # the first full block, and one past the last:
    last = np.maximum(stops // b, first)  # no full block where they meet
    counts = table[last, q] - table[first, q]
    if b > 1:
        # the partial blocks [start, first*b) and [last*b, stop)
        for lo, hi in ((starts, np.minimum(first * b, stops)),
                       (np.minimum(last * b, stops), stops)):
            for i, j, bad in _compares(sides, lo, hi - lo):
                counts[i:j] += np.count_nonzero(bad, axis=1)
    return int(counts.sum()), np.flatnonzero(counts)


def slowly_decreasing_check(seq: FuzzyFunctionSequence, x: float, eps: float,
                            lam: float, n0: int, horizon: int) -> SlowDecreaseWitness:
    """Exhaustive slow-decrease scan of rows n0 < n <= horizon, for eps in
    (0, inf) and lam in (0, 1) or (1, inf), each refused by name otherwise.

    For lam > 1 each row n is compared with k in (n, floor(lam*n)], k <=
    horizon, for the k-th term dropping more than eps below the n-th; for
    0 < lam < 1 with k in (floor(lam*n), n], for the n-th term dropping
    more than eps below the k-th.  Triangular values make the cut-wise
    comparison equivalent to three endpoint inequalities (levels 0 and 1),
    and a spread that is zero on the whole horizon drops its endpoint.

    With one endpoint left (every crisp family, and any whose spreads are
    all zero here), ``_rank_counts`` counts the violations from a table
    with no per-pair comparison; with several, ``_violation_blocks``
    compares the pairs.  Either kernel returns the count and the violating
    rows; the first 8 pairs come from comparing the first violating rows
    again, one row at a time at every endpoint, stopped once it has them.
    """
    lam = dilation_factor(lam)
    scan = _scan(seq, x, (eps,), lam, n0, horizon)
    sides = scan.sides(scan.eps[0])
    kernel = _rank_counts if len(sides) == 1 else _violation_blocks
    count, hit = kernel(scan, sides)
    last_bad = int(scan.ns[hit[-1]]) if hit.size else None
    pairs = []  # the first violating rows hold the first pairs: read them
    for i in hit[:_WITNESSES].tolist():
        s, n = int(scan.starts[i]), int(scan.ns[i])
        bad = np.zeros(int(scan.widths[i]), dtype=bool)
        for w, v in sides:
            bad |= w[s:s + len(bad)] < v[i]
        pairs += [(n, s + c + 1) for c in
                  np.flatnonzero(bad)[:_WITNESSES - len(pairs)].tolist()]
        if len(pairs) == _WITNESSES:
            break
    return SlowDecreaseWitness(scan.eps[0], lam, scan.n0, scan.horizon,
                               tuple(pairs), count, last_bad)


def _window_minima(a: np.ndarray, starts: np.ndarray,
                   widths: np.ndarray) -> np.ndarray:
    """Least a[k] over each window [starts[i], starts[i] + widths[i]),
    every width at least 1.

    Level j of a sparse table holds the least a over each run of 2**j
    positions; a window whose width has level j (2**j <= width < 2**(j+1))
    is the union of two such runs, from its start and to its stop.  Each
    level is built from the one below it and answers its windows before
    the next replaces it, so memory stays O(H) in O(H log H) time.
    """
    out = np.empty(len(starts))
    levels = np.frexp(widths)[1] - 1  # floor(log2(width)), exact below 2**53
    m = a
    for j in range(int(levels.max(initial=-1)) + 1):
        if j:
            half = 1 << (j - 1)
            m = np.minimum(m[:-half], m[half:])
        at = levels == j
        s = starts[at]
        out[at] = np.minimum(m[s], m[s + widths[at] - (1 << j)])
    return out


def _last_violations(seq: FuzzyFunctionSequence, x: float, eps_ladder,
                     lam: float, n0: int, horizon: int) -> list[Optional[int]]:
    """``slowly_decreasing_check(seq, x, eps, lam, n0, horizon).last_bad``
    for each eps of ``eps_ladder``, from one evaluation of the family.

    A row violates at an endpoint array a where its window's least a drops
    below a[n-1] - eps - ATOL (lam > 1), or its greatest a, less eps and
    ATOL, passes a[n-1] (lam < 1).  y -> y - eps - ATOL never decreases
    under rounding, so the greatest lowered value is the lowered greatest:
    each is the scan's own comparison at the window's extreme, and the
    answer is the scan's bit for bit.  The extremes (``_window_minima`` of
    a, or of -a) are taken once for all eps; each eps then costs O(H).
    """
    scan = _scan(seq, x, eps_ladder, lam, n0, horizon)
    rows = scan.ns - 1
    extremes = [(a[rows], _window_minima(a if scan.grow else -a, scan.starts,
                                         scan.widths))
                for a in scan.endpoints]
    lasts = []
    for eps in scan.eps:
        bad = np.zeros(len(rows), dtype=bool)
        for row, least in extremes:
            bad |= (least < row - eps - ATOL if scan.grow
                    else -least - eps - ATOL > row)
        hit = np.flatnonzero(bad)
        lasts.append(int(scan.ns[hit[-1]]) if hit.size else None)
    return lasts


# ---------------------------------------------------------------------------
# Window-mean decomposition identities
# ---------------------------------------------------------------------------

def _mean_identities(seq: FuzzyFunctionSequence, scheme: BetaGammaScheme,
                     weights: WeightSequence, checks, x: float,
                     skip: bool = False) -> list[Optional[float]]:
    """Decomposition deviation of each (lam, n) of ``checks``, for either
    direction of the moved top; None for a check that ``skip`` leaves out.

    The outer window is the longer of the base window and its dilation by
    lam, the inner one the shorter; both start at beta(n), so the outer
    total T_o is the inner T_i plus the gap, and the tail mean runs over
    the indices between the two tops.  A window that cannot be formed, an
    empty tail or a gap that rounds to 0 raises DegenerateWindowError, or
    with ``skip`` leaves its check out.  The means are (center, left,
    right) triples.  Every check's totals come from one ``window_totals``
    call and its inner, outer and tail sums from one stream, so a lone
    check's stream is cut only where its own windows end.  The shrink
    sides are compared in the mirrored order, as the distance is
    symmetric bit for bit.
    """
    x = seq.check_x(x)

    def degenerate(lam, n, b, g):
        return DegenerateWindowError(
            f"{scheme.label}|x{lam:g}: the window [{b}, {g}] at n={n} and its "
            "moved top leave no tail or no total gap")

    devs, rows = [None] * len(checks), []
    for i, (lam, n) in enumerate(checks):
        try:
            b, g = scheme.window(n)
            g_i, g_o = sorted((g, dilated_top(g, lam)))
            if not b <= g_i < g_o:
                raise degenerate(lam, n, b, g)
        except DegenerateWindowError:
            if skip:
                continue
            raise
        rows.append((i, lam, n, b, g, g_i, g_o))
    if not rows:
        return devs
    at, lams, ns, bs, gs, tops_i, tops_o = zip(*rows)
    t_i, t_o = weights.window_totals(bs * 2, tops_i + tops_o).reshape(2, -1)
    keep = t_o - t_i > 0
    if not (skip or keep.all()):
        j = int(np.argmin(keep))
        raise degenerate(lams[j], ns[j], bs[j], gs[j])
    kept = np.flatnonzero(keep).tolist()
    if not kept:
        return devs
    sums, _ = _stream(seq, weights, [(0.0, 0.0, 0.0)], [x],
                      [w for j in kept for w in ((bs[j], tops_i[j]), (bs[j], tops_o[j]),
                                                 (tops_i[j] + 1, tops_o[j]))],
                      math.inf)
    t_i, t_o = t_i[keep, None], t_o[keep, None]
    gap = t_o - t_i
    s_i, s_o, s_tail = (sums[0, j::3, 1:] / t for j, t in enumerate((t_i, t_o, gap)))
    grow = (np.array(lams) > 1)[keep, None]
    # lam > 1: R = T_o/gap, R*S_o + S_i against R*S_i + tail;
    # lam < 1: R = T_i/gap, R*S_i + tail against R*S_o + S_o
    ratio = np.where(grow, t_o, t_i) / gap
    dev = triangular_profile_distance(*(ratio * s_o + np.where(grow, s_i, s_o)).T,
                                      *(ratio * s_i + s_tail).T)
    for j, d in zip(kept, dev.tolist()):
        devs[at[j]] = d
    return devs


def dilation_mean_identity(seq: FuzzyFunctionSequence, scheme: BetaGammaScheme,
                           weights: WeightSequence, lam: float, n: int,
                           x: float) -> float:
    """Deviation of the lam > 1 window-mean decomposition, as a distance.

    With R = T_dil / (T_dil - T), the dilated and base window means obey
        R * S_dil + S = R * S + (1 / (T_dil - T)) * sum over the overshoot
    where the overshoot runs over (gamma(n), floor(lam*gamma(n))].  Both
    sides are assembled independently; the return value is their metric
    distance (an algebraic rearrangement, so anything above rounding
    noise indicates an arithmetic bug).
    """
    lam = dilation_factor(lam, True)
    return _mean_identities(seq, scheme, weights, [(lam, n)], x)[0]


def shrink_mean_identity(seq: FuzzyFunctionSequence, scheme: BetaGammaScheme,
                         weights: WeightSequence, lam: float, n: int,
                         x: float) -> float:
    """Deviation of the 0 < lam < 1 counterpart.

    With R = T_shr / (T - T_shr), the shrunken and base window means obey
        R * S_shr + (1 / (T - T_shr)) * sum over the shortfall = R * S + S
    where the shortfall runs over (floor(lam*gamma(n)), gamma(n)].
    """
    lam = dilation_factor(lam, False)
    return _mean_identities(seq, scheme, weights, [(lam, n)], x)[0]


# ---------------------------------------------------------------------------
# The full experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlowDecreaseEntry:
    x: float
    eps: float
    holds: bool
    lam: float
    n0: int
    scan_horizon: int
    violation_count: int
    witness: tuple[tuple[int, int], ...]  # first few violating pairs

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class IdentityCheck:
    kind: str  # "dilation" | "shrink"
    lam: float
    n: int
    x: float
    deviation: float
    ok: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class TauberianReport:
    family: str
    scheme: str
    weights: str
    horizon: int
    eps_ladder: tuple[float, ...]
    condition2: dict[float, RatioResult] = field(default_factory=dict)
    slow_decrease: list[SlowDecreaseEntry] = field(default_factory=list)
    summability: Optional[ConvergenceReport] = None
    conclusion: list = field(default_factory=list)  # ModeTrace-shaped entries
    identity_checks: list[IdentityCheck] = field(default_factory=list)

    @property
    def condition2_holds(self) -> bool:
        return all(r.holds for r in self.condition2.values())

    @property
    def slowly_decreasing_holds(self) -> bool:
        return all(e.holds for e in self.slow_decrease)

    @property
    def summable(self) -> Optional[bool]:
        return self.summability.membership.get("ord") if self.summability else None

    @property
    def hypotheses_pass(self) -> bool:
        return bool(self.condition2_holds and self.slowly_decreasing_holds
                    and self.summable)

    @property
    def conclusion_holds(self) -> Optional[bool]:
        """Membership of the conclusion traces, whose limit is 0, within the
        finest eps of the ladder: a trace that converges away from 0 fails."""
        return _membership(self.conclusion, min(self.eps_ladder))

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "scheme": self.scheme,
            "weights": self.weights,
            "horizon": self.horizon,
            "eps_ladder": list(self.eps_ladder),
            "hypotheses": {
                "condition2": {
                    str(lam): {"estimate": r.estimate, "holds": r.holds}
                    for lam, r in self.condition2.items()
                },
                "slowly_decreasing": [e.to_dict() for e in self.slow_decrease],
                "summable": {
                    "membership": self.summable,
                    "verdicts": [
                        {"x": t.x, "verdict": t.verdict.kind,
                         "estimate": t.verdict.estimate}
                        for t in (self.summability.traces if self.summability else [])
                    ],
                },
                "all_pass": self.hypotheses_pass,
            },
            "conclusion": {
                "holds": self.conclusion_holds,
                "per_x": [t.to_dict() for t in self.conclusion],
            },
            "identity_checks": [c.to_dict() for c in self.identity_checks],
        }


def _slow_decrease_entries(seq: FuzzyFunctionSequence, x: float, n0: int,
                           scan_horizon: int) -> list[SlowDecreaseEntry]:
    """Slow decrease at x for each eps of _EPS_LADDER: the first lam of
    _LAMBDAS that works.

    "Slowly decreasing" quantifies n0 and lam existentially per eps.  A
    lam works when its violations die out early enough that the clean
    tail (n0, scan_horizon] is itself exhaustively verified, with n0 no
    later than half the scan (otherwise the tail is too short to trust).
    As (n, floor(lam*n)] grows with lam, so do the violations: the first
    lam works whenever any does, and a failing entry reports the last's.
    The first lam needs only each eps's last violating row, and one
    evaluation of the family gives them all: ``_last_violations`` reads
    them from the windows' minima.  A failing entry still takes the full
    scan, ``slowly_decreasing_check``, for its count and witnesses.
    """
    entries = []
    for eps, last_bad in zip(_EPS_LADDER, _last_violations(
            seq, x, _EPS_LADDER, _LAMBDAS[0], n0, scan_horizon)):
        # the tail (last_bad, scan_horizon] is clean by definition
        if last_bad is None or last_bad <= scan_horizon // 2:
            entries.append(SlowDecreaseEntry(x, eps, True, _LAMBDAS[0],
                                             last_bad or n0, scan_horizon, 0, ()))
        else:
            wit = slowly_decreasing_check(seq, x, eps, _LAMBDAS[-1], n0,
                                          scan_horizon)
            entries.append(SlowDecreaseEntry(x, eps, False, _LAMBDAS[-1], n0,
                                             scan_horizon, wit.count, wit.violations))
    return entries


def tauberian_experiment(seq: FuzzyFunctionSequence, limit,
                         scheme: BetaGammaScheme, weights: WeightSequence,
                         grid: XGridPolicy, horizon: int,
                         n0: int = 10,
                         scan_horizon: int = 1024) -> TauberianReport:
    """Measure hypotheses and conclusion of the windowed-mean Tauber test.

    Hypotheses: the dilation growth condition on window totals, slow
    decrease at every grid point for every eps of _EPS_LADDER (some tested
    lam > 1 must work), and ordinary summability to the limit.  The
    conclusion traces d(f_{gamma(n)}(x), limit(x)) along the ladder.
    Hypothesis failures are reported, never fatal: the conclusion is
    still measured so a failed hypothesis remains distinguishable from a
    failed conclusion, but a window that cannot be formed is a named
    error, never an estimate.  An x-free family is scanned, and evaluated
    at the tops, at the first grid point only.  The scans cover rows up
    to min(horizon, scan_horizon), and n0 may be at most half of that.  A
    window top past the index budget is refused before any work.  The
    decomposition identities at the middle grid point run as one batch
    (``_mean_identities``), which leaves out a check whose windows cannot
    be formed; the public one-check identities are not called.  Condition
    2 runs every lam of _LAMBDAS as one batch too (``_ratio_conditions``),
    not through ``ratio_condition``.
    """
    ns = ladder(horizon)
    horizon = ns[-1]  # a Python int for the report, whatever integer came in
    scan_horizon = min(horizon, integer_at_least(scan_horizon, 1, "scan_horizon"))
    n0 = integer_at_least(n0, 0, "n0")  # a Python int for the report too
    if n0 > scan_horizon // 2:
        raise ValueError(f"n0={n0} must lie in [0, min(horizon, scan_horizon) "
                         f"// 2 = {scan_horizon // 2}]: a later n0 leaves too "
                         "short a tail to verify")
    limit_fn = limit_profile_fn(seq, limit)
    tops = [g for _, g in ladder_windows(scheme, ns)]
    within_budget(max(tops), f"{scheme.label}: window top ", "walk budget")
    report = TauberianReport(
        family=seq.label, scheme=scheme.label, weights=weights.label,
        horizon=horizon, eps_ladder=_EPS_LADDER,
        condition2=dict(zip(_LAMBDAS, _ratio_conditions(
            scheme, weights, _LAMBDAS, max(horizon // 4, 8), DILATION_LIMINF))))
    tops = np.array(tops, dtype=np.int64)
    for i, x in enumerate(grid.points):
        x = seq.check_x(x)
        if i and seq.x_free:
            entries = [replace(e, x=x) for e in entries]
        else:
            entries = _slow_decrease_entries(seq, x, n0, scan_horizon)
            at_tops = seq.values(tops, x)
        report.slow_decrease += entries
        dev = triangular_profile_distance(*at_tops, *limit_fn(x))
        pts = tuple(zip(ns, dev.tolist()))
        report.conclusion.append(ModeTrace(x, "tail", 1.0, pts, verdict(pts)))

    report.summability = classify(seq, limit, scheme, weights, theta=1.0,
                                  eps=min(_EPS_LADDER), grid=grid,
                                  horizon=horizon, modes=("ord",))

    mid_x = seq.check_x(grid.points[len(grid.points) // 2])
    identity_ns = [n for n in ns if 4 <= n <= max(8, horizon // 8)][-3:] or [ns[-1]]
    checks = [(lam, n) for n in identity_ns
              for lam in _LAMBDAS + tuple(round(1.0 / lam, 6) for lam in _LAMBDAS)]
    devs = _mean_identities(seq, scheme, weights, checks, mid_x, skip=True)
    report.identity_checks = [
        IdentityCheck("dilation" if lam > 1 else "shrink", lam, n, mid_x, dev,
                      dev <= _IDENTITY_TOL)
        for (lam, n), dev in zip(checks, devs) if dev is not None]
    return report
