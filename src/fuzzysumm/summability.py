"""Convergence transforms for fuzzy function sequences and their verdicts.

Three finite-horizon transforms per evaluation point x:

* ``sp_density``      -- share of indices k <= floor(T_n) whose weighted
                         deviation from the limit reaches eps, normalized
                         by T_n**theta (pointwise statistical density).
* ``absolute_partial``-- weighted mean of metric deviations over the n-th
                         window, normalized by T_n**theta.
* ``ordinary_partial``-- the fuzzy-valued weighted window mean itself.

Traces of these along ``ladder(horizon)`` feed ``verdict``; ``classify``
assembles per-point verdicts and class membership into a report.  All
three are reductions of one stream of (k, t_k, f_k(x)): a sweep walks
it once per point (per distinct limit, for a family that does not read
x), sums the windows it is asked for, and applies theta last.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import schemes
from .numbers import (NOT_TRIANGULAR, FuzzyNumber, integer_at_least,
                      is_triangular, real_in, triangular,
                      triangular_profile_distance, triangular_profile_of)
from .schemes import (_HUGE_INDEX, BetaGammaScheme, WeightSequence,
                      unique_ints, weighted_total)
from .sequences import (ZERO_SPREADS, FuzzyFunctionSequence, LimitProfile,
                        XGridPolicy)

MODES = ("sp", "abs", "ord")
_Sweep = namedtuple("_Sweep", "ns windows totals xs limits hits sums")


def check_mode_args(thetas: Sequence[float], eps: float,
                    modes: Sequence[str] = ()) -> tuple[list[float], float]:
    """Refuse a theta outside (0, 1], an eps outside (0, inf) or an unknown
    mode; return the thetas and eps as Python floats."""
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    thetas = [real_in(theta, "theta", 0, 1, open_low=True) for theta in thetas]
    return thetas, real_in(eps, "eps", 0, math.inf, open_low=True)


@dataclass(frozen=True)
class ModeParams:
    """Shared knobs of the transforms: order theta, threshold eps, and the
    window/weight pair."""

    theta: float
    eps: float
    scheme: BetaGammaScheme
    weights: WeightSequence

    def __post_init__(self):  # frozen: the checked floats are set past the guard
        (theta,), eps = check_mode_args((self.theta,), self.eps)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "eps", eps)


def limit_profile_fn(seq: FuzzyFunctionSequence, limit=None) -> Callable[[float], LimitProfile]:
    """Normalize a limit argument to a callable x -> (center, left, right).

    Accepts None (the family's claimed limit), a FuzzyNumber with
    triangular cuts, a real (numpy scalars included), a tuple or list of
    three reals, or a callable giving one of those at x.  A value of any
    other type is a TypeError, and one that is not ``is_triangular`` a
    ValueError, each naming the family, the limit and x.
    """
    if limit is None:
        if seq.limit_profile is None:
            raise ValueError(f"{seq.label}: no limit given and none claimed")
        given, what = seq.limit_profile, "claimed limit"
    else:
        given, what = (limit if callable(limit) else lambda x: limit), "limit"

    def checked(x: float) -> LimitProfile:
        v = given(x)
        if isinstance(v, FuzzyNumber):
            trip = triangular_profile_of(v)
        elif isinstance(v, numbers.Real):
            trip = (float(v), 0.0, 0.0)
        elif (isinstance(v, (tuple, list)) and len(v) == 3
              and all(isinstance(e, numbers.Real) for e in v)):
            trip = tuple(float(e) for e in v)
        else:
            raise TypeError(f"{seq.label}: the {what} {v!r} at x={x:g} is not "
                            f"a FuzzyNumber, a real or a triple of reals")
        if not is_triangular(*trip):
            raise ValueError(f"{seq.label}: the {what} {trip} at x={x:g} has a "
                             f"{NOT_TRIANGULAR}")
        return trip

    return checked


def _stream(seq: FuzzyFunctionSequence, weights: WeightSequence,
            limits: Sequence[LimitProfile], xs: Sequence[float],
            windows: Sequence[tuple[int, int]],
            eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Sums and hit counts over every window [lo, hi] at every point.

    ``sums[i, w]`` holds the sums of t*dev, t*c, t*l and t*r over the w-th
    window at the i-th point, and ``hits[i, w]`` the count of its indices
    with t*dev >= eps; integer ends, and hi < lo is empty.  k is streamed once
    per distinct key, cut at both ends of every nonempty window, and a
    window sums to the ``math.fsum`` of its pieces (ValueError past the
    float range).  A walk over the weights also cuts at every chunk end;
    the sparse path on closed-form weights walks nothing and cuts only at
    the window ends.  A point's key is its limit triple for an x-free
    family and the pair (x, limit) otherwise; points that share a key
    share one stream, and piece columns that are equal byte for byte
    share one reduction.  A family with an exception hook and a claimed
    limit takes ``_sparse_pieces``, unless a term off its exceptions can
    reach eps: that needs an explicit limit off the claimed one and a
    finite eps.  Others take ``_dense_pieces``.
    """
    windows = [(integer_at_least(lo, None, "lo"),
                integer_at_least(hi, None, "hi")) for lo, hi in windows]
    # with no nonempty window the stream walks nothing: (0, 0]
    cuts = [k for lo, hi in windows if lo <= hi for k in (lo - 1, hi)] or [0]
    weights.ensure(max(cuts))  # refuse before int64 overflow or allocation
    cuts = unique_ints(cuts)
    slot = {}
    rows = [slot.setdefault(lim if seq.x_free else (x, lim), len(slot))
            for x, lim in zip(xs, limits)]
    firsts = [rows.index(j) for j in range(len(slot))]
    xs, limits = [xs[i] for i in firsts], [limits[i] for i in firsts]
    ends = None
    # a product or sum past the float range is named below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        if seq.exceptional is not None and seq.limit_profile is not None:
            bases = list(map(limit_profile_fn(seq), xs))
            d0s = [float(triangular_profile_distance(*b, *lim))
                   for b, lim in zip(bases, limits)]
            if eps == math.inf or not any(d0s):
                ends, pieces = _sparse_pieces(seq, weights, limits, xs, cuts,
                                              eps, bases, d0s)
        if ends is None:
            ends, pieces = _dense_pieces(seq, weights, limits, xs, cuts, eps)
    # a piece slice of an empty window is empty: b <= a
    spans = np.searchsorted(ends, [(lo - 1, hi) for lo, hi in windows],
                            side="right").tolist()
    # one column (a view) per key and quantity; a column equal to an earlier
    # one byte for byte (so -0.0 is not 0.0) shares its reduction
    cols = [col for piece in pieces for col in piece.T]
    distinct = {}
    which = [distinct.setdefault(col.tobytes(), len(distinct)) for col in cols]
    firsts = [which.index(m) for m in range(len(distinct))]
    # one column at a time as a list; the counts are small integers, so
    # their fsum is exact
    try:
        reduced = np.array([[math.fsum(col[a:b]) for a, b in spans]
                            for col in (cols[j].tolist() for j in firsts)])
        finite = np.isfinite(reduced).all()
    except (OverflowError, ValueError):  # past the float range, or inf - inf
        finite = False
    if not finite:
        raise ValueError(f"{seq.label}: a window sum over {weights.label} weights "
                         "overflows a float")
    sums = reduced.reshape(len(firsts), len(spans))[which]
    sums = sums.reshape(len(xs), 5, len(spans)).transpose(0, 2, 1)[rows]
    return sums[..., :4], sums[..., 4].astype(np.int64)


def _dense_pieces(seq: FuzzyFunctionSequence, weights: WeightSequence,
                  limits: Sequence[LimitProfile], xs: Sequence[float],
                  cuts: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the pieces of (cuts[0], cuts[-1]] and, per point, each
    piece's sums of t*dev, t*c, t*l and t*r, then its count of t*dev >= eps.

    Piece j is (ends[j-1], ends[j]]: each chunk of ``weights.chunks`` costs
    one ``seq.profile`` call per point and is split at the cuts inside it.
    Only when a spread's min or max, or a piece's sum of t*dev >= 0, is out
    of range does ``seq.values`` run, to raise its error naming the first
    bad k.  A chunk whose profile passes one all-zero array for both
    spreads (a slice of ZERO_SPREADS is known to be one without a pass),
    at a limit with zero spreads, takes |c - c0| as the distance (|t*c| at
    c0 = 0, as t > 0) and 0 as the spread sums, with the bits of
    ``triangular_profile_distance``.
    """
    # empty leading blocks keep the concatenations valid for an empty range
    ends, sums = [np.zeros(0, dtype=np.int64)], [np.zeros((len(xs), 0, 5))]
    size = min(int(cuts[-1] - cuts[0]), schemes._CHUNK)  # buffers for the walk
    tds, tcs, hits = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for ks, t, starts, last in weights.chunks(cuts):
        ends.append(last)
        sums.append(np.empty((len(xs), len(starts), 5)))
        td, tc, hit = tds[:len(ks)], tcs[:len(ks)], hits[:len(ks)]
        for i, x in enumerate(xs):
            c, l, r = seq.profile(ks, x)
            # the built-in families pass one array for both spreads, the
            # crisp ones a slice of ZERO_SPREADS; NaN is truthy, so a NaN
            # spread is not zero and is bounds-checked
            zero_spreads = r is l and (l.base is ZERO_SPREADS or not l.any())
            if not zero_spreads and not all(
                    0 <= s.min() and s.max() < np.inf  # NaN fails
                    for s in ((l,) if r is l else (l, r))):
                seq.values(ks, x)
            out = sums[-1][i]
            c0, l0, r0 = limits[i]
            np.multiply(t, c, out=tc)
            if zero_spreads and not (l0 or r0):
                # all spreads zero: the distance is |c - c0|, bit for bit
                if c0 == 0:
                    np.abs(tc, out=td)
                else:
                    np.abs(np.subtract(c, c0, out=td), out=td)
                    td *= t
                out[:, 2:4] = 0.0
            else:
                np.multiply(t, triangular_profile_distance(c, l, r, c0, l0, r0),
                            out=td)
                out[:, 2] = np.add.reduceat(t * l, starts)
                out[:, 3] = out[:, 2] if r is l else np.add.reduceat(t * r, starts)
            np.add.reduceat(td, starts, out=out[:, 0])
            one = len(starts) == 1
            if not (out[0, 0] if one else out[:, 0].max()) < np.inf:  # NaN fails
                seq.values(ks, x)
            np.add.reduceat(tc, starts, out=out[:, 1])
            np.greater_equal(td, eps, out=hit)
            if one:
                out[0, 4] = np.count_nonzero(hit)
            else:
                np.add.reduceat(hit, starts, out=out[:, 4])
    return np.concatenate(ends), np.concatenate(sums, axis=1)


def _sparse_pieces(seq: FuzzyFunctionSequence, weights: WeightSequence,
                   limits: Sequence[LimitProfile], xs: Sequence[float],
                   cuts: np.ndarray, eps: float, bases: Sequence[LimitProfile],
                   d0s: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Piece ends and sums as ``_dense_pieces`` lays them out, for a family
    equal to its claimed limit off its exceptions.

    ``weights.piece_sums`` gives the pieces and each one's weight sum W_j
    with no profile: one walk that checks every weight in range (a
    ``file:`` table or hand-built weights), or, for the closed-form
    weights, which are positive by construction, one closed-form sum per
    cut interval and no walk.  Off the exceptions every term is the
    claimed limit's value ``bases[i]`` at deviation ``d0s[i]`` from
    ``limits[i]``, so a piece sums to base*W_j (d0*W_j for t*dev) plus,
    from its exceptions, t*(value - base): summed pairwise per piece where
    nothing was walked (a piece may then hold thousands), a running sum
    where a walked piece spans one chunk at most.  No term off them
    reaches eps, so the hits come from the exceptions alone.
    """
    ks = seq.exceptional(int(cuts[0]) + 1, int(cuts[-1]))
    ends, w = weights.piece_sums(cuts)
    t = weights.values(ks)  # checked with the piece sums, or positive
    piece = np.searchsorted(ends, ks)
    if weights.sums is None:  # a walked piece spans one chunk at most
        def excepted(terms: np.ndarray) -> np.ndarray:
            return np.bincount(piece, terms, len(ends))
    else:
        # a piece may hold thousands: pairwise sums, one reduceat segment
        # per piece that holds any, as the exceptions are sorted
        first = np.flatnonzero(np.diff(piece, prepend=-1))

        def excepted(terms: np.ndarray) -> np.ndarray:
            out = np.zeros(len(ends))
            out[piece[first]] = np.add.reduceat(terms, first)
            return out
    sums = np.empty((len(xs), len(ends), 5))
    for i, x in enumerate(xs):
        c, l, r = seq.values(ks, x)
        dev = triangular_profile_distance(c, l, r, *limits[i])
        for col, (v, b) in enumerate(zip((dev, c, l, r), (d0s[i], *bases[i]))):
            sums[i, :, col] = b * w + excepted(t * (v - b))
        sums[i, :, 4] = np.bincount(piece, t * dev >= eps, len(ends))
    return ends, sums


def weighted_deviation_sum(seq: FuzzyFunctionSequence, weights: WeightSequence,
                           limit_fn: Callable[[float], LimitProfile],
                           x: float, lo: int, hi: int) -> float:
    """Sum of t_k * d(f_k(x), limit(x)) over the closed range [lo, hi]."""
    sums, _ = _stream(seq, weights, [limit_fn(x)], [x], [(lo, hi)], math.inf)
    return float(sums[0, 0, 0])


def deviation_count(seq: FuzzyFunctionSequence, weights: WeightSequence,
                    limit_fn: Callable[[float], LimitProfile],
                    x: float, k_max: int, eps: float) -> int:
    """Count of k in [1, k_max] with t_k * d(f_k(x), limit(x)) >= eps."""
    eps = real_in(eps, "eps", 0, math.inf, open_low=True)
    _, hits = _stream(seq, weights, [limit_fn(x)], [x],
                      [(1, integer_at_least(k_max, None, "k_max"))], eps)
    return int(hits[0, 0])


def window_fuzzy_mean(seq: FuzzyFunctionSequence, weights: WeightSequence,
                      lo: int, hi: int, x: float, divisor: float) -> FuzzyNumber:
    """(1/divisor) * sum of t_k * f_k(x) over [lo, hi], level-wise."""
    divisor = real_in(divisor, "divisor", 0, math.inf, open_low=True)
    sums, _ = _stream(seq, weights, [(0.0, 0.0, 0.0)], [x], [(lo, hi)],
                      math.inf)
    _, csum, lsum, rsum = sums[0, 0].tolist()
    return triangular(csum / divisor, lsum / divisor, rsum / divisor)


def absolute_partial(seq: FuzzyFunctionSequence, limit, p: ModeParams,
                     n: int, x: float) -> float:
    """Weighted mean deviation over the n-th window, normalized by T**theta."""
    x = seq.check_x(x)
    b, g = p.scheme.window(n)
    total = weighted_total(p.scheme, p.weights, n)
    s = weighted_deviation_sum(seq, p.weights, limit_profile_fn(seq, limit), x, b, g)
    return s / total ** p.theta


def ordinary_partial(seq: FuzzyFunctionSequence, p: ModeParams,
                     n: int, x: float) -> FuzzyNumber:
    """Fuzzy-valued weighted window mean (1/T**theta) * sum t_k f_k(x)."""
    x = seq.check_x(x)
    b, g = p.scheme.window(n)
    total = weighted_total(p.scheme, p.weights, n)
    return window_fuzzy_mean(seq, p.weights, b, g, x, total ** p.theta)


def sp_density(seq: FuzzyFunctionSequence, limit, p: ModeParams,
               n: int, x: float) -> float:
    """Density of indices k <= floor(T) whose weighted deviation reaches eps,
    normalized by T**theta."""
    x = seq.check_x(x)
    total = weighted_total(p.scheme, p.weights, n)
    count = deviation_count(seq, p.weights, limit_profile_fn(seq, limit), x,
                            math.floor(total), p.eps)
    return count / total ** p.theta


# ---------------------------------------------------------------------------
# Verdicts and classification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    kind: str  # "converges" | "diverges" | "inconclusive"
    estimate: Optional[float] = None

    def __str__(self):
        if self.kind == "converges":
            return f"converges({self.estimate:.6g})"
        return self.kind


@dataclass(frozen=True)
class VerdictPolicy:
    """Explicit thresholds for finite-horizon trend calls, checked once, here.

    A call reads the last ``window`` values (an integer >= 1); ``tol`` in
    [0, inf) bounds how far the rate test's limits, or a plateau's values,
    may spread; the divergence call fires when a monotone tail exceeds
    divergence_factor (in (0, inf)) * (first value + 1), and ``limit_tol``
    in [0, inf) is how near the target a converged estimate must sit for
    class membership.
    """

    tol: float = 1e-2
    window: int = 4
    divergence_factor: float = 10.0
    limit_tol: float = 0.05

    def __post_init__(self):  # frozen: each checked value is set past the guard
        object.__setattr__(self, "window", integer_at_least(self.window, 1, "policy window"))
        for name in ("tol", "divergence_factor", "limit_tol"):
            object.__setattr__(self, name, real_in(getattr(self, name), f"policy {name}", 0,
                                                   math.inf, open_low=name == "divergence_factor"))


def verdict(trace: Sequence[tuple[int, float]],
            policy: VerdictPolicy = VerdictPolicy()) -> Verdict:
    """Call a trace: converged, diverging, or inconclusive.

    Every test reads the last ``policy.window`` values (an integer >= 1);
    a shorter trace is inconclusive.  A tail whose steps share one sign
    and shrink by ratios q < 1 converges if the Aitken limits
    ``v + d*q/(1-q)`` of its runs of three agree within ``tol`` (in
    [0, inf)): at the last one, clipped at 0 for a nonnegative tail (a
    power law ``c + a*n**-p`` moves by the exact ratio 2**-p between
    doubling rungs).  Else a tail within ``tol`` of its mean is a
    plateau, so rounding noise is not growth; only then does a tail
    rising by ratios q >= 1, or monotone past the divergence factor (in
    (0, inf)), diverge.  ``VerdictPolicy`` checked these when built.
    """
    vals = [float(v) for _, v in trace]
    if not vals:
        raise ValueError("empty trace")
    if len(vals) < policy.window:
        return Verdict("inconclusive")
    tail = vals[-policy.window:]
    steps = [b - a for a, b in zip(tail, tail[1:])]
    one_sign = all(d > 0 for d in steps) or all(d < 0 for d in steps)
    ratios = [b / a for a, b in zip(steps, steps[1:])] if one_sign else []
    if ratios and max(ratios) < 1:
        limits = [v + d * q / (1 - q)
                  for v, d, q in zip(tail[2:], steps[1:], ratios)]
        if max(limits) - min(limits) <= policy.tol:
            return Verdict("converges",
                           max(limits[-1], 0.0) if min(tail) >= 0 else limits[-1])
    mean = sum(tail) / len(tail)
    if all(abs(v - mean) <= policy.tol for v in tail):
        return Verdict("converges", mean)
    if ratios and steps[0] > 0 and min(ratios) >= 1:
        return Verdict("diverges")
    if (all(b >= a for a, b in zip(tail, tail[1:]))
            and vals[-1] > policy.divergence_factor * (vals[0] + 1.0)):
        return Verdict("diverges")
    return Verdict("inconclusive")


def ladder(horizon: int) -> list[int]:
    """The horizon halved, rungs ``horizon >> j`` from 1: all doublings at
    a power of 2, the last four whenever 8 divides the horizon."""
    horizon = integer_at_least(horizon, 1, "horizon")
    return [horizon >> j for j in reversed(range(horizon.bit_length()))]


def ladder_windows(scheme: BetaGammaScheme, ns: Sequence[int]) -> list[tuple[int, int]]:
    """``scheme.window(n)`` for the rungs ``ns``, through the first top of
    _HUGE_INDEX or more: every budget refuses it, so no larger one is built."""
    windows = []
    for n in ns:
        windows.append(scheme.window(n))
        if windows[-1][1] >= _HUGE_INDEX:
            break
    return windows


@dataclass(frozen=True)
class ModeTrace:
    x: float
    mode: str
    theta: float
    points: tuple[tuple[int, float], ...]
    verdict: Verdict

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "mode": self.mode,
            "theta": self.theta,
            "verdict": self.verdict.kind,
            "estimate": self.verdict.estimate,
            "points": [[n, v] for n, v in self.points],
        }


@dataclass
class ConvergenceReport:
    family: str
    scheme: str
    weights: str
    theta: float
    eps: float
    grid: tuple[float, ...]
    horizon: int
    policy: VerdictPolicy
    traces: list[ModeTrace] = field(default_factory=list)
    membership: dict[str, Optional[bool]] = field(default_factory=dict)

    def trace(self, x: float, mode: str) -> ModeTrace:
        for t in self.traces:
            if t.mode == mode and t.x == x:
                return t
        raise KeyError((x, mode))

    def to_dict(self) -> dict:
        traces = [t.to_dict() for t in self.traces]
        return {
            "family": self.family,
            "scheme": self.scheme,
            "weights": self.weights,
            "theta": self.theta,
            "eps": self.eps,
            "grid": list(self.grid),
            "horizon": self.horizon,
            "policy": asdict(self.policy),
            "verdicts": [{k: v for k, v in t.items() if k != "points"}
                         for t in traces],
            "traces": traces,
            "membership": dict(self.membership),
        }


def _membership(traces: list[ModeTrace], limit_tol: float) -> Optional[bool]:
    verdicts = [t.verdict for t in traces]
    if any(v.kind == "diverges" or v.kind == "converges" and abs(v.estimate) > limit_tol
           for v in verdicts):
        return False
    return None if any(v.kind == "inconclusive" for v in verdicts) else True


def classify(seq: FuzzyFunctionSequence, limit, scheme: BetaGammaScheme,
             weights: WeightSequence, theta: float, eps: float,
             grid: XGridPolicy, horizon: int,
             modes: Sequence[str] = MODES,
             policy: VerdictPolicy = VerdictPolicy()) -> ConvergenceReport:
    """Trace every requested mode at every grid point along the ladder.

    Membership in a mode's convergence class requires a converged-to-the-
    target verdict at every grid point; a diverging or off-target point
    settles non-membership, while inconclusive points propagate as None.
    """
    return classify_thetas(seq, limit, scheme, weights, (theta,), eps, grid,
                           horizon, modes, policy)[0]


def _sweep(seq: FuzzyFunctionSequence, limit, scheme: BetaGammaScheme,
           weights: WeightSequence, eps: float, grid: XGridPolicy, horizon: int,
           modes: Sequence[str]) -> _Sweep:
    """One stream as a theta-free record: the ladder ``ns``, its ``windows``
    and their ``totals`` T_n, the checked ``xs`` and their ``limits``, and
    per point and rung the sp ``hits`` over [1, floor(T_n)] and the ``sums``
    of t*dev, t*c, t*l and t*r over [beta(n), gamma(n)].  k is streamed once
    per point (per distinct limit, for an x-free family) over only the
    windows ``modes`` read; an array no mode reads holds other windows'."""
    limit_fn = limit_profile_fn(seq, limit)
    ns = ladder(horizon)
    xs = [seq.check_x(x) for x in grid.points]
    limits = [limit_fn(x) for x in xs]
    windows = ladder_windows(scheme, ns)
    totals = weights.window_totals(*zip(*windows)).tolist()
    # the sp windows come first, the abs and ord windows last
    asked = (([(1, math.floor(total)) for total in totals] if "sp" in modes else [])
             + (windows if "abs" in modes or "ord" in modes else []))
    sums, hits = _stream(seq, weights, limits, xs, asked, eps)
    return _Sweep(ns, windows, totals, xs, limits, hits[:, :len(windows)],
                  sums[:, -len(windows):])


def classify_thetas(seq: FuzzyFunctionSequence, limit, scheme: BetaGammaScheme,
                    weights: WeightSequence, thetas: Sequence[float], eps: float,
                    grid: XGridPolicy, horizon: int,
                    modes: Sequence[str] = MODES,
                    policy: VerdictPolicy = VerdictPolicy()) -> list[ConvergenceReport]:
    """One ``classify`` report per order in ``thetas``, from one ``_sweep``:
    each theta divides its sums by T_n**theta and reads each mode once over
    all points, ord as the distance of the scaled (t*c, t*l, t*r) sums to the
    limit."""
    thetas, eps = check_mode_args(thetas, eps, modes)
    sweep = _sweep(seq, limit, scheme, weights, eps, grid, horizon, modes)
    limits = np.array(sweep.limits).T[..., None]  # per point, across rungs
    reports = []
    for theta in thetas:
        scales = np.array([total ** theta for total in sweep.totals])
        report = ConvergenceReport(seq.label, scheme.label, weights.label, theta,
                                   eps, tuple(sweep.xs), sweep.ns[-1], policy)
        for mode in modes:
            vals = (sweep.hits / scales if mode == "sp" else
                    sweep.sums[..., 0] / scales if mode == "abs" else
                    triangular_profile_distance(
                        *np.moveaxis(sweep.sums[..., 1:], -1, 0) / scales, *limits))
            rows = [tuple(zip(sweep.ns, row)) for row in vals.tolist()]
            traces = [ModeTrace(x, mode, theta, trace, verdict(trace, policy))
                      for x, trace in zip(sweep.xs, rows)]
            report.traces += traces
            report.membership[mode] = _membership(traces, policy.limit_tol)
        reports.append(report)
    return reports
