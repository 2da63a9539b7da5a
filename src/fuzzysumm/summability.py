"""Convergence transforms for fuzzy function sequences and their verdicts.

Three finite-horizon transforms per evaluation point x:

* ``sp_density``      -- share of indices k <= floor(T_n) whose weighted
                         deviation from the limit reaches eps, normalized
                         by T_n**theta (pointwise statistical density).
* ``absolute_partial``-- weighted mean of metric deviations over the n-th
                         window, normalized by T_n**theta.
* ``ordinary_partial``-- the fuzzy-valued weighted window mean itself.

Traces of these along a geometric ladder feed ``verdict``; ``classify``
assembles per-point verdicts and class membership into a report.  All
three are reductions of one stream of (k, t_k, f_k(x)): a sweep walks
it once per point, keeps sums between the ladder's checkpoints, and
applies theta last.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .numbers import (FuzzyNumber, triangular, triangular_profile_distance,
                      triangular_profile_of)
from .schemes import BetaGammaScheme, WeightSequence, weighted_total
from .sequences import FuzzyFunctionSequence, LimitProfile, XGridPolicy

MODES = ("sp", "abs", "ord")

_CHUNK = 1 << 16


@dataclass(frozen=True)
class ModeParams:
    """Shared knobs of the transforms: order theta, threshold eps, and the
    window/weight pair."""

    theta: float
    eps: float
    scheme: BetaGammaScheme
    weights: WeightSequence

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")
        if not self.eps > 0:
            raise ValueError("eps must be positive")


def limit_profile_fn(seq: FuzzyFunctionSequence, limit=None) -> Callable[[float], LimitProfile]:
    """Normalize a limit argument to a callable x -> (center, left, right).

    Accepts None (use the family's claimed limit), a real, a FuzzyNumber
    with triangular cuts, a profile triple, or a callable producing any
    of those.
    """
    if limit is None:
        if seq.limit_profile is None:
            raise ValueError(f"{seq.label}: no limit given and none claimed")
        return seq.limit_profile
    if isinstance(limit, FuzzyNumber):
        trip = triangular_profile_of(limit)
        return lambda x: trip
    if isinstance(limit, (int, float)):
        trip = (float(limit), 0.0, 0.0)
        return lambda x: trip
    if isinstance(limit, tuple) and len(limit) == 3:
        trip = (float(limit[0]), float(limit[1]), float(limit[2]))
        return lambda x: trip
    if callable(limit):
        def fn(x: float) -> LimitProfile:
            v = limit(x)
            if isinstance(v, FuzzyNumber):
                return triangular_profile_of(v)
            if isinstance(v, (int, float)):
                return (float(v), 0.0, 0.0)
            return (float(v[0]), float(v[1]), float(v[2]))
        return fn
    raise TypeError("limit must be None, a real, a FuzzyNumber, a profile "
                    "triple, or a callable")


@dataclass(frozen=True)
class _Pieces:
    """Sums over the pieces of one streamed index range, at every point.

    Piece j covers (ends[j-1], ends[j]]; ``sums[i, j]`` holds the sums of
    t*dev, t*c, t*l and t*r over it at the i-th point, and ``hits[i, j]``
    counts its indices with t*dev >= eps.  Windows passed to the queries
    must start and end on checkpoints of the stream.
    """

    ends: np.ndarray
    sums: np.ndarray
    hits: np.ndarray

    def _span(self, lo: int, hi: int) -> slice:
        return slice(int(np.searchsorted(self.ends, lo - 1, side="right")),
                     int(np.searchsorted(self.ends, hi, side="right")))

    def window_sums(self, i: int, lo: int, hi: int) -> tuple[float, ...]:
        """Sums of t*dev, t*c, t*l and t*r over [lo, hi] at the i-th point."""
        return tuple(math.fsum(col) for col in self.sums[i, self._span(lo, hi)].T)

    def hit_count(self, i: int, lo: int, hi: int) -> int:
        """Indices of [lo, hi] with t*dev >= eps at the i-th point."""
        return int(self.hits[i, self._span(lo, hi)].sum())


def _stream(seq: FuzzyFunctionSequence, weights: WeightSequence,
            limits: Sequence[LimitProfile], xs: Sequence[float],
            cuts: Sequence[int], eps: float) -> _Pieces:
    """Stream k over (min(cuts), max(cuts)] once for every point of ``xs``.

    Each chunk of at most _CHUNK indices costs one ``weights.values``
    call plus one ``seq.profile`` call per point, and is split at the
    checkpoints inside it.  Every piece keeps its own sums, so a window
    whose ends sit on checkpoints is summed by ``math.fsum`` over whole
    pieces instead of as a difference of long prefix sums.
    """
    cuts = np.unique(np.asarray(cuts, dtype=np.int64))
    lo, hi = int(cuts[0]), int(cuts[-1])
    ends = np.union1d(cuts[1:], np.arange(lo + _CHUNK, hi, _CHUNK, dtype=np.int64))
    sums = np.zeros((len(xs), len(ends), 4))
    hits = np.zeros((len(xs), len(ends)), dtype=np.int64)
    first = 0
    for a in range(lo + 1, hi + 1, _CHUNK):
        b = min(hi, a + _CHUNK - 1)
        ks = np.arange(a, b + 1, dtype=np.int64)
        t = weights.values(ks)
        stop = int(np.searchsorted(ends, b, side="right"))
        bounds = (np.append(a - 1, ends[first:stop]) - (a - 1)).tolist()
        for i, x in enumerate(xs):
            c, l, r = seq.profile(ks, x)
            dev = triangular_profile_distance(c, l, r, *limits[i])
            hit = t * dev >= eps
            for j, s, e in zip(range(first, stop), bounds, bounds[1:]):
                sums[i, j] = [np.dot(t[s:e], v[s:e]) for v in (dev, c, l, r)]
                hits[i, j] = np.count_nonzero(hit[s:e])
        first = stop
    return _Pieces(ends, sums, hits)


def _one_window(seq: FuzzyFunctionSequence, weights: WeightSequence,
                lim: LimitProfile, x: float, lo: int, hi: int,
                eps: float = math.inf) -> tuple[tuple[float, ...], int]:
    """Window sums and hit count over [lo, hi] (empty when hi < lo)."""
    hi = max(hi, lo - 1)
    pieces = _stream(seq, weights, [lim], [x], [lo - 1, hi], eps)
    return pieces.window_sums(0, lo, hi), pieces.hit_count(0, lo, hi)


def weighted_deviation_sum(seq: FuzzyFunctionSequence, weights: WeightSequence,
                           limit_fn: Callable[[float], LimitProfile],
                           x: float, lo: int, hi: int) -> float:
    """Sum of t_k * d(f_k(x), limit(x)) over the closed range [lo, hi]."""
    sums, _ = _one_window(seq, weights, limit_fn(x), x, lo, hi)
    return sums[0]


def deviation_count(seq: FuzzyFunctionSequence, weights: WeightSequence,
                    limit_fn: Callable[[float], LimitProfile],
                    x: float, k_max: int, eps: float) -> int:
    """Count of k in [1, k_max] with t_k * d(f_k(x), limit(x)) >= eps."""
    _, count = _one_window(seq, weights, limit_fn(x), x, 1, k_max, eps)
    return count


def window_fuzzy_mean(seq: FuzzyFunctionSequence, weights: WeightSequence,
                      lo: int, hi: int, x: float, divisor: float) -> FuzzyNumber:
    """(1/divisor) * sum of t_k * f_k(x) over [lo, hi], level-wise."""
    if divisor <= 0:
        raise ValueError("divisor must be positive")
    (_, csum, lsum, rsum), _ = _one_window(seq, weights, (0.0, 0.0, 0.0), x,
                                           lo, hi)
    return triangular(csum / divisor, lsum / divisor, rsum / divisor,
                      levels=seq.levels)


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
    p.scheme.window(n)
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
    """Explicit thresholds for finite-horizon trend calls.

    ``tol``/``window`` govern the converged-plateau test, the divergence
    call fires when a monotone tail exceeds divergence_factor * (first
    value + 1), and ``limit_tol`` is how close a converged estimate must
    sit to the target for class membership.
    """

    tol: float = 1e-2
    window: int = 4
    divergence_factor: float = 10.0
    limit_tol: float = 0.05


def verdict(trace: Sequence[tuple[int, float]], tol: float = 1e-2,
            window: int = 4, divergence_factor: float = 10.0) -> Verdict:
    """Call a trace: converged plateau, monotone blow-up, or inconclusive."""
    vals = [float(v) for _, v in trace]
    if not vals:
        raise ValueError("empty trace")
    if not 1 <= window <= len(vals):
        raise ValueError("window must lie in [1, len(trace)]")
    tail = vals[-window:]
    mean = sum(tail) / len(tail)
    if all(abs(v - mean) <= tol for v in tail):
        return Verdict("converges", mean)
    if (all(b >= a for a, b in zip(tail, tail[1:]))
            and vals[-1] > divergence_factor * (vals[0] + 1.0)):
        return Verdict("diverges")
    return Verdict("inconclusive")


def ladder(horizon: int) -> list[int]:
    """Geometric index ladder 1, 2, 4, ... capped and topped by horizon."""
    if horizon < 1:
        raise ValueError("horizon must be a positive integer")
    ns = []
    n = 1
    while n <= horizon:
        ns.append(n)
        n *= 2
    if ns[-1] != horizon:
        ns.append(horizon)
    return ns


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
        return {
            "family": self.family,
            "scheme": self.scheme,
            "weights": self.weights,
            "theta": self.theta,
            "eps": self.eps,
            "grid": list(self.grid),
            "horizon": self.horizon,
            "policy": asdict(self.policy),
            "verdicts": [
                {"x": t.x, "mode": t.mode, "theta": t.theta,
                 "verdict": t.verdict.kind, "estimate": t.verdict.estimate}
                for t in self.traces
            ],
            "traces": [t.to_dict() for t in self.traces],
            "membership": dict(self.membership),
        }


def _membership(traces: list[ModeTrace], policy: VerdictPolicy) -> Optional[bool]:
    saw_inconclusive = False
    for t in traces:
        v = t.verdict
        if v.kind == "diverges":
            return False
        if v.kind == "converges" and abs(v.estimate) > policy.limit_tol:
            return False
        if v.kind == "inconclusive":
            saw_inconclusive = True
    return None if saw_inconclusive else True


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


def classify_thetas(seq: FuzzyFunctionSequence, limit, scheme: BetaGammaScheme,
                    weights: WeightSequence, thetas: Sequence[float], eps: float,
                    grid: XGridPolicy, horizon: int,
                    modes: Sequence[str] = MODES,
                    policy: VerdictPolicy = VerdictPolicy()) -> list[ConvergenceReport]:
    """One ``classify`` report per order in ``thetas``, from a single sweep.

    The sweep streams k = 1 .. the largest checkpoint once per grid point
    (checkpoints: beta(n) - 1 and gamma(n) for abs and ord, floor(T_n)
    for sp) and keeps theta-free window sums; each theta then only
    divides them by T_n**theta.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    for theta in thetas:
        ModeParams(theta=theta, eps=eps, scheme=scheme, weights=weights)
    limit_fn = limit_profile_fn(seq, limit)
    ns = ladder(horizon)
    xs = [seq.check_x(x) for x in grid.points]
    limits = [limit_fn(x) for x in xs]
    windows = [scheme.window(n) for n in ns]
    totals = [weights.window_total(b, g) for b, g in windows]
    floors = [math.floor(total) for total in totals]
    cuts = [0]
    if "sp" in modes:
        cuts += floors
    if "abs" in modes or "ord" in modes:
        cuts += [b - 1 for b, _ in windows] + [g for _, g in windows]
    pieces = _stream(seq, weights, limits, xs, cuts, eps)

    # Theta-free numerators per mode and point: hit counts up to
    # floor(T_n) for sp, window sums of (t*dev, t*c, t*l, t*r) otherwise.
    sums = {}
    for mode in modes:
        if mode == "sp":
            sums[mode] = [[pieces.hit_count(i, 1, k) for k in floors]
                          for i in range(len(xs))]
        else:
            sums[mode] = [[pieces.window_sums(i, b, g) for b, g in windows]
                          for i in range(len(xs))]

    reports = []
    for theta in thetas:
        scales = [total ** theta for total in totals]
        report = ConvergenceReport(
            family=seq.label, scheme=scheme.label, weights=weights.label,
            theta=theta, eps=eps, grid=tuple(grid.points), horizon=horizon,
            policy=policy)
        for mode in modes:
            mode_traces = []
            for x, lim, per_n in zip(xs, limits, sums[mode]):
                if mode == "sp":
                    vals = [count / s for count, s in zip(per_n, scales)]
                elif mode == "abs":
                    vals = [dev / s for (dev, *_), s in zip(per_n, scales)]
                else:
                    vals = [float(triangular_profile_distance(c / s, l / s, r / s, *lim))
                            for (_, c, l, r), s in zip(per_n, scales)]
                trace = tuple(zip(ns, vals))
                v = verdict(trace, tol=policy.tol,
                            window=min(policy.window, len(ns)),
                            divergence_factor=policy.divergence_factor)
                mode_traces.append(ModeTrace(x, mode, theta, trace, v))
            report.traces.extend(mode_traces)
            report.membership[mode] = _membership(mode_traces, policy)
        reports.append(report)
    return reports
