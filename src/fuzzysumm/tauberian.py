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
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numbers import ATOL, add, distance, scale, triangular
from .schemes import (BetaGammaScheme, DegenerateWindowError, DILATION_LIMINF,
                      HorizonPolicy, RatioResult, WeightSequence, dilate,
                      ratio_condition, weighted_total)
from .sequences import FuzzyFunctionSequence, XGridPolicy
from .summability import (ConvergenceReport, ModeParams, ModeTrace,
                          VerdictPolicy, classify, ladder, limit_profile_fn,
                          ordinary_partial, verdict, window_fuzzy_mean)


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
_WITNESSES = 8


def _scan(seq: FuzzyFunctionSequence, x: float, eps: float, lam: float,
          n0: int, horizon: int) -> SlowDecreaseWitness:
    """Slow-decrease scan of rows n0 < n <= horizon in either direction.

    Triangular values make the cut-wise comparison equivalent to three
    endpoint inequalities (levels 0 and 1).  Rows are compared in blocks
    of about _BLOCK window entries, each window a row of a sliding view of
    the endpoint arrays; a block leaves only its count, its last violating
    row and its first pairs, so memory stays O(horizon + _BLOCK).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 <= n0 < horizon:
        raise ValueError("need 0 <= n0 < horizon")
    x = seq.check_x(x)
    c, l, r = seq.profile(np.arange(1, horizon + 1, dtype=np.int64), x)
    grow = lam > 1
    ns = np.arange(n0 + 1, horizon + 1, dtype=np.int64)
    cut = np.floor(lam * ns).astype(np.int64)
    # 0-based window [start, stop): k in (n, min(cut, horizon)] or (cut, n]
    starts, stops = (ns, np.minimum(cut, horizon)) if grow else (cut, ns)
    keep = stops > starts
    ns, starts, widths = ns[keep], starts[keep], (stops - starts)[keep]
    if not len(ns):
        return SlowDecreaseWitness(eps, lam, n0, horizon, (), 0, None)

    # Growth asks window >= row - eps - ATOL, shrink asks row >= window -
    # eps - ATOL: the same float operations as a per-pair comparison.
    cmp = np.greater_equal if grow else np.less_equal
    endpoints = [c]  # a spread that is zero throughout repeats c's inequality
    if l.any():
        endpoints.append(c - l)
    if r.any():
        endpoints.append(c + r)
    wmax = int(widths.max())
    sides = []
    for a in endpoints:
        lowered = a - eps - ATOL
        win, row = (a, lowered) if grow else (lowered, a)
        # the padding only keeps the view in bounds; it is masked below
        sides.append((sliding_window_view(np.pad(win, (0, wmax)), wmax),
                      row[ns - 1]))

    # a block ends where the running window total passes a multiple of _BLOCK
    running = np.cumsum(widths)
    edges = np.unique(np.append(np.searchsorted(
        running, np.arange(0, running[-1], _BLOCK), "right"), len(ns)))
    count, last_bad, first = 0, None, []
    for i, j in zip(edges[:-1], edges[1:]):
        w, s = int(widths[i:j].max()), starts[i:j]
        ok = np.ones((j - i, w), dtype=bool)
        for view, row in sides:
            ok &= cmp(view[s, :w], row[i:j, None])
        bad = ~ok & (np.arange(w) < widths[i:j, None])
        hit = np.flatnonzero(bad.any(axis=1))
        if not hit.size:
            continue
        count += int(np.count_nonzero(bad))
        last_bad = int(ns[i + hit[-1]])
        if len(first) < _WITNESSES:
            rr, cc = np.nonzero(bad[hit[:_WITNESSES]])
            rr = i + hit[rr]
            first += zip(ns[rr].tolist(), (starts[rr] + 1 + cc).tolist())
            del first[_WITNESSES:]
    return SlowDecreaseWitness(eps, lam, n0, horizon, tuple(first), count,
                               last_bad)


def slowly_decreasing_check(seq: FuzzyFunctionSequence, x: float, eps: float,
                            lam: float, n0: int, horizon: int) -> SlowDecreaseWitness:
    """Exhaustively scan all (n, k), n0 < n <= horizon, n < k <= floor(lam*n),
    k <= horizon, for the k-th term dropping more than eps below the n-th
    in the partial order."""
    if not lam > 1:
        raise ValueError("lam must exceed 1")
    return _scan(seq, x, eps, lam, n0, horizon)


def slowly_decreasing_check_shrink(seq: FuzzyFunctionSequence, x: float,
                                   eps: float, lam: float, n0: int,
                                   horizon: int) -> SlowDecreaseWitness:
    """Mirror form for 0 < lam < 1: scan (n, k) with floor(lam*n) < k <= n
    for the n-th term dropping more than eps below the k-th."""
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    return _scan(seq, x, eps, lam, n0, horizon)


# ---------------------------------------------------------------------------
# Window-mean decomposition identities
# ---------------------------------------------------------------------------

def _mean_identity(seq: FuzzyFunctionSequence, scheme: BetaGammaScheme,
                   weights: WeightSequence, lam: float, n: int,
                   x: float) -> float:
    """Decomposition deviation for either direction of the moved top.

    The outer window is the longer of the base window and its dilation by
    lam, the inner one the shorter; both start at beta(n), so the outer
    total T_o is the inner T_i plus the gap, and the tail mean runs over
    the indices between the two tops.
    """
    x = seq.check_x(x)
    moved = dilate(scheme, lam)
    _, g = scheme.window(n)
    _, g_moved = moved.window(n)
    if g_moved == g:
        raise DegenerateWindowError(
            f"{moved.label}: moved top {g} equals the window top at n={n}")
    # Base before moved: the prefix cache grows in request order, and the
    # cached sums' last bits depend on that order.
    base, shifted = [
        (weighted_total(sch, weights, n),
         ordinary_partial(seq, ModeParams(1.0, 1.0, sch, weights), n, x), top)
        for sch, top in ((scheme, g), (moved, g_moved))]
    grow = lam > 1
    (t_o, s_o, g_o), (t_i, s_i, g_i) = (shifted, base) if grow else (base, shifted)
    gap = t_o - t_i
    tail = window_fuzzy_mean(seq, weights, g_i + 1, g_o, x, gap)
    if grow:
        r = t_o / gap
        lhs, rhs = add(scale(r, s_o), s_i), add(scale(r, s_i), tail)
    else:
        r = t_i / gap
        lhs, rhs = add(scale(r, s_i), tail), add(scale(r, s_o), s_o)
    return distance(lhs, rhs)


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
    if not lam > 1:
        raise ValueError("lam must exceed 1")
    return _mean_identity(seq, scheme, weights, lam, n, x)


def shrink_mean_identity(seq: FuzzyFunctionSequence, scheme: BetaGammaScheme,
                         weights: WeightSequence, lam: float, n: int,
                         x: float) -> float:
    """Deviation of the 0 < lam < 1 counterpart.

    With R = T_shr / (T - T_shr), the shrunken and base window means obey
        R * S_shr + (1 / (T - T_shr)) * sum over the shortfall = R * S + S
    where the shortfall runs over (floor(lam*gamma(n)), gamma(n)].
    """
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    return _mean_identity(seq, scheme, weights, lam, n, x)


# ---------------------------------------------------------------------------
# The full experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlowDecreaseEntry:
    x: float
    eps: float
    holds: bool
    lam: Optional[float]
    n0: Optional[int]
    violation_count: int
    witness: tuple[tuple[int, int], ...]  # first few violating pairs

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IdentityCheck:
    kind: str  # "dilation" | "shrink"
    lam: float
    n: int
    x: float
    deviation: float
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


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
        kinds = [t.verdict.kind for t in self.conclusion]
        if any(k == "diverges" for k in kinds):
            return False
        if any(k == "inconclusive" for k in kinds):
            return None
        return True

    @property
    def sandwich_ok(self) -> Optional[bool]:
        """When everything passes, the converged estimates must sit within
        the finest eps of the ladder (the order-sandwich endgame)."""
        if not self.hypotheses_pass or self.conclusion_holds is not True:
            return None
        finest = min(self.eps_ladder)
        return all(abs(t.verdict.estimate) <= finest for t in self.conclusion)

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
                "sandwich_ok": self.sandwich_ok,
            },
            "identity_checks": [c.to_dict() for c in self.identity_checks],
        }


def tauberian_experiment(seq: FuzzyFunctionSequence, limit,
                         scheme: BetaGammaScheme, weights: WeightSequence,
                         grid: XGridPolicy, horizon: int,
                         eps_ladder: Sequence[float] = (0.5, 0.1, 0.01),
                         lambdas: Sequence[float] = (1.25, 1.5, 2.0),
                         n0: int = 10,
                         scan_horizon: Optional[int] = None,
                         identity_tol: float = 1e-9,
                         policy: VerdictPolicy = VerdictPolicy()) -> TauberianReport:
    """Measure hypotheses and conclusion of the windowed-mean Tauber test.

    Hypotheses: the dilation growth condition on window totals, slow
    decrease at every grid point for every eps of the ladder (some tested
    lam > 1 must work), and ordinary summability to the limit.  The
    conclusion traces d(f_{gamma(n)}(x), limit(x)) along the ladder.
    Hypothesis failures are reported, never fatal: the conclusion is
    still measured so a failed hypothesis remains distinguishable from a
    failed conclusion.
    """
    if not eps_ladder or any(e <= 0 for e in eps_ladder):
        raise ValueError("eps_ladder must be nonempty and positive")
    scan_horizon = min(horizon, scan_horizon or 1024)
    report = TauberianReport(
        family=seq.label, scheme=scheme.label, weights=weights.label,
        horizon=horizon, eps_ladder=tuple(eps_ladder))

    hp = HorizonPolicy(n_max=max(horizon // 4, 8))
    for lam in lambdas:
        try:
            report.condition2[lam] = ratio_condition(
                scheme, weights, lam, hp, DILATION_LIMINF)
        except DegenerateWindowError:
            report.condition2[lam] = RatioResult(math.inf, False)

    # "Slowly decreasing" quantifies n0 and lam existentially per eps.  A
    # lam works when its violations die out early enough that the clean
    # tail (n0, scan_horizon] is itself exhaustively verified, with n0 no
    # later than half the scan (otherwise the tail is too short to trust).
    for x in grid.points:
        for eps in eps_ladder:
            entry = None
            for lam in lambdas:
                wit = slowly_decreasing_check(seq, x, eps, lam, n0, scan_horizon)
                if wit.holds:
                    entry = SlowDecreaseEntry(x, eps, True, lam, n0, 0, ())
                    break
                # the tail (last_bad, scan_horizon] is clean by definition
                if wit.last_bad <= scan_horizon // 2:
                    entry = SlowDecreaseEntry(x, eps, True, lam, wit.last_bad, 0, ())
                    break
                entry = SlowDecreaseEntry(x, eps, False, None, n0, wit.count,
                                          wit.violations)
            report.slow_decrease.append(entry)

    limit_fn = limit_profile_fn(seq, limit)
    report.summability = classify(seq, limit, scheme, weights, theta=1.0,
                                  eps=min(eps_ladder), grid=grid,
                                  horizon=horizon, modes=("ord",), policy=policy)

    ns = ladder(horizon)
    for x in grid.points:
        x = seq.check_x(x)
        lim = triangular(*limit_fn(x), levels=seq.levels)
        pts = []
        for n in ns:
            _, g = scheme.window(n)
            pts.append((n, distance(seq.eval(g, x), lim)))
        v = verdict(pts, tol=policy.tol, window=min(policy.window, len(ns)),
                    divergence_factor=policy.divergence_factor)
        report.conclusion.append(ModeTrace(x, "tail", 1.0, tuple(pts), v))

    mid_x = grid.points[len(grid.points) // 2]
    identity_ns = [n for n in ns if 4 <= n <= max(8, horizon // 8)][-3:] or [ns[-1]]
    # Built per call: the identities are read from the module's names at
    # call time, so a wrapped identity (perfbench's tracer) is the one run.
    checks = ([("dilation", dilation_mean_identity, lam) for lam in lambdas]
              + [("shrink", shrink_mean_identity, round(1.0 / lam, 6))
                 for lam in lambdas])
    for n in identity_ns:
        for kind, identity, lam in checks:
            try:
                dev = identity(seq, scheme, weights, lam, n, mid_x)
            except DegenerateWindowError:
                continue
            report.identity_checks.append(
                IdentityCheck(kind, lam, n, mid_x, dev, dev <= identity_tol))
    return report
