"""Index window schemes, weight sequences, and windowed weighted totals.

A scheme is a pair of index maps ``beta``, ``gamma`` selecting windows
[beta(n), gamma(n)] of a sequence; a weight sequence attaches a positive
weight to every index.  The windowed total (sum of weights over the n-th
window) drives every convergence transform downstream, so it is backed
by a closed form where the weights have one and by a chunked walk over
them otherwise; nothing is kept between queries.  Constant weights
(``const:c``, ``recip5``) total p*w/q over a window of width w for the
exact ratio p/q of the weight, correctly rounded, and ``harmonicplus``
totals w + H_g - H_{b-1} over [b, g] to within 2**-52 relative.  Every
other weight sequence (``file:`` tables and hand-built ones) totals each
window as the exact sum of its weights, correctly rounded, from one walk
over the union of the windows of the call.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .numbers import integer_at_least, real_in

# Strictness margin for "estimate > 1" style threshold checks.
HOLDS_MARGIN = 1e-9

# Ratio-condition ids accepted by ratio_condition().  2/3 are the
# liminf growth conditions for dilation factors above/below 1; 4/5 are
# the limsup gap conditions they imply.
DILATION_LIMINF = 2
SHRINK_LIMINF = 3
DILATION_GAP_LIMSUP = 4
SHRINK_GAP_LIMSUP = 5

# Indices per chunk of every walk over the weights (WeightSequence.chunks):
# a chunk's float64 temporaries (64 KiB) stay under glibc's 128 KiB mmap
# threshold, so they are reused from the heap instead of mapped anew.
_CHUNK = 1 << 13
_FIRST = np.zeros(1, dtype=np.int64)  # starts of a chunk with no cut inside
_FIRST.flags.writeable = False  # shared by every walk
# Walked window totals are summed exactly as integers; one pass over a
# chunk takes the weights whose shifts share a band of _BAND bits.
_BAND = 10
# Windows of harmonicplus weights up to this width are summed term by
# term; past it H_n takes its asymptotic series, whose totals are within
# _HARMONIC_ERR relative of the exact ones.
_HARMONIC_DIRECT = 64
_HARMONIC_ERR = 2.0 ** -52
_EULER_GAMMA = 0.5772156649015329
# The index budget: within_budget refuses any range past it before its
# first array is built; pow:2 at horizon 4096 needs 2^24.
_MAX_INDEX = 1 << 27
# From here on index_text names an index by its size, and ladders stop.
_HUGE_INDEX = 10 ** 20
# Every integer up to this one is an exact float64.
_EXACT_INT = 1 << 53
# Steps over which lambda_scheme and lacunary_scheme check their sequence.
_LAMBDA_CHECK = 4096
_LACUNARY_CHECK = 64


def index_text(k: int) -> str:
    """``k`` in full below _HUGE_INDEX, past that as a power of 2 (``2^66.44``)."""
    return str(k) if k < _HUGE_INDEX else f"2^{math.log2(k):.2f}"


def within_budget(k: int, subject: str, budget: str = "budget") -> int:
    """``k``, an index or a count, within the index budget; past it a
    ValueError "<subject><index_text(k)> exceeds the <budget> of 2^27 indices"."""
    if k > _MAX_INDEX:
        raise ValueError(f"{subject}{index_text(k)} exceeds the {budget} of "
                         f"{_MAX_INDEX} indices")
    return k


def unique_ints(a) -> np.ndarray:
    """Sorted unique int64 values of ``a``, as ``np.unique`` returns them.

    A sort that keeps the first of each run of equal values: ``np.unique``
    (and ``np.union1d`` through it) checks for a masked array, and its
    first call in a process imports ``numpy.ma``.
    """
    a = np.sort(np.asarray(a, dtype=np.int64), axis=None)
    keep = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class DegenerateWindowError(ValueError):
    """A window collapsed: empty index range or zero denominator."""


@dataclass(frozen=True)
class BetaGammaScheme:
    """Window-selecting index maps; both must return positive integers."""

    beta: Callable[[int], int]
    gamma: Callable[[int], int]
    label: str

    def window(self, n: int) -> tuple[int, int]:
        """Closed integer window [beta(n), gamma(n)] at step n."""
        n = integer_at_least(n, 1, "window index n")
        b, g = int(self.beta(n)), int(self.gamma(n))
        if b < 1:
            raise DegenerateWindowError(f"{self.label}: beta({n}) = {b} < 1")
        if g < b:
            raise DegenerateWindowError(
                f"{self.label}: window [{b}, {g}] at n={n} is empty")
        return b, g

    def __repr__(self):
        return f"BetaGammaScheme({self.label!r})"


# A closed form of weight sums: (a, g, window) -> sums over (a[i], g[i]].
Sums = Callable[[np.ndarray, np.ndarray, bool], np.ndarray]


class WeightSequence:
    """Positive weights t_k; window totals are summed afresh per query.

    ``sums`` is the closed form of a sequence that has one: given int64
    arrays a and g and a flag ``window``, it returns the weight sums over
    the ranges (a[i], g[i]], each alone, whatever else is asked.  With
    ``window`` set the sums are window totals, whose floors are taken: a
    sum must then floor right or raise ValueError naming its window.
    Totals and piece sums of a sequence with a closed form need no walk;
    without one, each window total is the correctly rounded exact sum of
    its weights, which is also alone.
    """

    def __init__(self, values_fn: Callable[[np.ndarray], np.ndarray], label: str,
                 sums: Sums | None = None):
        self._values_fn = values_fn
        self.label = label
        self.sums = sums
        if not self.value(1) > 0:
            raise ValueError("first weight must be positive")

    def values(self, ks: np.ndarray) -> np.ndarray:
        """Weights t_k; an index below 1 raises ValueError."""
        ks = np.asarray(ks, dtype=np.int64)
        if ks.min(initial=1) < 1:
            raise ValueError(f"{self.label}: weight index k={ks.min()} is below 1")
        return np.asarray(self._values_fn(ks), dtype=np.float64)

    def value(self, k: int) -> float:
        return float(self.values([integer_at_least(k, None, "weight index k")])[0])

    def ensure(self, k_max: int) -> None:
        """Refuse a walk over the weights up to k_max past the index budget."""
        within_budget(k_max, f"{self.label}: a walk over the weights up to k=")

    def chunks(self, cuts: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
        """Walk k over (cuts[0], cuts[-1]] in chunks of at most _CHUNK indices.

        ``cuts`` must be sorted and unique.  Pieces end at every cut and at
        every chunk end; each chunk yields its indices ``ks``, their weights
        ``t``, the offsets in ``ks`` where its pieces start (so
        ``np.add.reduceat(v, starts)`` sums v per piece; a shared read-only
        ``[0]`` when no cut lies inside) and the pieces' last indices, never
        a view that would keep ``ks`` alive.  A walk that ``ensure`` refuses
        raises before its first chunk; a weight past a table's end, or one
        that is not a finite positive number, raises ValueError naming it.
        """
        lo, hi = int(cuts[0]), int(cuts[-1])
        self.ensure(hi)
        marks, j = cuts.tolist(), 1  # cuts[j] is the first cut past a - 1
        for a in range(lo + 1, hi + 1, _CHUNK):
            b = min(hi, a + _CHUNK - 1)
            ks = np.arange(a, b + 1, dtype=np.int64)
            t = self.values(ks)
            if not (t.min() > 0 and t.max() < np.inf):  # false on a NaN too
                bad = ~(np.isfinite(t) & (t > 0))
                raise ValueError(f"{self.label}: weight t_{ks[np.argmax(bad)]} "
                                 "is not a finite positive number")
            end = bisect_left(marks, b, j)  # cuts[j:end] lie inside the chunk
            if end == j:
                yield ks, t, _FIRST, np.array([b])
            else:
                inner = cuts[j:end]
                yield (ks, t, np.concatenate(((0,), inner + 1 - a)),
                       np.concatenate((inner, (b,))))
            j = end + (end < len(marks) and marks[end] == b)

    def piece_sums(self, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Last index and weight sum of every piece of (cuts[0], cuts[-1]].

        A walked sequence's pieces are the walk's (``chunks``), ending at
        every cut and chunk end.  With a closed form ``sums`` nothing is
        walked and the pieces end only at the cuts: piece j is (cuts[j],
        cuts[j + 1]], one sum of the closed form, so the cost follows the
        number of cuts and not cuts[-1].
        """
        if self.sums is None:
            ends, sums = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
            for _, t, starts, last in self.chunks(cuts):
                ends.append(last)
                sums.append(np.add.reduceat(t, starts))
            return np.concatenate(ends), np.concatenate(sums)
        self.ensure(int(cuts[-1]))
        if cuts[0] < 0:  # as the walk's values() would
            raise ValueError(f"{self.label}: weight index k={cuts[0] + 1} is below 1")
        return cuts[1:], self.sums(cuts[:-1], cuts[1:], False)

    def window_total(self, lo: int, hi: int) -> float:
        """Sum of t_k over the closed range [lo, hi]."""
        return float(self.window_totals([integer_at_least(lo, None, "lo")],
                                        [integer_at_least(hi, None, "hi")])[0])

    def window_totals(self, los: Sequence[int], his: Sequence[int]) -> np.ndarray:
        """Sums of t_k over the closed ranges [los[i], his[i]], each alone.

        With a closed form ``sums`` (the built-in weights) each total is
        computed by it; otherwise by ``_exact_totals``.  A total past the
        float range raises ValueError naming the weights.
        """
        # ends past int64 must fail before np.asarray; an array's ends fit,
        # and its max is one numpy call, not a Python loop over its items
        self.ensure(his.max() if isinstance(his, np.ndarray) else max(his))
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        empty = np.flatnonzero((los < 1) | (his < los))
        if empty.size:
            i = empty[0]
            raise DegenerateWindowError(f"empty weight window [{los[i]}, {his[i]}]")
        try:
            totals = (self._exact_totals(los - 1, his) if self.sums is None
                      else self.sums(los - 1, his, True))
            if np.isfinite(totals).all():
                return totals
        except OverflowError:  # an int true division past the float range
            pass
        raise ValueError(f"{self.label}: a window total overflows a float")

    def _exact_totals(self, a: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Weight sums over the nonempty ranges (a[i], g[i]]: each the exact
        sum, correctly rounded (what ``math.fsum`` gives), so none depends
        on the other ranges.

        One walk over the union of the ranges keeps the exact sum below
        every range end as an integer in units of 2**-unit; a chunk whose
        least weight needs a finer unit shifts what is kept.  A weight in a
        gap between ranges is never read.
        """
        order = np.argsort(a)
        starts, tops = a[order], np.maximum.accumulate(g[order])
        first = np.flatnonzero(np.append(True, starts[1:] > tops[:-1]))
        cuts = unique_ints(np.append(a, g))
        ends, below, total, unit = [], [], 0, 0
        for lo, hi in zip(starts[first].tolist(),
                          tops[np.append(first[1:], len(a)) - 1].tolist()):
            ends.append(lo)
            below.append(total)
            span = cuts[np.searchsorted(cuts, lo):np.searchsorted(cuts, hi, "right")]
            for _, t, pieces, last in self.chunks(span):
                # every weight must be a multiple of 2**-unit
                finer = 53 - math.frexp(t.min())[1] - unit
                if finer > 0:
                    below, total = [b << finer for b in below], total << finer
                    unit += finer
                for piece in _exact_piece_sums(t, pieces, unit):
                    total += piece
                    below.append(total)
                ends += last.tolist()
        # int true division rounds correctly
        return np.array([(below[j] - below[i]) / (1 << unit)
                         for i, j in zip(*np.searchsorted(ends, (a, g)).tolist())])

    def __repr__(self):
        return f"WeightSequence({self.label!r})"


@dataclass(frozen=True)
class SchemeValidation:
    nondecreasing: bool
    ordered: bool
    growing: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.nondecreasing and self.ordered and self.growing


def _index_arrays(scheme: BetaGammaScheme, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:  # the callables mapped over Python ints: no numpy scalar per n
        betas, gammas = (np.fromiter(map(f, ns.tolist()), dtype=np.int64, count=len(ns))
                         for f in (scheme.beta, scheme.gamma))
    except OverflowError:
        raise ValueError(f"{scheme.label}: a window index for n <= {int(ns[-1])} "
                         "does not fit in int64") from None
    return betas, gammas


def validate_scheme(scheme: BetaGammaScheme, n_max: int) -> SchemeValidation:
    """Check the three window-scheme conditions over n = 1 .. n_max.

    (a) both index maps non-decreasing, (b) gamma >= beta everywhere,
    (c) the window width gamma - beta keeps growing on the tail half
    (the finite stand-in for width -> infinity).
    """
    n_max = within_budget(integer_at_least(n_max, 2, "horizon n_max"), "horizon n_max=")
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    betas, gammas = _index_arrays(scheme, ns)
    notes = []
    nondecr = bool(np.all(np.diff(betas) >= 0) and np.all(np.diff(gammas) >= 0))
    if not nondecr:
        notes.append("an index map decreases")
    ordered = bool(np.all(gammas >= betas) and np.all(betas >= 1))
    if not ordered:
        notes.append("gamma < beta or beta < 1 at some n")
    widths = gammas - betas
    tail = widths[n_max // 2 - 1:]
    growing = bool(np.all(np.diff(tail) >= 0) and tail[-1] > tail[0])
    if not growing:
        notes.append("window width stops growing on the tail")
    return SchemeValidation(nondecr, ordered, growing, "; ".join(notes))


def weighted_total(scheme: BetaGammaScheme, weights: WeightSequence, n: int) -> float:
    """Sum of weights over the n-th window."""
    b, g = scheme.window(n)
    return weights.window_total(b, g)


def dilated_indices(ns: np.ndarray, lam: float, cap: int) -> np.ndarray:
    """floor(min(lam * n, cap)) as int64 for n >= 1 and any lam > 0."""
    with np.errstate(over="ignore"):  # a product past the float range is cut too
        return np.floor(np.minimum(lam * ns, cap)).astype(np.int64)


def dilated_top(g: int, lam: float) -> int:
    """floor(lam * g), the top ``dilate`` moves g to; a product past the
    float range is refused by name."""
    try:
        return math.floor(lam * g)
    except OverflowError:
        raise ValueError(f"lam={lam!r} moves the window top {index_text(g)} "
                         "past the float range") from None


def dilation_factor(lam, grow: bool | None = None) -> float:
    """``lam`` as a float in (1, inf) if grow, in (0, 1) if not, in either if None."""
    grow = real_in(lam, "lam", 0, math.inf, open_low=True) > 1 if grow is None else grow
    return real_in(lam, "lam", *((1, math.inf) if grow else (0, 1)), open_low=True, open_high=True)


def dilate(scheme: BetaGammaScheme, lam: float) -> BetaGammaScheme:
    """Stretch the window top: gamma(n) -> floor(lam * gamma(n)), lam in (0, inf).

    The dilated top can drop below beta for small n and lam < 1; queries
    on such windows raise DegenerateWindowError rather than passing
    silently.
    """
    lam = real_in(lam, "lam", 0, math.inf, open_low=True)
    base_gamma = scheme.gamma
    return BetaGammaScheme(
        beta=scheme.beta,
        gamma=lambda n: dilated_top(base_gamma(n), lam),
        label=f"{scheme.label}|x{lam:g}",
    )


class RatioResult(NamedTuple):
    estimate: float
    holds: bool


def ratio_condition(scheme: BetaGammaScheme, weights: WeightSequence, lam: float,
                    n_max: int, which: int) -> RatioResult:
    """Tail estimate of one of the four dilation ratio conditions.

    which=2: liminf T_dilated / T        (lam in (1, inf); holds when > 1)
    which=3: liminf T / T_dilated        (lam in (0, 1); holds when > 1)
    which=4: limsup T_dilated / (T_dilated - T)   (lam in (1, inf); holds when finite)
    which=5: limsup T_dilated / (T - T_dilated)   (lam in (0, 1); holds when finite)

    Any other lam (NaN, inf) is refused by name before any walk;
    liminf/limsup are estimated as min/max over [n_max // 2, n_max].
    """
    return _ratio_conditions(scheme, weights, (lam,), n_max, which)[0]


def _ratio_conditions(scheme: BetaGammaScheme, weights: WeightSequence,
                      lams: Sequence[float], n_max: int,
                      which: int) -> list[RatioResult]:
    """``ratio_condition`` at each lam of ``lams``, each checked as it checks
    its one: the index arrays are mapped once, and the base totals and
    every lam's moved totals come from one ``window_totals`` call, which
    computes each total alone, so each estimate is its one-lam call's."""
    if which not in (DILATION_LIMINF, SHRINK_LIMINF, DILATION_GAP_LIMSUP,
                     SHRINK_GAP_LIMSUP):
        raise ValueError("which must be one of 2, 3, 4, 5")
    lams = [dilation_factor(lam, which in (DILATION_LIMINF, DILATION_GAP_LIMSUP))
            for lam in lams]

    n_max = within_budget(integer_at_least(n_max, 2, "horizon n_max"), "horizon n_max=")
    ns = np.arange(n_max // 2, n_max + 1, dtype=np.int64)
    betas, gammas = _index_arrays(scheme, ns)
    # capped where int64 still holds it, so the index budget refuses it by name
    dil_gammas = [dilated_indices(gammas, lam, 1 << 62) for lam in lams]
    # A shrunken top below beta leaves an empty index range, whose total
    # is the empty sum 0 (the shrink ratios then come out infinite).
    nonempty = [dil >= betas for dil in dil_gammas]
    totals = weights.window_totals(
        np.concatenate([betas] + [betas[keep] for keep in nonempty]),
        np.concatenate([gammas] + [dil[keep] for dil, keep in zip(dil_gammas, nonempty)]))
    base, *moved = np.split(totals, np.cumsum(
        [len(ns)] + [np.count_nonzero(keep) for keep in nonempty])[:-1])

    results = []
    for lam, keep, part in zip(lams, nonempty, moved):
        dil = np.zeros(len(ns))
        dil[keep] = part
        outer, inner = (dil, base) if lam > 1 else (base, dil)
        if which in (DILATION_LIMINF, SHRINK_LIMINF):
            with np.errstate(divide="ignore"):
                est = float(np.min(outer / inner))
            results.append(RatioResult(est, est > 1 + HOLDS_MARGIN))
            continue
        gap = outer - inner
        if np.any(gap <= 0):
            bad = int(ns[np.argmax(gap <= 0)])
            raise DegenerateWindowError(
                f"zero window-total gap at n={bad} (lam={lam:g})")
        est = float(np.max(dil / gap))
        results.append(RatioResult(est, math.isfinite(est)))
    return results


# ---------------------------------------------------------------------------
# Built-in schemes and weights, plus the spec-string mini language.
# ---------------------------------------------------------------------------

def classical_scheme() -> BetaGammaScheme:
    """Windows [1, n]: plain front-anchored averaging."""
    return BetaGammaScheme(lambda n: 1, lambda n: n, "classical")


def power_scheme(p: int) -> BetaGammaScheme:
    """Windows [1, n**p]."""
    p = integer_at_least(p, 1, "power p")
    return BetaGammaScheme(lambda n: 1, lambda n: n ** p, f"pow:{p}")


def lambda_scheme(lam_fn: Callable[[int], int], label: str) -> BetaGammaScheme:
    """Trailing windows [n - lam(n) + 1, n] with integer window lengths.

    The length sequence must start at 1, be non-decreasing, grow by at
    most 1 per step, and keep growing; violations on the first
    _LAMBDA_CHECK steps are rejected by name.
    """
    vals = [int(lam_fn(n)) for n in range(1, _LAMBDA_CHECK + 1)]
    if vals[0] != 1:
        raise ValueError("lambda sequence must start at 1")
    # before the first bad step every length lies in [1, 4096], so that
    # step's sign is exact even in the float or object array huge lengths give
    steps = np.diff(vals)
    bad = np.flatnonzero((steps < 0) | (steps > 1))
    if bad.size:
        if steps[bad[0]] < 0:
            raise ValueError("lambda sequence must be non-decreasing")
        raise ValueError("lambda sequence may grow by at most 1 per step")
    if vals[-1] <= vals[len(vals) // 2]:
        raise ValueError("lambda sequence must tend to infinity")
    return BetaGammaScheme(lambda n: n - int(lam_fn(n)) + 1, lambda n: n, label)


_LAMBDA_PRESETS = {
    "n": (lambda n: n),
    "half": (lambda n: (n + 1) // 2),
}


def lacunary_scheme(k_fn: Callable[[int], int], label: str) -> BetaGammaScheme:
    """Block windows [k(r-1) + 1, k(r)] for an increasing integer sequence
    with k(0) = 0, checked on its first _LACUNARY_CHECK steps."""
    ks = [int(k_fn(r)) for r in range(_LACUNARY_CHECK + 1)]
    if ks[0] != 0:
        raise ValueError("lacunary boundary sequence must start at k_0 = 0")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("lacunary boundary sequence must be strictly increasing")
    return BetaGammaScheme(lambda r: int(k_fn(r - 1)) + 1,
                           lambda r: int(k_fn(r)), label)


def read_table(path: str, *casts: Callable[[str], object]) -> list[list]:
    """Columns of a ``file:`` table, each line cast column by column.

    ``#`` starts a comment, entries are separated by commas or whitespace
    and blank lines are skipped; a line with the wrong column count or an
    entry its cast rejects raises ValueError naming ``path:line``.
    """
    columns = [[] for _ in casts]
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].replace(",", " ").split()
            if not parts:
                continue
            if len(parts) != len(casts):
                raise ValueError(f"{path}:{line_no}: {len(parts)} entries, "
                                 f"expected {len(casts)}")
            try:
                for column, cast, part in zip(columns, casts, parts):
                    column.append(cast(part))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if not columns[0]:
        raise ValueError(f"{path}: empty table")
    return columns


def table_scheme(path: str) -> BetaGammaScheme:
    """Scheme from a file of 'beta gamma' rows; row order gives n."""
    betas, gammas = read_table(path, int, int)

    def row(n: int) -> tuple[int, int]:
        if n > len(betas):
            raise ValueError(f"scheme table {path} ends at n={len(betas)}")
        return betas[n - 1], gammas[n - 1]

    return BetaGammaScheme(lambda n: row(n)[0], lambda n: row(n)[1],
                           f"file:{path}")


def _decimal_ratio(c: float) -> tuple[int, int]:
    """Exact ratio (p, q) of c's shortest repr: 0.7 gives (7, 10), not
    the binary float just below it."""
    digits, _, exp = repr(c).partition("e")
    whole, _, frac = digits.partition(".")
    shift = int(exp or 0) - len(frac)
    p = int(whole + frac)
    return (p * 10 ** shift, 1) if shift >= 0 else (p, 10 ** -shift)


def _ratio_sums(p: int, q: int):
    """Closed form of the constant weight p/q: a window of width w totals
    p*w/q, correctly rounded, so an integer total floors right; a piece
    sums to c*w for the float c = p/q.  Where q and every p*w are at most
    2**53, both are exact floats and one float division rounds as the
    int true division does."""

    def sums(a: np.ndarray, g: np.ndarray, window: bool) -> np.ndarray:
        w = g - a
        if not window:
            return p / q * w
        if q <= _EXACT_INT and p * int(w.max(initial=1)) <= _EXACT_INT:
            return (p * w) / q
        return np.array([p * v / q for v in w.tolist()])

    return sums


def constant_weights(c: float) -> WeightSequence:
    c = real_in(c, "constant weight", 0, math.inf, open_low=True)
    short = f"{c:g}"  # six digits; repr where they name another float
    label = f"const:{short if float(short) == c else repr(c)}"
    return WeightSequence(lambda ks: np.full(len(ks), c), label,
                          sums=_ratio_sums(*_decimal_ratio(c)))


def recip5_weights() -> WeightSequence:
    return WeightSequence(lambda ks: np.full(len(ks), 0.2), "recip5",
                          sums=_ratio_sums(1, 5))


def _harmonic_tail(n: np.ndarray) -> np.ndarray:
    """H_n - ln n - gamma for n >= _HARMONIC_DIRECT, to within 1/(240 n**8)."""
    n = n.astype(np.float64)
    r = 1.0 / (n * n)
    return 0.5 / n - r * (1 / 12 - r * (1 / 120 - r / 252))


def _harmonicplus_sums(a: np.ndarray, g: np.ndarray, window: bool) -> np.ndarray:
    """Sums of 1 + 1/k over (a, g]: the width w = g - a plus H_g - H_a.

    A range of width at most _HARMONIC_DIRECT is summed term by term, and
    so is H_a for a below it: largest term first, each addition's rounding
    error carried along (Fast2Sum), after the width.  Otherwise H_g - H_a
    takes the series H_n = ln n + gamma + _harmonic_tail(n), with ln g -
    ln a as one log of g/a once a reaches the cutoff.  Every sum is
    within _HARMONIC_ERR * sum of the exact one.  H_g - H_a is an integer
    only for (a, g] = (0, 1] (Kurschak, 1918), so a window total taken by
    the series within that bound of an integer has a floor in doubt and
    raises ValueError naming its window.  Term-by-term totals are exempt:
    their floors were checked against exact fractions.
    """
    w = g - a
    near = w <= _HARMONIC_DIRECT
    lo = np.where(near, a + 1, 1)
    hi = np.where(near, g, np.where(a < _HARMONIC_DIRECT, a, 0))
    s, err = np.where(near, w, 0).astype(np.float64), np.zeros(len(w))
    for j in range(int((hi - lo).max(initial=-1)) + 1):
        k = lo + j
        x = np.where(k <= hi, 1.0 / k, 0.0)
        t = s + x
        err += (s - t) + x  # exact, as s is 0 or at least x
        s = t
    s += err  # the total where near, else H_a (0 when a is past the cutoff)
    # H_g - H_a = ln(g/base) + tail(g) - offset: base 1 and offset H_a - gamma
    # below the cutoff, base a and offset tail(a) from it
    small = a < _HARMONIC_DIRECT
    base = np.where(small, 1, a)
    offset = np.where(small, s - _EULER_GAMMA,
                      _harmonic_tail(np.maximum(a, _HARMONIC_DIRECT)))
    with np.errstate(divide="ignore"):  # log(0) where g = 0, discarded below
        far = w + (np.log(g / base) - offset
                   + _harmonic_tail(np.maximum(g, _HARMONIC_DIRECT)))
    if window:
        doubt = np.flatnonzero(~near & (np.abs(far - np.rint(far))
                                        <= _HARMONIC_ERR * far))
        if doubt.size:
            i = doubt[0]
            raise ValueError(f"harmonicplus: the total {far[i]!r} over "
                             f"[{a[i] + 1}, {g[i]}] lies within its error bound "
                             "of an integer, so its floor is in doubt")
    return np.where(near, s, far)


def _harmonicplus_values(ks: np.ndarray) -> np.ndarray:
    """1 + 1/k, with the bits of ``1.0 + 1.0 / ks`` and one array."""
    t = np.divide(1.0, ks, dtype=np.float64)
    t += 1.0
    return t


def harmonicplus_weights() -> WeightSequence:
    return WeightSequence(_harmonicplus_values, "harmonicplus",
                          sums=_harmonicplus_sums)


def _exact_piece_sums(t: np.ndarray, starts: np.ndarray, unit: int) -> list[int]:
    """Exact sums of the positive floats t, each a multiple of 2**-unit,
    over the pieces starting at ``starts``, as integers in that unit.

    t = f * 2**e with f * 2**53 an integer, so t is that integer shifted
    left by e - 53 + unit >= 0 bits.  The shift splits into a band of
    _BAND bits and a remainder taken in int64 (below 2**62); within a
    band, the high and low halves of those integers sum exactly in int64
    over a chunk of up to 2**32 floats.
    """
    f, e = np.frexp(t)
    e += unit - 53
    m = (f * 2.0 ** 53).astype(np.int64) << (e % _BAND)
    band = e // _BAND
    sums = [0] * len(starts)
    for b in range(int(band.min()), int(band.max()) + 1):
        v = np.where(band == b, m, 0)
        hi = np.add.reduceat(v >> 31, starts).tolist()
        lo = np.add.reduceat(v & ((1 << 31) - 1), starts).tolist()
        sums = [s + (((h << 31) + w) << (_BAND * b))
                for s, h, w in zip(sums, hi, lo)]
    return sums


def table_weights(path: str) -> WeightSequence:
    """Weights from a file with one value per row; row order gives k."""
    table = np.array(read_table(path, float)[0])
    label = f"file:{path}"

    def values(ks: np.ndarray) -> np.ndarray:
        if ks.max(initial=0) > len(table):
            raise ValueError(f"{label}: weight table ends at k={len(table)}")
        return table[ks - 1]

    return WeightSequence(values, label)


def parse_scheme_spec(spec: str) -> BetaGammaScheme:
    """Mini language: classical | pow:p | lambda:<id> | lacunary:pow2 | file:<path>."""
    token = spec.strip()
    if token == "classical":
        return classical_scheme()
    if token.startswith("pow:"):
        try:
            p = int(token[4:])
        except ValueError:
            raise ValueError(f"bad power in scheme spec: {token!r}") from None
        return power_scheme(p)
    if token.startswith("lambda:"):
        name = token[7:]
        if name not in _LAMBDA_PRESETS:
            raise ValueError(f"unknown lambda preset in scheme spec: {token!r}")
        return lambda_scheme(_LAMBDA_PRESETS[name], token)
    if token == "lacunary:pow2":
        return lacunary_scheme(lambda r: 0 if r == 0 else 2 ** r, token)
    if token.startswith("file:"):
        return table_scheme(token[5:])
    raise ValueError(f"unknown scheme spec token: {token!r}")


def parse_weight_spec(spec: str) -> WeightSequence:
    """Mini language: const:c | recip5 | harmonicplus | file:<path>."""
    token = spec.strip()
    if token.startswith("const:"):
        try:
            c = float(token[6:])
        except ValueError:
            raise ValueError(f"bad constant in weight spec: {token!r}") from None
        return constant_weights(c)
    if token == "recip5":
        return recip5_weights()
    if token == "harmonicplus":
        return harmonicplus_weights()
    if token.startswith("file:"):
        return table_weights(token[5:])
    raise ValueError(f"unknown weight spec token: {token!r}")
