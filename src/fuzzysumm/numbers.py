"""Fuzzy real numbers stored as ladders of nested alpha-cut intervals.

A fuzzy number is represented by its cuts on a finite membership grid:
for each level ``alpha`` in [0, 1] an interval ``[lower, upper]``. Cuts
are nested (lower endpoints non-decreasing in alpha, upper endpoints
non-increasing), the top cut is nonempty and the bottom cut is bounded,
which is exactly the data needed by the metric and the partial order
implemented here. All piecewise-linear shapes (crisp values, triangular
numbers) are represented exactly on any grid containing levels 0 and 1.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache
from typing import NamedTuple

import numpy as np

DEFAULT_LEVEL_COUNT = 101

# Absolute slack for level-wise equality / order comparisons of floats.
ATOL = 1e-12
# How far a cut ladder may stray from triangular in triangular_profile_of.
_PROFILE_TOL = 1e-9


@lru_cache(maxsize=64, typed=True)  # else 5.0 hits the entry of 5, unchecked
def uniform_alphas(level_count: int) -> np.ndarray:
    """Uniform membership grid on [0, 1] with both endpoints included."""
    alphas = np.linspace(0.0, 1.0, integer_at_least(level_count, 2, "level_count"))
    alphas.flags.writeable = False
    return alphas


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


class FuzzyNumber:
    """A fuzzy real number as alpha-cut intervals on a level grid.

    ``lower[i]`` and ``upper[i]`` bound the cut at level ``alphas[i]``.
    Instances are immutable values; every operation returns a new one.
    """

    __slots__ = ("alphas", "lower", "upper")

    def __init__(self, alphas, lower, upper, check: bool = True):
        alphas = _frozen(alphas)
        lower = _frozen(lower)
        upper = _frozen(upper)
        if check:
            if not (len(alphas) == len(lower) == len(upper)):
                raise ValueError("alphas, lower, upper must have equal length")
            if len(alphas) < 2:
                raise ValueError("need at least the levels 0 and 1")
            if alphas[0] != 0.0 or alphas[-1] != 1.0:
                raise ValueError("level grid must run from 0 to 1")
            if np.any(np.diff(alphas) <= 0):
                raise ValueError("levels must be strictly increasing")
            if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
                raise ValueError("cut endpoints must be finite")
            if np.any(lower > upper):
                raise ValueError("every cut needs lower <= upper")
            if np.any(np.diff(lower) < 0) or np.any(np.diff(upper) > 0):
                raise ValueError("cuts must be nested as alpha increases")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __setattr__(self, name, value):
        raise AttributeError("FuzzyNumber is immutable")

    @property
    def level_count(self) -> int:
        return len(self.alphas)

    def cut(self, alpha: float) -> tuple[float, float]:
        """Interval at membership level ``alpha`` (linear between grid levels)."""
        alpha = real_in(alpha, "alpha", 0, 1)
        return (float(np.interp(alpha, self.alphas, self.lower)),
                float(np.interp(alpha, self.alphas, self.upper)))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lower[0]), float(self.upper[0])

    def __add__(self, other):
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        return add(self, other)

    def __rmul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return scale(c, self)

    def __repr__(self):
        lo0, hi0 = self.support
        lo1, hi1 = float(self.lower[-1]), float(self.upper[-1])
        return (f"FuzzyNumber(core=[{lo1:g}, {hi1:g}], "
                f"support=[{lo0:g}, {hi0:g}], levels={self.level_count})")


def crisp(r: float, levels: int = DEFAULT_LEVEL_COUNT) -> FuzzyNumber:
    """Embed a real number: every cut is the degenerate interval [r, r]."""
    return triangular(r, 0.0, 0.0, levels)


def zero(levels: int = DEFAULT_LEVEL_COUNT) -> FuzzyNumber:
    return crisp(0.0, levels)


NOT_TRIANGULAR = "non-finite center or spread, or a negative spread"


def is_triangular(c, l, r):
    """Whether center c and spreads l, r form a triangular value: all finite
    and l, r >= 0, NaN failing every test.  Elementwise on arrays."""
    return ((abs(c) < np.inf) & (0 <= l) & (l < np.inf)
            & (0 <= r) & (r < np.inf))


def integer_at_least(value, least, name: str) -> int:
    """``value`` as a Python int, numpy integers too: the one rule for every
    count, index and horizon.  A non-integer (a float, NaN) is a TypeError
    naming ``name``, one below ``least`` (None: no bound) a ValueError."""
    try:
        v = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and v < least:
        raise ValueError(f"{name} must be at least {least}, got {v}")
    return v


def real_in(value, name: str, low: float, high: float, *,
            open_low: bool = False, open_high: bool = False) -> float:
    """``value`` as a Python float, the one rule for every real argument: a
    non-real (a str, None, a complex) is a TypeError naming ``name``, and NaN or
    a value outside [low, high], open at a flagged or infinite end, a ValueError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int past the float range
        v = math.nan
    open_low, open_high = open_low or low == -math.inf, open_high or high == math.inf
    if not ((low < v if open_low else low <= v) and (v < high if open_high else v <= high)):
        raise ValueError(f"{name} must lie in {'[('[open_low]}{low:g}, {high:g}"
                         f"{'])'[open_high]}, got {value!r}")
    return v


def triangular(center: float, left_spread: float, right_spread: float,
               levels: int = DEFAULT_LEVEL_COUNT) -> FuzzyNumber:
    """Triangular number: cut at alpha is
    [center - (1-alpha)*left_spread, center + (1-alpha)*right_spread]."""
    if not is_triangular(center, left_spread, right_spread):
        raise ValueError(f"triangular({center:g}, {left_spread:g}, "
                         f"{right_spread:g}) has a {NOT_TRIANGULAR}")
    alphas = uniform_alphas(levels)
    slack = 1.0 - alphas
    return FuzzyNumber(alphas, center - slack * left_spread,
                       center + slack * right_spread, check=False)


def resample(x: FuzzyNumber, alphas: np.ndarray) -> FuzzyNumber:
    """Re-evaluate the cut ladder on a new level grid by linear interpolation."""
    lo = np.interp(alphas, x.alphas, x.lower)
    hi = np.interp(alphas, x.alphas, x.upper)
    return FuzzyNumber(alphas, lo, hi, check=False)


def _aligned(x: FuzzyNumber, y: FuzzyNumber) -> tuple[FuzzyNumber, FuzzyNumber]:
    if x.level_count == y.level_count and np.array_equal(x.alphas, y.alphas):
        return x, y
    if x.level_count >= y.level_count:
        return x, resample(y, x.alphas)
    return resample(x, y.alphas), y


def add(x: FuzzyNumber, y: FuzzyNumber) -> FuzzyNumber:
    """Level-wise interval addition."""
    a, b = _aligned(x, y)
    return FuzzyNumber(a.alphas, a.lower + b.lower, a.upper + b.upper, check=False)


def scale(c: float, x: FuzzyNumber) -> FuzzyNumber:
    """Level-wise scaling; endpoints swap when the factor is negative."""
    c = real_in(c, "scale factor", -math.inf, math.inf)
    if c >= 0:
        return FuzzyNumber(x.alphas, c * x.lower, c * x.upper, check=False)
    return FuzzyNumber(x.alphas, c * x.upper, c * x.lower, check=False)


def translate(x: FuzzyNumber, t: float) -> FuzzyNumber:
    """Shift by a crisp constant; the only subtraction the order checks need."""
    return add(x, crisp(t, x.level_count))


def distance(x: FuzzyNumber, y: FuzzyNumber) -> float:
    """Largest endpoint deviation between the two cut ladders.

    Maximum over grid levels of max(|lower difference|, |upper difference|);
    exact for piecewise-linear shapes whose kinks lie on the grid.
    """
    a, b = _aligned(x, y)
    return float(np.max(np.maximum(np.abs(a.lower - b.lower),
                                   np.abs(a.upper - b.upper))))


def partial_leq(x: FuzzyNumber, y: FuzzyNumber) -> bool:
    """Partial order: both cut endpoints of x are <= those of y at every
    level, within ATOL."""
    a, b = _aligned(x, y)
    return bool(np.all(a.lower <= b.lower + ATOL)
                and np.all(a.upper <= b.upper + ATOL))


class ClosenessCheck(NamedTuple):
    by_metric: bool
    by_order: bool


def closeness_check(x: FuzzyNumber, y: FuzzyNumber, eps: float) -> ClosenessCheck:
    """Evaluate eps-closeness two independent ways.

    ``by_metric``: distance(x, y) <= eps.  ``by_order``: the sandwich
    x - eps <= y <= x + eps in the partial order.  The two booleans agree
    for exact arithmetic; disagreement flags a numerical or logic bug.
    """
    eps = real_in(eps, "eps", 0, math.inf, open_low=True)
    by_metric = distance(x, y) <= eps + ATOL
    by_order = (partial_leq(translate(x, -eps), y)
                and partial_leq(y, translate(x, eps)))
    return ClosenessCheck(by_metric, by_order)


def triangular_profile_distance(c1, l1, r1, c2, l2, r2):
    """Metric between triangular numbers given as (center, spreads) triples.

    Endpoint differences are linear in alpha, so the supremum sits at
    level 0 or 1: max(|dc|, |dc - dl|, |dc + dr|).  Works elementwise on
    arrays, which is what the summability sweeps rely on; scalars give a
    scalar.  Every step writes into one of three buffers: fresh
    temporaries per call would make the heap trim and regrow.
    """
    shape = np.broadcast(c1, l1, r1, c2, l2, r2).shape
    dc, dl, dr = (np.subtract(a, b, out=np.empty(shape))
                  for a, b in ((c1, c2), (l1, l2), (r1, r2)))
    np.subtract(dc, dl, out=dl)
    np.add(dc, dr, out=dr)
    for d in (dc, dl, dr):
        np.abs(d, out=d)
    np.maximum(dl, dr, out=dl)
    np.maximum(dc, dl, out=dc)
    return dc if shape else dc[()]


def triangular_profile_of(x: FuzzyNumber) -> tuple[float, float, float]:
    """Extract (center, left_spread, right_spread) from a triangular-shaped number.

    Raises if the cut ladder is not triangular to within _PROFILE_TOL;
    callers use this to normalize limit values for the vectorized sweeps.
    """
    c_lo, c_hi = float(x.lower[-1]), float(x.upper[-1])
    if abs(c_hi - c_lo) > _PROFILE_TOL:
        raise ValueError("top cut is an interval, not a point: not triangular")
    center = c_lo
    left = center - float(x.lower[0])
    right = float(x.upper[0]) - center
    slack = 1.0 - x.alphas
    if (np.max(np.abs(x.lower - (center - slack * left))) > _PROFILE_TOL
            or np.max(np.abs(x.upper - (center + slack * right))) > _PROFILE_TOL):
        raise ValueError("cut endpoints are not linear in alpha: not triangular")
    return center, left, right
