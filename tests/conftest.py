"""Shared strategies and brute-force oracles for the test suite.

Dyadic values (multiples of 1/64) on dyadic level grids keep every
addition, subtraction, and comparison exact in binary floating point,
which lets the algebraic identities be asserted with zero slack.  The
oracle functions recompute the transforms index by index through the
FuzzyNumber API, independent of the vectorized profile sweeps they
check; given the exact weights of a built-in spec, they take its window
totals exactly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from fuzzysumm import FuzzyNumber, crisp, distance, triangular
from fuzzysumm.summability import limit_profile_fn

# 65 uniform levels: spacing 1/64, so alpha values and the products
# (1 - alpha) * spread stay exactly representable for dyadic spreads.
DYADIC_LEVELS = 65


def dyadic(lo: float, hi: float, scale: int = 64):
    """Floats in [lo, hi] restricted to multiples of 1/scale."""
    return st.integers(min_value=int(lo * scale), max_value=int(hi * scale)).map(
        lambda k: k / scale)


def fuzzy_numbers(span: float = 8.0, max_spread: float = 4.0):
    """Triangular (sometimes crisp) numbers with dyadic parameters."""
    return st.builds(
        lambda c, l, r: triangular(c, l, r, levels=DYADIC_LEVELS),
        dyadic(-span, span),
        dyadic(0.0, max_spread),
        dyadic(0.0, max_spread),
    )


def rng_triangular(rng: np.random.Generator, span: float = 8.0,
                   levels: int = DYADIC_LEVELS) -> FuzzyNumber:
    """Seeded dyadic triangular sample for the bulk property sweeps."""
    c = rng.integers(-64 * span, 64 * span + 1) / 64
    l = rng.integers(0, 64 * 4 + 1) / 64
    r = rng.integers(0, 64 * 4 + 1) / 64
    return triangular(float(c), float(l), float(r), levels=levels)


# ---------------------------------------------------------------------------
# Brute-force oracles (index-by-index, FuzzyNumber space)
# ---------------------------------------------------------------------------

def exact_weight(spec: str):
    """The exact weight of a built-in spec: a Fraction for a constant
    (``const:0.7`` is 7/10), k -> 1 + 1/k for ``harmonicplus``, and None
    for ``file:`` weights."""
    if spec == "recip5":
        return Fraction(1, 5)
    if spec.startswith("const:"):
        return Fraction(spec[6:])
    if spec == "harmonicplus":
        return _harmonicplus
    return None


def _harmonicplus(k):
    return 1 + Fraction(1, k)


@functools.lru_cache(maxsize=None)
def _exact_sum(weight, b, g):
    return sum(map(weight, range(b, g + 1)), Fraction(0))


def oracle_total(p, b, g, weight=None):
    """Total over [b, g]: the exact ``weight`` times the width, the exact
    weights summed as fractions, or the float weights summed index by
    index when no exact weight is given."""
    if weight is None:
        return sum(p.weights.value(k) for k in range(b, g + 1))
    if callable(weight):
        return _exact_sum(weight, b, g)
    return weight * (g - b + 1)


def oracle_absolute_partial(seq, limit, p, n, x, weight=None):
    b, g = p.scheme.window(n)
    lim = triangular(*limit_profile_fn(seq, limit)(x))
    total = float(oracle_total(p, b, g, weight))
    s = sum(p.weights.value(k) * distance(seq.eval(k, x), lim)
            for k in range(b, g + 1))
    return s / total ** p.theta


def oracle_sp_density(seq, limit, p, n, x, weight=None):
    b, g = p.scheme.window(n)
    lim = triangular(*limit_profile_fn(seq, limit)(x))
    total = oracle_total(p, b, g, weight)
    k_max = math.floor(total)
    count = sum(
        1 for k in range(1, k_max + 1)
        if p.weights.value(k) * distance(seq.eval(k, x), lim) >= p.eps)
    return count / float(total) ** p.theta


def oracle_ordinary_partial(seq, p, n, x, weight=None):
    from fuzzysumm import add, scale, zero
    b, g = p.scheme.window(n)
    total = float(oracle_total(p, b, g, weight))
    acc = zero()
    for k in range(b, g + 1):
        acc = add(acc, scale(p.weights.value(k), seq.eval(k, x)))
    return scale(1.0 / total ** p.theta, acc)


def squares_upto(m: int) -> list[int]:
    return [p * p for p in range(1, math.isqrt(m) + 1)]


def icbrt(m: int) -> int:
    if m < 1:
        return 0
    c = round(m ** (1 / 3))
    while (c + 1) ** 3 <= m:
        c += 1
    while c ** 3 > m:
        c -= 1
    return c


def one_short_line(message: str, named: str) -> bool:
    """A refusal read at a glance: one line of at most 200 bytes that
    contains ``named``."""
    line = message.removesuffix("\n")
    return "\n" not in line and len(line.encode()) <= 200 and named in line
