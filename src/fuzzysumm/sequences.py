"""Sequences of fuzzy-valued functions on an interval, with built-in families.

Every family in scope takes triangular (or crisp) values, so a sequence
is stored as a vectorized profile map: (indices k, point x) -> arrays of
(center, left_spread, right_spread).  ``eval`` materializes a single
value as a FuzzyNumber; the summability sweeps consume the profile
arrays directly, checked by ``values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .numbers import (NOT_TRIANGULAR, FuzzyNumber, integer_at_least, is_triangular,
                      real_in, triangular, triangular_profile_distance)
from .schemes import _CHUNK, read_table, within_budget

TriProfile = tuple[np.ndarray, np.ndarray, np.ndarray]
LimitProfile = tuple[float, float, float]
_ValueMap = Callable[[np.ndarray, float], np.ndarray]  # (ks, x) -> values
_IndexMap = Callable[[np.ndarray], np.ndarray]  # ks -> values, for every x
_Exceptions = Callable[[int, int], np.ndarray]  # (lo, hi) -> sorted int64 ks

# The spreads of every crisp family on up to one walk chunk: slices of one
# shared read-only buffer, which the dense walk knows to be zero by identity.
ZERO_SPREADS = np.zeros(_CHUNK)
ZERO_SPREADS.flags.writeable = False
_SIGNS = np.array([-1.0, 1.0])  # alternating_crisp's value at even, odd k
_SIGNS.flags.writeable = False


# --- exact integer root tests (float sqrt/cbrt alone misclassify large k) ---

# Largest int64 roots: every candidate root is clipped to these, so the
# squares and cubes that check it cannot wrap around near 2^63.
_SQRT_MAX = 3037000499  # isqrt(2**63 - 1)
_CBRT_MAX = 2097151     # 2097152**3 == 2**63


def _int_root(ks: np.ndarray, p: int, estimate, cap: int) -> np.ndarray:
    """Exact floor of k ** (1/p): float estimate, clip, correct by one."""
    ks = np.asarray(ks, dtype=np.int64)
    s = np.minimum(estimate(ks.astype(np.float64)).astype(np.int64), cap)
    up = np.minimum(s + 1, cap)
    s = np.where(up ** p <= ks, up, s)
    return np.where(s ** p > ks, s - 1, s)


def int_sqrt(ks: np.ndarray) -> np.ndarray:
    return _int_root(ks, 2, lambda f: np.floor(np.sqrt(f)), _SQRT_MAX)


def int_cbrt(ks: np.ndarray) -> np.ndarray:
    return _int_root(ks, 3, lambda f: np.rint(np.cbrt(f)), _CBRT_MAX)


def is_square(ks: np.ndarray) -> np.ndarray:
    return int_sqrt(ks) ** 2 == np.asarray(ks, dtype=np.int64)


def is_cube(ks: np.ndarray) -> np.ndarray:
    return int_cbrt(ks) ** 3 == np.asarray(ks, dtype=np.int64)


def _powers(root: Callable[[np.ndarray], np.ndarray], p: int) -> _Exceptions:
    """Exception hook of a family that leaves its limit only on p-th powers;
    ``root`` is the exact floor of the p-th root."""

    def exceptional(lo: int, hi: int) -> np.ndarray:
        below, top = root(np.array([max(lo, 1) - 1, max(hi, 0)], dtype=np.int64))
        return np.arange(below + 1, top + 1, dtype=np.int64) ** p

    return exceptional


@dataclass(frozen=True)
class XGridPolicy:
    """Finite sample of evaluation points inside the function domain."""

    points: tuple[float, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("grid points must be strictly increasing")


def uniform_grid(a: float, b: float, count: int = 5) -> XGridPolicy:
    count = integer_at_least(count, 1, "grid count")
    # one point is a, whatever b is: np.linspace(a, inf, 1) is NaN
    return XGridPolicy(tuple(np.linspace(a, b, count)) if count > 1 else (float(a),))


@dataclass(frozen=True)
class FuzzyFunctionSequence:
    """Family k -> f_k(x) of triangular-valued fuzzy functions.

    ``profile(ks, x)`` returns (centers, left_spreads, right_spreads)
    arrays for the indices ``ks``; ``limit_profile(x)``, when present, is
    the function the family is claimed to converge to.  ``exceptional(lo,
    hi)``, when present, returns the sorted int64 indices of [lo, hi] at
    which ``profile`` may differ from ``limit_profile``, for every x: extra
    indices are harmless, a missing one is a bug.  The sweeps then
    evaluate the family only there.  ``x_free`` says that neither
    ``profile`` nor ``limit_profile`` reads x: the sweeps then stream the
    family once per distinct limit, and the scans and ``is_bounded``
    evaluate it at the first grid point only.  Only the constructors set
    it; a wrong True gives wrong numbers with no error.  Every family
    lives on the domain [1, 2].
    """

    label: str
    profile: Callable[[np.ndarray, float], TriProfile]
    limit_profile: Optional[Callable[[float], LimitProfile]] = None
    exceptional: Optional[_Exceptions] = None
    x_free: bool = False
    domain: ClassVar[tuple[float, float]] = (1.0, 2.0)

    def check_x(self, x: float) -> float:
        return real_in(x, "x", *self.domain)

    def values(self, ks: np.ndarray, x: float) -> TriProfile:
        """``profile(ks, x)``, refused where it is not ``is_triangular``:
        the ValueError names the first such k."""
        c, l, r = self.profile(ks, x)
        good = is_triangular(c, l, r)
        if not good.all():
            k = ks[np.argmin(good)]
            raise ValueError(f"{self.label}: f_{k}({x:g}) has a {NOT_TRIANGULAR}")
        return c, l, r

    def eval(self, k: int, x: float) -> FuzzyNumber:
        """The fuzzy value f_k(x)."""
        k = integer_at_least(k, 1, "sequence index k")
        x = self.check_x(x)
        c, l, r = self.profile(np.array([k], dtype=np.int64), x)
        return triangular(float(c[0]), float(l[0]), float(r[0]))

    def claimed_limit(self, x: float) -> FuzzyNumber:
        if self.limit_profile is None:
            raise ValueError(f"{self.label}: no claimed limit recorded")
        return triangular(*self.limit_profile(self.check_x(x)))


def _crisp_family(label: str, center: _IndexMap, limit: Optional[float] = None,
                  exceptional: Optional[_Exceptions] = None) -> FuzzyFunctionSequence:
    """x-free family with values center(ks) and zero spreads; ``limit``,
    when given, is the constant crisp limit it is claimed to converge to,
    and ``exceptional`` the family's exception hook.  Both spreads are one
    read-only array: a slice of ``ZERO_SPREADS`` for up to _CHUNK indices."""

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        n = len(ks)
        if n <= len(ZERO_SPREADS):
            z = ZERO_SPREADS[:n]
        else:
            z = np.zeros(n)
            z.flags.writeable = False
        return center(ks), z, z

    return FuzzyFunctionSequence(
        label=label, profile=profile,
        limit_profile=None if limit is None else lambda x: (limit, 0.0, 0.0),
        exceptional=exceptional, x_free=True)


def _symmetric_family(label: str, spread: _ValueMap,
                      exceptional: Optional[_Exceptions] = None) -> FuzzyFunctionSequence:
    """Family with center 0 and both spreads spread(ks, x), claimed to
    converge to crisp 0; ``exceptional`` is its exception hook."""

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        s = spread(ks, x)
        return np.zeros(len(ks)), s, s

    return FuzzyFunctionSequence(label=label, profile=profile,
                                 limit_profile=lambda x: (0.0, 0.0, 0.0),
                                 exceptional=exceptional)


def square_indicator_family(bound: float = 1.0) -> FuzzyFunctionSequence:
    """Crisp value ``bound`` except at square indices, where it drops to 0.

    The claimed limit is the constant crisp ``bound``; deviations from it
    are ``bound`` exactly on the (density-zero) squares.
    """
    m = float(bound)
    return _crisp_family(f"square_indicator(M={m:g})",
                         lambda ks: np.where(is_square(ks), 0.0, m), m,
                         _powers(int_sqrt, 2))


def triangular_growing_family() -> FuzzyFunctionSequence:
    """Symmetric triangular value with spread k*x at square indices, else 0.

    Distance to 0 is k*x on the squares, so the family grows without
    bound yet the spoiled indices have density zero.
    """
    return _symmetric_family(
        "triangular_growing",
        lambda ks, x: np.where(is_square(ks), ks.astype(np.float64) * x, 0.0),
        _powers(int_sqrt, 2))


def cube_decaying_family() -> FuzzyFunctionSequence:
    """Symmetric triangular value with spread x/k at cube indices, else 0."""
    return _symmetric_family(
        "cube_decaying",
        lambda ks, x: np.where(is_cube(ks), x / ks.astype(np.float64), 0.0),
        _powers(int_cbrt, 3))


def alternating_crisp_family() -> FuzzyFunctionSequence:
    """Crisp +1, -1, +1, ... independent of x; mean-summable to 0 but the
    term deviations never shrink."""
    # the low bit of k picks its sign from a table: one pass and one gather
    return _crisp_family("alternating_crisp",
                         lambda ks: _SIGNS.take(ks & 1), 0.0)


def truncated_square_indicator_family(n_trunc: int) -> FuzzyFunctionSequence:
    """Like square_indicator(1) but only squares up to ``n_trunc`` drop to 0.

    A finite perturbation of the constant crisp 1, hence summable to it at
    every order; as n_trunc grows the family tends pointwise to
    square_indicator(1).
    """
    n_trunc = integer_at_least(n_trunc, 1, "truncation index n_trunc")
    squares = _powers(int_sqrt, 2)
    return _crisp_family(
        f"truncated_square_indicator(n={n_trunc}, M=1)",
        lambda ks: np.where(is_square(ks) & (ks <= n_trunc), 0.0, 1.0), 1.0,
        lambda lo, hi: squares(lo, min(hi, n_trunc)))


def harmonic_crisp_family() -> FuzzyFunctionSequence:
    """Crisp 1/k, independent of x; converges to 0 and is slowly decreasing."""
    return _crisp_family("harmonic_crisp",
                         lambda ks: 1.0 / ks.astype(np.float64), 0.0)


def crisp_index_family() -> FuzzyFunctionSequence:
    """Crisp k; monotone increasing, useful as a slowly-decreasing witness."""
    return _crisp_family("crisp_index", lambda ks: ks.astype(np.float64))


def constant_family(center: float, left: float = 0.0,
                    right: float = 0.0) -> FuzzyFunctionSequence:
    """The constant family f_k = triangular(center, left, right)."""
    label = f"constant({center:g},{left:g},{right:g})"
    if not is_triangular(center, left, right):
        raise ValueError(f"{label}: the value has a {NOT_TRIANGULAR}")

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        n = len(ks)
        lefts = np.full(n, float(left))
        # equal spreads share one array, as in the built-in families
        return (np.full(n, float(center)), lefts,
                lefts if right == left else np.full(n, float(right)))

    return FuzzyFunctionSequence(
        label=label,
        profile=profile,
        limit_profile=lambda x: (float(center), float(left), float(right)),
        x_free=True,
    )


def add_families(f: FuzzyFunctionSequence, g: FuzzyFunctionSequence) -> FuzzyFunctionSequence:
    """Index-wise sum; triangular parameters add level-wise."""

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        cf, lf, rf = f.profile(ks, x)
        cg, lg, rg = g.profile(ks, x)
        return cf + cg, lf + lg, rf + rg

    limit = None
    if f.limit_profile is not None and g.limit_profile is not None:
        def limit(x: float) -> LimitProfile:
            cf, lf, rf = f.limit_profile(x)
            cg, lg, rg = g.limit_profile(x)
            return cf + cg, lf + lg, rf + rg

    return FuzzyFunctionSequence(
        label=f"({f.label})+({g.label})",
        profile=profile,
        limit_profile=limit,
        x_free=f.x_free and g.x_free,
    )


def scale_family(c: float, f: FuzzyFunctionSequence) -> FuzzyFunctionSequence:
    """Index-wise scalar multiple; spreads swap sides for negative factors."""
    c = real_in(c, "scale factor", -np.inf, np.inf)

    def scaled(tr):
        center, left, right = tr
        if c >= 0:
            return c * center, c * left, c * right
        return c * center, -c * right, -c * left

    return FuzzyFunctionSequence(
        label=f"{c:g}*({f.label})",
        profile=lambda ks, x: scaled(f.profile(ks, x)),
        limit_profile=None if f.limit_profile is None else
        lambda x: scaled(f.limit_profile(x)),
        x_free=f.x_free,
    )


def table_family(path: str) -> FuzzyFunctionSequence:
    """Family from a file of 'k center spread' rows, constant in x.

    Values are symmetric triangular; the table must cover every index the
    run touches (a finite table cannot stand in for the whole tail).
    """
    ks, centers, spreads = read_table(path, int, float, float)
    order = np.argsort(ks)
    k_arr = np.asarray(ks, dtype=np.int64)[order]
    if np.any(np.diff(k_arr) == 0):
        raise ValueError(f"{path}: duplicate index k")
    c_arr = np.asarray(centers)[order]
    s_arr = np.asarray(spreads)[order]
    good = is_triangular(c_arr, s_arr, s_arr)
    if not good.all():
        raise ValueError(f"{path}: {NOT_TRIANGULAR}, at k={k_arr[np.argmin(good)]}")

    def profile(qs: np.ndarray, x: float) -> TriProfile:
        pos = np.searchsorted(k_arr, qs)
        if np.any(pos >= len(k_arr)) or np.any(k_arr[np.minimum(pos, len(k_arr) - 1)] != qs):
            raise ValueError(f"family table {path} has no row for some requested k")
        return c_arr[pos], s_arr[pos], s_arr[pos]

    return FuzzyFunctionSequence(label=f"file:{path}", profile=profile,
                                 x_free=True)


def parse_family_spec(spec: str) -> FuzzyFunctionSequence:
    """Family spec strings for the CLI and canned runs.

    Reference ids: ex3.1[:M=<real>] | ex3.2 | ex3.3 | ex4.1 | remark3:n=<int>.
    Descriptive aliases: square_indicator[:M=], triangular_growing,
    cube_decaying, alternating, truncated:n=<int>, harmonic; file:<path>.
    """
    token = spec.strip()
    head, _, tail = token.partition(":")

    def keyed(key: str, caster, default=None):
        if not tail:
            if default is None:
                raise ValueError(f"family spec {token!r} needs {key}=<value>")
            return default
        k, _, v = tail.partition("=")
        if k != key or not v:
            raise ValueError(f"family spec {token!r} needs {key}=<value>")
        try:
            return caster(v)
        except ValueError:
            raise ValueError(f"bad {key} value in family spec: {token!r}") from None

    if head in ("ex3.1", "square_indicator"):
        return square_indicator_family(keyed("M", float, default=1.0))
    if token in ("ex3.2", "triangular_growing"):
        return triangular_growing_family()
    if token in ("ex3.3", "cube_decaying"):
        return cube_decaying_family()
    if token in ("ex4.1", "alternating"):
        return alternating_crisp_family()
    if head in ("remark3", "truncated"):
        return truncated_square_indicator_family(keyed("n", int))
    if token == "harmonic":
        return harmonic_crisp_family()
    if head == "file":
        return table_family(tail)
    raise ValueError(f"unknown family spec token: {token!r}")


@dataclass(frozen=True)
class BoundednessReport:
    bounded: bool
    bound: float
    witness_k: Optional[int] = None


def is_bounded(seq: FuzzyFunctionSequence, grid: XGridPolicy,
               k_max: int) -> BoundednessReport:
    """Decide boundedness of d(f_k(x), 0) over the grid and k <= k_max.

    Bounded when the running maximum stabilizes before the tail half of
    the index range; otherwise the index of the last new maximum is
    reported as the growth witness.  An x-free family is evaluated at the
    first point only.
    """
    k_max = within_budget(integer_at_least(k_max, 1, "k_max"), "k_max=")
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    dev = np.zeros(k_max)
    for i, x in enumerate(grid.points):
        x = seq.check_x(x)
        if i == 0 or not seq.x_free:
            c, l, r = seq.values(ks, x)
            dev = np.maximum(dev, triangular_profile_distance(c, l, r, 0.0, 0.0, 0.0))
    running = np.maximum.accumulate(dev)
    bound = float(running[-1])
    new_max = np.flatnonzero(np.concatenate(([True], running[1:] > running[:-1])))
    last_new = int(ks[new_max[-1]])
    grows = last_new > k_max // 2
    return BoundednessReport(not grows, bound, last_new if grows else None)
