"""Sequences of fuzzy-valued functions on an interval, with built-in families.

Every family in scope takes triangular (or crisp) values, so a sequence
is stored as a vectorized profile map: (indices k, point x) -> arrays of
(center, left_spread, right_spread).  ``eval`` materializes a single
value as a FuzzyNumber; the summability sweeps consume the profile
arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numbers import DEFAULT_LEVEL_COUNT, FuzzyNumber, triangular
from .schemes import read_table

TriProfile = tuple[np.ndarray, np.ndarray, np.ndarray]
LimitProfile = tuple[float, float, float]


# --- exact integer root tests (float sqrt/cbrt alone misclassify large k) ---

def int_sqrt(ks: np.ndarray) -> np.ndarray:
    ks = np.asarray(ks, dtype=np.int64)
    s = np.floor(np.sqrt(ks.astype(np.float64))).astype(np.int64)
    s = np.where((s + 1) * (s + 1) <= ks, s + 1, s)
    s = np.where(s * s > ks, s - 1, s)
    return s


def int_cbrt(ks: np.ndarray) -> np.ndarray:
    ks = np.asarray(ks, dtype=np.int64)
    c = np.rint(np.cbrt(ks.astype(np.float64))).astype(np.int64)
    c = np.where((c + 1) ** 3 <= ks, c + 1, c)
    c = np.where(c ** 3 > ks, c - 1, c)
    return c


def is_square(ks: np.ndarray) -> np.ndarray:
    s = int_sqrt(ks)
    return s * s == np.asarray(ks, dtype=np.int64)


def is_cube(ks: np.ndarray) -> np.ndarray:
    c = int_cbrt(ks)
    return c ** 3 == np.asarray(ks, dtype=np.int64)


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
    if count < 1:
        raise ValueError("grid needs at least one point")
    if count == 1:
        return XGridPolicy((float(a),))
    return XGridPolicy(tuple(np.linspace(a, b, count)))


@dataclass(frozen=True)
class FuzzyFunctionSequence:
    """Family k -> f_k(x) of triangular-valued fuzzy functions.

    ``profile(ks, x)`` returns (centers, left_spreads, right_spreads)
    arrays for the indices ``ks``; ``limit_profile(x)``, when present, is
    the function the family is claimed to converge to.
    """

    label: str
    profile: Callable[[np.ndarray, float], TriProfile]
    limit_profile: Optional[Callable[[float], LimitProfile]] = None
    domain: tuple[float, float] = (1.0, 2.0)
    levels: int = DEFAULT_LEVEL_COUNT

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ValueError("domain must be a nondegenerate interval")

    def check_x(self, x: float) -> float:
        a, b = self.domain
        if not a <= x <= b:
            raise ValueError(f"x={x:g} outside domain [{a:g}, {b:g}]")
        return float(x)

    def eval(self, k: int, x: float) -> FuzzyNumber:
        """The fuzzy value f_k(x)."""
        if k < 1:
            raise ValueError("sequence index must be a positive integer")
        x = self.check_x(x)
        c, l, r = self.profile(np.array([k], dtype=np.int64), x)
        return triangular(float(c[0]), float(l[0]), float(r[0]), self.levels)

    def claimed_limit(self, x: float) -> FuzzyNumber:
        if self.limit_profile is None:
            raise ValueError(f"{self.label}: no claimed limit recorded")
        c, l, r = self.limit_profile(self.check_x(x))
        return triangular(c, l, r, self.levels)


def _const_profile(center_of_x: Callable[[float], float]):
    def profile(ks: np.ndarray, x: float) -> TriProfile:
        n = len(ks)
        z = np.zeros(n)
        return np.full(n, center_of_x(x)), z, z
    return profile


def square_indicator_family(bound: float = 1.0) -> FuzzyFunctionSequence:
    """Crisp value ``bound`` except at square indices, where it drops to 0.

    The claimed limit is the constant crisp ``bound``; deviations from it
    are ``bound`` exactly on the (density-zero) squares.
    """
    m = float(bound)

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        z = np.zeros(len(ks))
        centers = np.where(is_square(ks), 0.0, m)
        return centers, z, z

    return FuzzyFunctionSequence(
        label=f"square_indicator(M={m:g})",
        profile=profile,
        limit_profile=lambda x: (m, 0.0, 0.0),
    )


def triangular_growing_family() -> FuzzyFunctionSequence:
    """Symmetric triangular value with spread k*x at square indices, else 0.

    Distance to 0 is k*x on the squares, so the family grows without
    bound yet the spoiled indices have density zero.
    """

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        spread = np.where(is_square(ks), ks.astype(np.float64) * x, 0.0)
        return np.zeros(len(ks)), spread, spread

    return FuzzyFunctionSequence(
        label="triangular_growing",
        profile=profile,
        limit_profile=lambda x: (0.0, 0.0, 0.0),
    )


def cube_decaying_family() -> FuzzyFunctionSequence:
    """Symmetric triangular value with spread x/k at cube indices, else 0."""

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        spread = np.where(is_cube(ks), x / ks.astype(np.float64), 0.0)
        return np.zeros(len(ks)), spread, spread

    return FuzzyFunctionSequence(
        label="cube_decaying",
        profile=profile,
        limit_profile=lambda x: (0.0, 0.0, 0.0),
    )


def alternating_crisp_family() -> FuzzyFunctionSequence:
    """Crisp +1, -1, +1, ... independent of x; mean-summable to 0 but the
    term deviations never shrink."""

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        n = len(ks)
        z = np.zeros(n)
        centers = np.where(ks % 2 == 1, 1.0, -1.0)
        return centers, z, z

    return FuzzyFunctionSequence(
        label="alternating_crisp",
        profile=profile,
        limit_profile=lambda x: (0.0, 0.0, 0.0),
    )


def truncated_square_indicator_family(n_trunc: int, bound: float = 1.0) -> FuzzyFunctionSequence:
    """Like square_indicator but only squares up to ``n_trunc`` drop to 0.

    A finite perturbation of the constant crisp ``bound``, hence summable
    to it at every order; as n_trunc grows the family tends pointwise to
    square_indicator.
    """
    if n_trunc < 1:
        raise ValueError("truncation index must be a positive integer")
    m = float(bound)

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        z = np.zeros(len(ks))
        dropped = is_square(ks) & (np.asarray(ks, dtype=np.int64) <= n_trunc)
        centers = np.where(dropped, 0.0, m)
        return centers, z, z

    return FuzzyFunctionSequence(
        label=f"truncated_square_indicator(n={n_trunc}, M={m:g})",
        profile=profile,
        limit_profile=lambda x: (m, 0.0, 0.0),
    )


def harmonic_crisp_family() -> FuzzyFunctionSequence:
    """Crisp 1/k, independent of x; converges to 0 and is slowly decreasing."""

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        n = len(ks)
        z = np.zeros(n)
        return 1.0 / ks.astype(np.float64), z, z

    return FuzzyFunctionSequence(
        label="harmonic_crisp",
        profile=profile,
        limit_profile=lambda x: (0.0, 0.0, 0.0),
    )


def crisp_index_family() -> FuzzyFunctionSequence:
    """Crisp k; monotone increasing, useful as a slowly-decreasing witness."""

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        n = len(ks)
        z = np.zeros(n)
        return ks.astype(np.float64), z, z

    return FuzzyFunctionSequence(label="crisp_index", profile=profile)


def constant_family(center: float, left: float = 0.0, right: float = 0.0,
                    label: str | None = None) -> FuzzyFunctionSequence:
    """The constant family f_k = triangular(center, left, right)."""
    if left < 0 or right < 0:
        raise ValueError("spreads must be nonnegative")

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        n = len(ks)
        return (np.full(n, float(center)), np.full(n, float(left)),
                np.full(n, float(right)))

    return FuzzyFunctionSequence(
        label=label or f"constant({center:g},{left:g},{right:g})",
        profile=profile,
        limit_profile=lambda x: (float(center), float(left), float(right)),
    )


def add_families(f: FuzzyFunctionSequence, g: FuzzyFunctionSequence) -> FuzzyFunctionSequence:
    """Index-wise sum; triangular parameters add level-wise."""
    if f.domain != g.domain:
        raise ValueError("families must share a domain")

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
        domain=f.domain,
        levels=max(f.levels, g.levels),
    )


def scale_family(c: float, f: FuzzyFunctionSequence) -> FuzzyFunctionSequence:
    """Index-wise scalar multiple; spreads swap sides for negative factors."""
    c = float(c)

    def scaled(tr):
        center, left, right = tr
        if c >= 0:
            return c * center, c * left, c * right
        return c * center, -c * right, -c * left

    def profile(ks: np.ndarray, x: float) -> TriProfile:
        return scaled(f.profile(ks, x))

    limit = None
    if f.limit_profile is not None:
        def limit(x: float) -> LimitProfile:
            lc, ll, lr = scaled(f.limit_profile(x))
            return float(lc), float(ll), float(lr)

    return FuzzyFunctionSequence(
        label=f"{c:g}*({f.label})",
        profile=profile,
        limit_profile=limit,
        domain=f.domain,
        levels=f.levels,
    )


def table_family(path: str) -> FuzzyFunctionSequence:
    """Family from a file of 'k center spread' rows, constant in x.

    Values are symmetric triangular; the table must cover every index the
    run touches (a finite table cannot stand in for the whole tail).
    """
    ks, centers, spreads = zip(*read_table(path, int, float, float))
    order = np.argsort(ks)
    k_arr = np.asarray(ks, dtype=np.int64)[order]
    if np.any(np.diff(k_arr) == 0):
        raise ValueError(f"{path}: duplicate index k")
    c_arr = np.asarray(centers)[order]
    s_arr = np.asarray(spreads)[order]
    if np.any(s_arr < 0):
        raise ValueError(f"{path}: negative spread")

    def profile(qs: np.ndarray, x: float) -> TriProfile:
        pos = np.searchsorted(k_arr, qs)
        if np.any(pos >= len(k_arr)) or np.any(k_arr[np.minimum(pos, len(k_arr) - 1)] != qs):
            raise ValueError(f"family table {path} has no row for some requested k")
        return c_arr[pos], s_arr[pos], s_arr[pos]

    return FuzzyFunctionSequence(label=f"file:{path}", profile=profile)


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
    reported as the growth witness.
    """
    if k_max < 1:
        raise ValueError("k_max must be a positive integer")
    for x in grid.points:
        seq.check_x(x)
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    dev = np.zeros(k_max)
    for x in grid.points:
        c, l, r = seq.profile(ks, float(x))
        # distance to crisp 0: extremes of |endpoint| sit at levels 0 and 1
        dev = np.maximum(dev, np.maximum(np.abs(c),
                                         np.maximum(np.abs(c - l), np.abs(c + r))))
    running = np.maximum.accumulate(dev)
    bound = float(running[-1])
    new_max = np.flatnonzero(np.concatenate(([True], running[1:] > running[:-1])))
    last_new = int(ks[new_max[-1]])
    if last_new > k_max // 2:
        return BoundednessReport(False, bound, last_new)
    return BoundednessReport(True, bound, None)
