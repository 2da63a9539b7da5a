"""Index window schemes, weight sequences, and windowed weighted totals.

A scheme is a pair of index maps ``beta``, ``gamma`` selecting windows
[beta(n), gamma(n)] of a sequence; a weight sequence attaches a positive
weight to every index.  The windowed total (sum of weights over the n-th
window) drives every convergence transform downstream, so it is backed
by a memoized prefix-sum array for O(1) range queries even on horizons
of a few million indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Strictness margin for "estimate > 1" style threshold checks.
HOLDS_MARGIN = 1e-9

# Ratio-condition ids accepted by ratio_condition().  2/3 are the
# liminf growth conditions for dilation factors above/below 1; 4/5 are
# the limsup gap conditions they imply.
DILATION_LIMINF = 2
SHRINK_LIMINF = 3
DILATION_GAP_LIMSUP = 4
SHRINK_GAP_LIMSUP = 5

# Weights evaluated per call while the prefix cache grows.
_FILL_CHUNK = 1 << 16
# Largest index the prefix cache may reach (1 GiB of float64), checked
# before allocating; pow:2 at horizon 4096 needs 2^24.
_MAX_PREFIX = 1 << 27


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
        if n < 1:
            raise ValueError("window index must be a positive integer")
        b, g = int(self.beta(n)), int(self.gamma(n))
        if b < 1:
            raise DegenerateWindowError(f"{self.label}: beta({n}) = {b} < 1")
        if g < b:
            raise DegenerateWindowError(
                f"{self.label}: window [{b}, {g}] at n={n} is empty")
        return b, g

    def __repr__(self):
        return f"BetaGammaScheme({self.label!r})"


class WeightSequence:
    """Positive weights t_k with a growable prefix-sum cache.

    The cache is built once per horizon and then only read, so concurrent
    range queries are safe.
    """

    def __init__(self, values_fn: Callable[[np.ndarray], np.ndarray], label: str,
                 max_k: int | None = None):
        self._values_fn = values_fn
        self.label = label
        self.max_k = max_k
        t1 = float(self.values(np.array([1], dtype=np.int64))[0])
        if not t1 > 0:
            raise ValueError("first weight must be positive")
        # prefix[k] = t_1 + ... + t_k, prefix[0] = 0
        self._prefix = np.zeros(1, dtype=np.float64)

    def values(self, ks: np.ndarray) -> np.ndarray:
        out = np.asarray(self._values_fn(np.asarray(ks, dtype=np.int64)),
                         dtype=np.float64)
        return out

    def value(self, k: int) -> float:
        return float(self.values(np.array([k], dtype=np.int64))[0])

    def ensure(self, k_max: int) -> None:
        have = len(self._prefix) - 1
        if k_max <= have:
            return
        if self.max_k is not None and k_max > self.max_k:
            raise ValueError(f"{self.label}: weight table ends at k={self.max_k}")
        if k_max > _MAX_PREFIX:
            raise ValueError(f"{self.label}: prefix sums up to k={k_max} exceed "
                             f"the budget of {_MAX_PREFIX} indices")
        new_top = min(max(int(k_max), 2 * have, 1024), _MAX_PREFIX)
        if self.max_k is not None:
            new_top = min(new_top, self.max_k)
        # Fill the new tail with the weights a chunk at a time, then
        # accumulate it in place: no full-length temporaries besides the
        # new array itself.
        extended = np.empty(new_top + 1, dtype=np.float64)
        extended[:have + 1] = self._prefix
        for a in range(have + 1, new_top + 1, _FILL_CHUNK):
            ks = np.arange(a, min(new_top + 1, a + _FILL_CHUNK), dtype=np.int64)
            chunk = self.values(ks)
            if np.any(chunk <= 0):
                bad = int(ks[np.argmax(chunk <= 0)])
                raise ValueError(f"{self.label}: weight t_{bad} is not positive")
            extended[a:a + len(ks)] = chunk
        tail = extended[have + 1:]
        np.cumsum(tail, out=tail)
        tail += self._prefix[-1]
        self._prefix = extended

    def prefix(self, k: int) -> float:
        """Sum of the first k weights (k may be 0)."""
        if k < 0:
            raise ValueError("prefix index must be nonnegative")
        self.ensure(k)
        return float(self._prefix[k])

    def window_total(self, lo: int, hi: int) -> float:
        """Sum of t_k over the closed range [lo, hi]."""
        if lo < 1 or hi < lo:
            raise DegenerateWindowError(f"empty weight window [{lo}, {hi}]")
        self.ensure(hi)
        return float(self._prefix[hi] - self._prefix[lo - 1])

    def window_totals(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        if np.any(los < 1) or np.any(his < los):
            raise DegenerateWindowError("empty window in vectorized total query")
        self.ensure(int(his.max()))
        return self._prefix[his] - self._prefix[los - 1]

    def __repr__(self):
        return f"WeightSequence({self.label!r})"


@dataclass(frozen=True)
class HorizonPolicy:
    """Finite surrogate for n -> infinity: sweep [1, n_max], judge tails
    on [trend_window, n_max]."""

    n_max: int
    trend_window: int = 0  # 0 means "use n_max // 2"

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("empty horizon")
        if self.trend_window == 0:
            object.__setattr__(self, "trend_window", max(1, self.n_max // 2))
        if not 1 <= self.trend_window < self.n_max:
            raise ValueError("trend_window must lie in [1, n_max)")


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
    try:
        betas = np.fromiter((scheme.beta(int(n)) for n in ns), dtype=np.int64,
                            count=len(ns))
        gammas = np.fromiter((scheme.gamma(int(n)) for n in ns), dtype=np.int64,
                             count=len(ns))
    except OverflowError:
        raise ValueError(f"{scheme.label}: a window index for n <= {int(ns[-1])} "
                         "does not fit in int64") from None
    return betas, gammas


def validate_scheme(scheme: BetaGammaScheme, horizon: HorizonPolicy) -> SchemeValidation:
    """Check the three window-scheme conditions over the horizon.

    (a) both index maps non-decreasing, (b) gamma >= beta everywhere,
    (c) the window width gamma - beta keeps growing past the trend window
    (the finite stand-in for width -> infinity).
    """
    ns = np.arange(1, horizon.n_max + 1, dtype=np.int64)
    betas, gammas = _index_arrays(scheme, ns)
    notes = []
    nondecr = bool(np.all(np.diff(betas) >= 0) and np.all(np.diff(gammas) >= 0))
    if not nondecr:
        notes.append("an index map decreases")
    ordered = bool(np.all(gammas >= betas) and np.all(betas >= 1))
    if not ordered:
        notes.append("gamma < beta or beta < 1 at some n")
    widths = gammas - betas
    tail = widths[horizon.trend_window - 1:]
    growing = bool(np.all(np.diff(tail) >= 0) and tail[-1] > tail[0])
    if not growing:
        notes.append("window width stops growing on the tail")
    return SchemeValidation(nondecr, ordered, growing, "; ".join(notes))


def weighted_total(scheme: BetaGammaScheme, weights: WeightSequence, n: int) -> float:
    """Sum of weights over the n-th window."""
    b, g = scheme.window(n)
    return weights.window_total(b, g)


def dilate(scheme: BetaGammaScheme, lam: float) -> BetaGammaScheme:
    """Stretch the window top: gamma(n) -> floor(lam * gamma(n)).

    The dilated top can drop below beta for small n and lam < 1; queries
    on such windows raise DegenerateWindowError rather than passing
    silently.
    """
    if not lam > 0:
        raise ValueError("dilation factor must be positive")
    base_gamma = scheme.gamma
    return BetaGammaScheme(
        beta=scheme.beta,
        gamma=lambda n: math.floor(lam * base_gamma(n)),
        label=f"{scheme.label}|x{lam:g}",
    )


class RatioResult(NamedTuple):
    estimate: float
    holds: bool


def ratio_condition(scheme: BetaGammaScheme, weights: WeightSequence, lam: float,
                    horizon: HorizonPolicy, which: int) -> RatioResult:
    """Tail estimate of one of the four dilation ratio conditions.

    which=2: liminf T_dilated / T        (needs lam > 1; holds when > 1)
    which=3: liminf T / T_dilated        (needs 0 < lam < 1; holds when > 1)
    which=4: limsup T_dilated / (T_dilated - T)   (lam > 1; holds when finite)
    which=5: limsup T_dilated / (T - T_dilated)   (0 < lam < 1; holds when finite)

    liminf/limsup are estimated as min/max over [trend_window, n_max].
    """
    if which in (DILATION_LIMINF, DILATION_GAP_LIMSUP):
        if not lam > 1:
            raise ValueError(f"condition {which} needs lam > 1")
    elif which in (SHRINK_LIMINF, SHRINK_GAP_LIMSUP):
        if not 0 < lam < 1:
            raise ValueError(f"condition {which} needs 0 < lam < 1")
    else:
        raise ValueError("which must be one of 2, 3, 4, 5")

    ns = np.arange(horizon.trend_window, horizon.n_max + 1, dtype=np.int64)
    betas, gammas = _index_arrays(scheme, ns)
    dil_gammas = np.floor(lam * gammas).astype(np.int64)
    base = weights.window_totals(betas, gammas)
    # A shrunken top below beta leaves an empty index range, whose total
    # is the empty sum 0 (the shrink ratios then come out infinite).
    nonempty = dil_gammas >= betas
    dil = np.zeros(len(ns))
    if np.any(nonempty):
        dil[nonempty] = weights.window_totals(betas[nonempty],
                                              dil_gammas[nonempty])

    outer, inner = (dil, base) if lam > 1 else (base, dil)
    if which in (DILATION_LIMINF, SHRINK_LIMINF):
        with np.errstate(divide="ignore"):
            est = float(np.min(outer / inner))
        return RatioResult(est, est > 1 + HOLDS_MARGIN)
    gap = outer - inner
    if np.any(gap <= 0):
        bad = int(ns[np.argmax(gap <= 0)])
        raise DegenerateWindowError(
            f"zero window-total gap at n={bad} (lam={lam:g})")
    est = float(np.max(dil / gap))
    return RatioResult(est, math.isfinite(est))


# ---------------------------------------------------------------------------
# Built-in schemes and weights, plus the spec-string mini language.
# ---------------------------------------------------------------------------

def classical_scheme() -> BetaGammaScheme:
    """Windows [1, n]: plain front-anchored averaging."""
    return BetaGammaScheme(lambda n: 1, lambda n: n, "classical")


def power_scheme(p: int) -> BetaGammaScheme:
    """Windows [1, n**p]."""
    if p < 1:
        raise ValueError("power must be a positive integer")
    return BetaGammaScheme(lambda n: 1, lambda n: n ** p, f"pow:{p}")


def lambda_scheme(lam_fn: Callable[[int], int], label: str,
                  check_horizon: int = 4096) -> BetaGammaScheme:
    """Trailing windows [n - lam(n) + 1, n] with integer window lengths.

    The length sequence must start at 1, be non-decreasing, grow by at
    most 1 per step, and keep growing; violations are rejected by name.
    """
    vals = [int(lam_fn(n)) for n in range(1, check_horizon + 1)]
    if vals[0] != 1:
        raise ValueError("lambda sequence must start at 1")
    for i in range(1, len(vals)):
        if vals[i] < vals[i - 1]:
            raise ValueError("lambda sequence must be non-decreasing")
        if vals[i] > vals[i - 1] + 1:
            raise ValueError("lambda sequence may grow by at most 1 per step")
    if vals[-1] <= vals[len(vals) // 2]:
        raise ValueError("lambda sequence must tend to infinity")
    return BetaGammaScheme(lambda n: n - int(lam_fn(n)) + 1, lambda n: n, label)


_LAMBDA_PRESETS = {
    "n": (lambda n: n),
    "half": (lambda n: (n + 1) // 2),
}


def lacunary_scheme(k_fn: Callable[[int], int], label: str,
                    check_horizon: int = 64) -> BetaGammaScheme:
    """Block windows [k(r-1) + 1, k(r)] for an increasing integer sequence
    with k(0) = 0."""
    if int(k_fn(0)) != 0:
        raise ValueError("lacunary boundary sequence must start at k_0 = 0")
    prev = 0
    for r in range(1, check_horizon + 1):
        cur = int(k_fn(r))
        if cur <= prev:
            raise ValueError("lacunary boundary sequence must be strictly increasing")
        prev = cur
    return BetaGammaScheme(lambda r: int(k_fn(r - 1)) + 1,
                           lambda r: int(k_fn(r)), label)


def read_table(path: str, *casts: Callable[[str], object]) -> list[tuple]:
    """Rows of a ``file:`` table, each line cast column by column.

    ``#`` starts a comment, entries are separated by commas or whitespace
    and blank lines are skipped; a line with the wrong column count or an
    entry its cast rejects raises ValueError naming ``path:line``.
    """
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].replace(",", " ").split()
            if not parts:
                continue
            if len(parts) != len(casts):
                raise ValueError(f"{path}:{line_no}: {len(parts)} entries, "
                                 f"expected {len(casts)}")
            try:
                rows.append(tuple(cast(p) for cast, p in zip(casts, parts)))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty table")
    return rows


def table_scheme(path: str) -> BetaGammaScheme:
    """Scheme from a file of 'beta gamma' rows; row order gives n."""
    rows = read_table(path, int, int)

    def beta(n: int) -> int:
        if n > len(rows):
            raise ValueError(f"scheme table {path} ends at n={len(rows)}")
        return rows[n - 1][0]

    def gamma(n: int) -> int:
        if n > len(rows):
            raise ValueError(f"scheme table {path} ends at n={len(rows)}")
        return rows[n - 1][1]

    return BetaGammaScheme(beta, gamma, f"file:{path}")


def constant_weights(c: float) -> WeightSequence:
    if not c > 0:
        raise ValueError("constant weight must be positive")
    return WeightSequence(lambda ks: np.full(len(ks), float(c)), f"const:{c:g}")


def recip5_weights() -> WeightSequence:
    return WeightSequence(lambda ks: np.full(len(ks), 0.2), "recip5")


def harmonicplus_weights() -> WeightSequence:
    return WeightSequence(lambda ks: 1.0 + 1.0 / ks, "harmonicplus")


def table_weights(path: str) -> WeightSequence:
    """Weights from a file with one value per row; row order gives k."""
    table = np.ravel(read_table(path, float))

    def values(ks: np.ndarray) -> np.ndarray:
        if int(np.max(ks)) > len(table):
            raise ValueError(f"weight table {path} ends at k={len(table)}")
        return table[np.asarray(ks, dtype=np.int64) - 1]

    return WeightSequence(values, f"file:{path}", max_k=len(table))


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
