"""Output oracles that do not use fuzzysumm.

Each oracle derives the expected report values of one workload from
closed forms or from compensated (``math.fsum``) sums of the weights, and
returns a list of mismatches; an empty list means the output is right.
Values must agree to 1e-9, relative to max(1, |expected|).
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-9
MAX_ERRORS = 8


def ladder(horizon: int) -> list[int]:
    ns, n = [], 1
    while n <= horizon:
        ns.append(n)
        n *= 2
    if ns[-1] != horizon:
        ns.append(horizon)
    return ns


def grid_points(a: float, b: float, count: int) -> list[float]:
    return [a + i * (b - a) / (count - 1) for i in range(count)]


def _close(observed, expected) -> bool:
    return (observed is not None
            and abs(observed - expected) <= TOL * max(1.0, abs(expected)))


class _Errors(list):
    def add(self, message: str) -> None:
        if len(self) < MAX_ERRORS:
            self.append(message)


# ---------------------------------------------------------------------------
# Sweeps through cli.run
# ---------------------------------------------------------------------------

def _sparse_pow2_expected(cfg):
    """ex3.2 on pow:2 windows [1, n^2] with weights 0.2: only squares j^2
    deviate, by j^2 * x.  T = n^2/5 exactly, S = 0.2 x sum j^2 and
    abs = ord = S / T^theta; sp counts the squares up to floor(T)."""
    def values(n, x, theta):
        t_exact = Fraction(n * n, 5)
        t_pow = float(t_exact) ** theta
        s = 0.2 * x * (n * (n + 1) * (2 * n + 1) // 6)
        count = math.isqrt(math.floor(t_exact))
        j = 1
        while j <= count and 0.2 * (j * j * x) < cfg["eps"]:
            j += 1
        return {"abs": s / t_pow, "ord": s / t_pow,
                "sp": (count - j + 1) / t_pow}
    return values


def _dense_trailing_expected(cfg):
    """ex4.1 (crisp +1 at odd k, -1 at even k) on lambda:half windows with
    harmonicplus weights t_k = 1 + 1/k.  Every index deviates by 1, so
    abs = T^(1-theta), sp = floor(T)/T^theta and ord = |sum +-t_k|/T^theta,
    with the window sums taken by math.fsum."""
    totals = {}
    for n in ladder(cfg["horizon"]):
        lo = n - (n + 1) // 2 + 1
        ks = np.arange(lo, n + 1, dtype=np.int64)
        t = 1.0 + 1.0 / ks
        signed = np.where(ks % 2 == 1, t, -t)
        totals[n] = (math.fsum(t.tolist()), abs(math.fsum(signed.tolist())))

    def values(n, x, theta):
        total, signed = totals[n]
        t_pow = total ** theta
        return {"abs": total / t_pow, "sp": math.floor(total) / t_pow,
                "ord": signed / t_pow}
    return values


_SWEEP_EXPECTED = {"sparse-pow2": _sparse_pow2_expected,
                   "dense-trailing": _dense_trailing_expected}


def sweep_oracle(cfg):
    """Checker for one sweep workload config; reusable across its runs."""
    expected = _SWEEP_EXPECTED[cfg["workload"]](cfg)
    ns = ladder(cfg["horizon"])
    xs = grid_points(*cfg["grid"])

    def check(report_path: Path) -> list[str]:
        errors = _Errors()
        report = json.loads(Path(report_path).read_text())
        reports = report.get("reports", [])
        if [r["theta"] for r in reports] != cfg["thetas"]:
            errors.add(f"thetas {[r['theta'] for r in reports]} != {cfg['thetas']}")
            return errors
        for rep in reports:
            theta = rep["theta"]
            traces = {(t["mode"], i): t for t in rep["traces"]
                      for i, x in enumerate(xs) if abs(t["x"] - x) <= 1e-12}
            for mode in cfg["modes"]:
                for i, x in enumerate(xs):
                    trace = traces.get((mode, i))
                    if trace is None:
                        errors.add(f"no {mode} trace at x={x!r}, theta={theta}")
                        continue
                    got_ns = [p[0] for p in trace["points"]]
                    if got_ns != ns:
                        errors.add(f"{mode} x={x:.6f}: ladder {got_ns} != {ns}")
                        continue
                    for n, v in trace["points"]:
                        want = expected(n, x, theta)[mode]
                        if not _close(v, want):
                            errors.add(f"{mode} theta={theta} x={x:.6f} n={n}: "
                                       f"got {v!r}, expected {want!r}")
        with open(Path(report_path).parent / "traces.csv", newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        want_rows = len(cfg["thetas"]) * len(cfg["modes"]) * len(xs) * len(ns)
        if rows != want_rows:
            errors.add(f"traces.csv has {rows} rows, expected {want_rows}")
        return errors
    return check


# ---------------------------------------------------------------------------
# The Tauberian experiment on ex4.1, classical windows, unit weights
# ---------------------------------------------------------------------------

LAMBDAS = (1.25, 1.5, 2.0)
EPS_LADDER = (0.5, 0.1, 0.01)
N0 = 10
IDENTITY_TOL = 1e-9


def alternating_violations(lam: float, n0: int, horizon: int):
    """Slow-decrease violations of +1,-1,+1,...: every odd n and even k with
    n0 < n < k <= min(floor(lam*n), horizon).  Returns (count, first 8)."""
    count, first = 0, []
    for n in range(n0 + 1 + (n0 % 2 == 1), horizon + 1, 2):
        top = min(math.floor(lam * n), horizon)
        if top > n:
            count += top // 2 - n // 2
            k = n + 1
            while len(first) < 8 and k <= top:
                first.append([n, k])
                k += 2
    return count, first


def tauberian_oracle(cfg):
    horizon, scan = cfg["horizon"], min(cfg["horizon"], cfg["scan_horizon"])
    xs = grid_points(*cfg["grid"])
    ns = ladder(horizon)
    # A scan that fails for every lam leaves the last lam's witness.
    v_count, v_first = alternating_violations(LAMBDAS[-1], N0, scan)
    n_max = max(horizon // 4, 8)
    trend = max(1, n_max // 2)
    condition2 = {str(lam): min(math.floor(lam * n) / n
                                for n in range(trend, n_max + 1))
                  for lam in LAMBDAS}
    identity_ns = [n for n in ns if 4 <= n <= max(8, horizon // 8)][-3:]

    def check(report_path: Path) -> list[str]:
        errors = _Errors()
        report = json.loads(Path(report_path).read_text())
        hyp = report["hypotheses"]
        for lam, want in condition2.items():
            got = hyp["condition2"].get(lam, {}).get("estimate")
            if not _close(got, want):
                errors.add(f"condition2 lam={lam}: got {got!r}, expected {want!r}")
        entries = hyp["slowly_decreasing"]
        if len(entries) != len(xs) * len(EPS_LADDER):
            errors.add(f"{len(entries)} slow-decrease entries, expected "
                       f"{len(xs) * len(EPS_LADDER)}")
        for e in entries:
            if (e["holds"] or e["violation_count"] != v_count
                    or e["witness"] != v_first):
                errors.add(f"slow decrease x={e['x']:.6f} eps={e['eps']}: holds="
                           f"{e['holds']} count={e['violation_count']} witness="
                           f"{e['witness'][:3]}..., expected count {v_count}")
        summ = hyp["summable"]
        if summ["membership"] is not True:
            errors.add(f"ord membership {summ['membership']!r}, expected True")
        for v in summ["verdicts"]:
            if v["verdict"] != "converges" or not _close(v["estimate"], 0.0):
                errors.add(f"ord verdict at x={v['x']:.6f}: {v}")
        for t in report["conclusion"]["per_x"]:
            if [p[0] for p in t["points"]] != ns or any(
                    not _close(p[1], 1.0) for p in t["points"]):
                errors.add(f"tail trace at x={t['x']:.6f} is not 1 along the ladder")
        checks = report["identity_checks"]
        if len(checks) != 2 * len(LAMBDAS) * len(identity_ns):
            errors.add(f"{len(checks)} identity checks, expected "
                       f"{2 * len(LAMBDAS) * len(identity_ns)}")
        for c in checks:
            if not (c["ok"] and c["deviation"] <= IDENTITY_TOL):
                errors.add(f"identity {c['kind']} lam={c['lam']} n={c['n']}: "
                           f"deviation {c['deviation']!r}")
        return errors
    return check


def make_oracle(cfg):
    if cfg["entry"] == "cli.run":
        return sweep_oracle(cfg)
    return tauberian_oracle(cfg)
