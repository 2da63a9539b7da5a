"""Batch front-end: classify families, run the Tauber experiment, and
replay the built-in reference configurations.

Outputs a CSV of traces (columns x,mode,theta,n,value, sorted by x, mode,
n) and a JSON report per run, one record (a verdict, a trace) per line.
``reproduce`` replays the ten canned reference rows (five groups) and
compares observed verdicts against their documented expected outcomes,
exiting nonzero on any contradiction.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .numbers import integer_at_least
from .schemes import parse_scheme_spec, parse_weight_spec
from .sequences import parse_family_spec, uniform_grid
from .summability import check_mode_args, classify, classify_thetas
from .tauberian import tauberian_experiment


@dataclass
class RunConfig:
    family_spec: str
    scheme_spec: str = "classical"
    weight_spec: str = "const:1"
    thetas: tuple[float, ...] = (1.0,)
    eps: float = 0.1
    horizon: int = 4096
    grid_spec: str = "1,2,5"
    modes: tuple[str, ...] = ("sp", "abs", "ord")
    out_dir: str = "."
    json_path: Optional[str] = None
    csv_path: Optional[str] = None

    def __post_init__(self):
        self.horizon = integer_at_least(self.horizon, 64, "horizon")
        for name, values in (("theta", self.thetas), ("modes", self.modes)):
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} must list one or more distinct values, "
                                 f"got {','.join(map(str, values))!r}")
        check_mode_args(self.thetas, self.eps,
                        [m for m in self.modes if m != "tauberian"])


def _parse_grid(spec: str):
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be 'a,b,count', got {spec!r}")
    try:
        a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"bad grid spec: {spec!r}") from None
    return uniform_grid(a, b, count)


def _json_text(obj, depth: int = 0) -> str:
    """``obj`` as JSON text.  A dict or list fewer than four levels below
    the root is laid out one item per line, indented by two spaces as
    ``json.dump(..., indent=2)`` does; anything deeper (a verdict, a trace
    with its points) takes one line from ``json.dumps``, whose C encoder
    writes the same tokens, NaN and Infinity included."""
    if depth == 4 or not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {_json_text(v, depth + 1)}"
                 for k, v in obj.items()]
        left, right = "{}"
    else:
        items = [_json_text(v, depth + 1) for v in obj]
        left, right = "[]"
    pad = "\n" + "  " * depth
    return f"{left}{pad}  " + f",{pad}  ".join(items) + f"{pad}{right}"


def run(config: RunConfig) -> dict:
    """Execute one configuration; returns the JSON-ready report dict and
    writes the CSV/JSON artifacts."""
    family = parse_family_spec(config.family_spec)
    scheme = parse_scheme_spec(config.scheme_spec)
    weights = parse_weight_spec(config.weight_spec)
    grid = _parse_grid(config.grid_spec)

    reports = []
    traces = []
    classify_modes = tuple(m for m in config.modes if m != "tauberian")
    if classify_modes:
        for rep in classify_thetas(family, None, scheme, weights, config.thetas,
                                   eps=config.eps, grid=grid,
                                   horizon=config.horizon, modes=classify_modes):
            reports.append(rep.to_dict())
            traces += [(t.x, t.mode, t.theta, t.points) for t in rep.traces]

    result = {
        "family": family.label,
        "scheme": scheme.label,
        "weights": weights.label,
        "theta": list(config.thetas),
        "eps": config.eps,
        "grid": list(grid.points),
        "horizon": config.horizon,
        "reports": reports,
    }
    if "tauberian" in config.modes:
        exp = tauberian_experiment(family, None, scheme, weights, grid,
                                   config.horizon)
        result["tauberian"] = exp.to_dict()
        traces += [(t.x, "tauberian", t.theta, t.points) for t in exp.conclusion]

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = Path(config.csv_path) if config.csv_path else out_dir / "traces.csv"
    json_path = Path(config.json_path) if config.json_path else out_dir / "report.json"
    # csv.writer's bytes: no field needs quoting (a mode is a known token,
    # the rest are numbers), and str() of a float, numpy's too, is its repr;
    # each trace formats its x,mode,theta, once
    rows = []
    for x, mode, theta, points in traces:
        head = f"{x},{mode},{theta},"
        rows += [(x, mode, n, head, value) for n, value in points]
    rows.sort(key=lambda r: r[:3])
    lines = [f"{head}{n},{value}\r\n" for _, _, n, head, value in rows]
    csv_path.write_text("x,mode,theta,n,value\r\n" + "".join(lines), newline="")
    json_path.write_text(_json_text(result))
    result["artifacts"] = {"csv": str(csv_path), "json": str(json_path)}
    return result


# ---------------------------------------------------------------------------
# Canned reference configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceRow:
    group: str
    family_spec: str
    scheme_spec: str
    weight_spec: str
    mode: str
    theta: float
    eps: float
    horizon: int
    expect_member: bool
    note: str


def reference_rows() -> list[ReferenceRow]:
    """The built-in expected-outcome table, read under ``VerdictPolicy()``."""
    return [
        ReferenceRow("ex3.1", "ex3.1:M=1", "classical", "const:1", "abs", 0.75,
                     0.1, 1 << 21, True, "mean deviation falls like n**-0.25"),
        ReferenceRow("ex3.1", "ex3.1:M=1", "classical", "const:1", "abs", 0.25,
                     0.1, 1 << 20, False, "mean deviation grows like n**0.25"),
        ReferenceRow("ex3.2", "ex3.2", "pow:2", "recip5", "sp", 1.0,
                     0.1, 1 << 10, True, "bad-index density falls like 1/n"),
        ReferenceRow("ex3.2", "ex3.2", "pow:2", "recip5", "abs", 0.25,
                     0.1, 1 << 9, False, "mean deviation grows like n**2.5"),
        ReferenceRow("ex3.3", "ex3.3", "pow:2", "harmonicplus", "abs", 1.0,
                     1e-9, 1 << 8, True, "cube-index deviations are summable"),
        ReferenceRow("ex3.3", "ex3.3", "pow:2", "harmonicplus", "sp", 0.2,
                     1e-9, 1 << 8, False,
                     "density grows like T**(2/15) while eps is below every deviation"),
        ReferenceRow("ex4.1", "ex4.1", "classical", "const:1", "ord", 1.0,
                     0.1, 1 << 12, True, "window means alternate 0 and 1/n"),
        ReferenceRow("ex4.1", "ex4.1", "classical", "const:1", "abs", 1.0,
                     0.1, 1 << 12, False, "term deviations are constantly 1"),
        ReferenceRow("remark3", "remark3:n=16", "classical", "const:1", "abs", 0.25,
                     0.1, 1 << 20, True,
                     "finite perturbation: trace decays like n**-0.25"),
        ReferenceRow("remark3", "ex3.1:M=1", "classical", "const:1", "abs", 0.25,
                     0.1, 1 << 20, False, "pointwise limit family keeps diverging"),
    ]


def reproduce(only: Optional[str] = None, horizon_cap: Optional[int] = None,
              out=None) -> int:
    """Replay the reference table; return the number of contradictions.

    Inconclusive observations count as warnings, not failures (small
    horizons starve the asymptotics); an observation contradicting the
    expected membership is a failure.
    """
    if horizon_cap is not None:
        horizon_cap = integer_at_least(horizon_cap, 1, "horizon cap")
    out = out or sys.stdout
    grid = uniform_grid(1, 2, 5)
    labels = {True: "member", False: "non-member", None: "inconclusive"}
    failures = 0
    warnings = 0
    rows = reference_rows()
    if only is not None:
        rows = [r for r in rows if r.group == only]
        if not rows:
            raise ValueError(f"unknown reference group: {only!r}")
    header = (f"{'group':<9} {'mode':<5} {'theta':<6} {'expected':<11} "
              f"{'observed':<14} status")
    print(header, file=out)
    print("-" * len(header), file=out)
    for row in rows:
        family = parse_family_spec(row.family_spec)
        scheme = parse_scheme_spec(row.scheme_spec)
        weights = parse_weight_spec(row.weight_spec)
        horizon = row.horizon if horizon_cap is None else min(row.horizon, horizon_cap)
        rep = classify(family, None, scheme, weights, theta=row.theta,
                       eps=row.eps, grid=grid, horizon=horizon,
                       modes=(row.mode,))
        observed = rep.membership[row.mode]
        status = ("WARN (inconclusive)" if observed is None
                  else "ok" if observed == row.expect_member else "FAIL")
        warnings += observed is None
        failures += status == "FAIL"
        print(f"{row.group:<9} {row.mode:<5} {row.theta:<6g} "
              f"{labels[row.expect_member]:<11} {labels[observed]:<14} {status}",
              file=out)
    print(f"\n{len(rows)} rows: {failures} contradiction(s), "
          f"{warnings} inconclusive", file=out)
    return failures


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzysumm",
        description="Windowed weighted summability checks for fuzzy-valued "
                    "function sequences.")
    sub = parser.add_subparsers(dest="command")

    # an option not given stays out of the namespace: the defaults live in
    # RunConfig and reproduce()
    runp = sub.add_parser("run", argument_default=argparse.SUPPRESS,
                          help="classify one family/scheme/weights setup")
    runp.add_argument("--family", dest="family_spec", required=True,
                      help="family spec, e.g. ex3.2")
    runp.add_argument("--scheme", dest="scheme_spec", help="scheme spec")
    runp.add_argument("--weights", dest="weight_spec", help="weight spec")
    runp.add_argument("--theta", dest="thetas",
                      help="comma list of orders in (0,1]")
    runp.add_argument("--eps", type=float)
    runp.add_argument("--grid", dest="grid_spec", help="a,b,count")
    runp.add_argument("--horizon", type=int)
    runp.add_argument("--modes", help="subset of sp,abs,ord,tauberian")
    runp.add_argument("--out-dir")
    runp.add_argument("--json", dest="json_path")
    runp.add_argument("--csv", dest="csv_path")

    repp = sub.add_parser("reproduce", argument_default=argparse.SUPPRESS,
                          help="replay the built-in reference table")
    repp.add_argument("--only", help="single reference group id")
    repp.add_argument("--horizon-cap", type=int,
                      help="cap every canned horizon (smoke runs)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    options = vars(parser.parse_args(argv))
    command = options.pop("command")
    if command is None:
        parser.print_usage()
        return 2
    try:
        if command == "run":
            if "thetas" in options:
                options["thetas"] = tuple(
                    float(t) for t in options["thetas"].split(",") if t)
            if "modes" in options:
                options["modes"] = tuple(
                    m.strip() for m in options["modes"].split(",") if m.strip())
            result = run(RunConfig(**options))
            print(f"wrote {result['artifacts']['csv']} and "
                  f"{result['artifacts']['json']}")
            return 0
        return 1 if reproduce(**options) else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
