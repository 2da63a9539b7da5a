"""fuzzysumm benchmark: run workloads in fresh child processes, check
their outputs against independent oracles, and report the metrics.

    python3 perfbench/run.py --workload sparse-pow2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --size smoke      # quick self-check

One parent process runs the children one at a time (never two at once),
each a fresh interpreter (perfbench/child.py).  A run starts
SETUP_PROBES children that only set up, then workload children, each
after one more set-up probe, until ``--seconds`` have passed and at
least MIN_RUNS have finished.

--trace 0 reports the end-to-end metrics: wall_s (median entry-call
time), setup_s (median time from spawning a fresh interpreter to ready,
over every child) and peak_rss_mb (median child peak RSS).  The summary
above the last line also gives the slowest run, the sample count and
failed_share, which the result line carries as failed/attempted.

--trace 1 alternates untraced and traced children and reports the
per-layer metrics of perfbench/tracer.py (medians over the traced
children) plus trace.overhead_s.  It fails the run when a traced report
differs byte for byte from the untraced one, or when an exact count
differs between two traced children or from an earlier traced run of
the same workload, size and sources.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A record with the samples, the full
config, nproc, Python and numpy versions, the git commit and a digest
of the sources is written to .perfbench-out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from oracles import make_oracle  # noqa: E402
from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SETUP_PROBES = 3
MIN_RUNS = 2
MIN_TRACED = 2
# No child starts once a run has used this long, so that every run ends
# within 180 s.
BUDGET_S = 150.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_child(cfg: dict, phase: str, trace: bool, out_dir: Path, timeout: float):
    """Spawn one child; return (record, error text or None)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    job = {"config": cfg, "phase": phase, "trace": trace, "out_dir": str(out_dir)}
    spawned = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, (f"child exited {proc.returncode}:\n"
                      + proc.stderr[-2000:])
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"child printed no result:\n{proc.stdout[-500:]}"
    record["setup_s"] = record["ready"] - spawned
    return record, None


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than twenty samples."""
    n = len(values)
    ordered = sorted(values)
    if n < 20:
        return "max", ordered[-1]
    pct = int(100 * (1 - 10 / n))
    return f"p{pct}", statistics.quantiles(ordered, n=100)[pct - 1]


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool):
    started = monotonic()
    cfg = make_config(name, size, seed)
    oracle = make_oracle(cfg)
    work = OUT / "work" / f"{name}-{size}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    setups, runs, traced = [], [], []
    problems = []      # every failure, probes included
    attempted = failed = 0
    spawned = 0

    def child(phase, traced_child):
        """One child; the record of a completed child (its timings stand
        even when its output fails the check), else None."""
        nonlocal spawned
        spawned += 1
        out_dir = work / f"{spawned:03d}-{phase}{'-traced' if traced_child else ''}"
        timeout = max(5.0, BUDGET_S + 20.0 - (monotonic() - started))
        record, error = run_child(cfg, phase, traced_child, out_dir, timeout)
        if record is not None:
            setups.append(record["setup_s"])
            if phase == "run":
                try:
                    errors = oracle(Path(record["report"]))
                except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                    errors = [f"report does not have the expected shape: {exc!r}"]
                if errors:
                    error = "output check failed:\n  " + "\n  ".join(errors)
        if error is not None:
            problems.append(f"[{out_dir.name}] {error}")
        return record, error is None

    for _ in range(SETUP_PROBES):
        child("setup", False)
    measure_from = monotonic()
    last = 0.0
    while True:
        elapsed = monotonic() - measure_from
        enough = (elapsed >= seconds and len(runs) + len(traced) >= MIN_RUNS
                  and (not trace or (runs and len(traced) >= MIN_TRACED)))
        if enough or monotonic() - started + last > BUDGET_S:
            break
        # Traced runs alternate with untraced ones, starting traced.
        want_traced = trace and len(traced) <= len(runs)
        t0 = monotonic()
        # A set-up probe beside every run spreads the set-up samples over
        # the whole measuring time, not just its first seconds.
        child("setup", False)
        record, ok = child("run", want_traced)
        last = monotonic() - t0
        attempted += 1
        failed += not ok
        if record is not None:
            (traced if want_traced else runs).append(record)
        elif failed >= 3 and not (runs or traced):
            break

    if trace and runs and traced:
        reference = Path(runs[0]["report"]).read_bytes()
        for rec in traced:
            if Path(rec["report"]).read_bytes() != reference:
                problems.append(f"traced report {rec['report']} differs from "
                                f"untraced {runs[0]['report']}")
        for key in EXACT_COUNTS:
            seen = {rec["layers"][key] for rec in traced}
            if len(seen) > 1:
                problems.append(f"exact count {key} drifted: {sorted(seen)}")
    return {"config": cfg, "setups": setups, "runs": runs, "traced": traced,
            "attempted": attempted, "failed": failed,
            "problems": problems, "work_dir": str(work)}


def metrics_of(result: dict, trace: bool):
    """The metrics dict of the result line, or None without samples."""
    runs, traced = result["runs"], result["traced"]
    if not runs or not result["setups"] or (trace and not traced):
        return None
    median = statistics.median
    if not trace:
        return {
            "wall_s": {"value": median(r["wall_s"] for r in runs), "unit": "s"},
            "setup_s": {"value": median(result["setups"]), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
        }
    out = {}
    for name, unit, _, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = (median(r["wall_s"] for r in traced)
                     - median(r["wall_s"] for r in runs))
        elif unit == "s":
            value = median(r["layers"][name] for r in traced)
        else:  # counts repeat across traced runs; see EXACT_COUNTS
            value = traced[0]["layers"][name]
        out[name] = {"value": value, "unit": unit}
    return out


def summary_lines(name: str, result: dict, trace: bool):
    runs = result["runs"]
    walls = [r["wall_s"] for r in runs]
    lines = [f"[{name}] config: {json.dumps(result['config'], sort_keys=True)}"]
    if walls:
        label, tail = tail_percentile(walls)
        lines.append(
            f"[{name}] wall_s median {statistics.median(walls):.4f} s, "
            f"{label} {tail:.4f} s, n={len(walls)} untraced runs")
    if result["setups"]:
        lines.append(f"[{name}] setup_s median {statistics.median(result['setups']):.4f} s, "
                     f"n={len(result['setups'])} fresh interpreters")
    if runs:
        lines.append(f"[{name}] peak_rss_mb median "
                     f"{statistics.median(r['peak_rss_mb'] for r in runs):.1f} MB")
    lines.append(f"[{name}] failed_share {result['failed']}/{result['attempted']} "
                 f"= {result['failed'] / max(1, result['attempted']):.3f}")
    if trace and result["traced"]:
        layers = result["traced"][0]["layers"]
        idle = sorted({k.rpartition(".")[0] for k, v in layers.items()
                       if v == 0 and k.endswith((".calls", ".self_s"))})
        if idle:
            lines.append(f"[{name}] layers not entered on this workload "
                         f"(their metrics read 0): {', '.join(idle)}")
    for problem in result["problems"]:
        lines.append(f"[{name}] FAILED: {problem}")
    return lines


def source_digest() -> str:
    """sha256 of the package sources, so records of the same code can be
    matched without git."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "fuzzysumm"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def meta() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(),
            "sources": source_digest(), "platform": platform.platform()}


def earlier_count_drift(name: str, size: str, sources: str, layers: dict):
    """Exact counts that differ from an earlier traced run of the same
    workload and size on the same sources (any seed: the counts do not
    depend on it)."""
    problems = []
    for path in sorted((OUT / "results").glob(f"{name}-{size}-seed*-trace1.json")):
        try:
            old = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if old.get("meta", {}).get("sources") != sources or not old.get("traced"):
            continue
        for key in EXACT_COUNTS:
            before = old["traced"][0]["layers"][key]
            if before != layers[key]:
                problems.append(f"exact count {key} is {layers[key]}, "
                                f"was {before} in {path.name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("measured", "smoke"), default="measured")
    args = parser.parse_args(argv)
    # subprocess.run kills and reaps its child on any exception, so turning
    # SIGTERM into SystemExit leaves no child behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "fuzzysumm" / "__init__.py").is_file():
        print(f"error: no fuzzysumm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    info = meta()
    print(f"meta: {json.dumps(info, sort_keys=True)}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.size, args.seed, args.seconds, trace)
        for line in summary_lines(name, result, trace):
            print(line)
        if result["traced"]:
            drift = earlier_count_drift(name, args.size, info["sources"],
                                        result["traced"][0]["layers"])
            result["problems"] += drift
            for problem in drift:
                print(f"[{name}] FAILED: {problem}")
        m = metrics_of(result, trace)
        record = dict(result, meta=info, metrics=m, seconds=args.seconds)
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{name}-{args.size}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(record, indent=1))
        if m is None:
            print(f"error: {name}: no successful run to measure", file=sys.stderr)
            return 1
        correct = correct and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
