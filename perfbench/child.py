"""One benchmark child: a fresh interpreter that sets up one workload and,
unless it is a set-up probe, runs it once.

    python3 perfbench/child.py '<json job>'

The job holds ``config`` (from workloads.make_config), ``phase``
("setup" or "run"), ``trace`` (bool) and ``out_dir``.  The child prints
one JSON line: its ready time on CLOCK_MONOTONIC (the parent took its
spawn time on the same clock), the wall time of the entry call, its
peak RSS, the report path and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    VmHWM belongs to the address space exec created.  ru_maxrss is the
    fallback only: Linux carries the spawning parent's peak into it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(job: dict) -> dict:
    cfg = job["config"]
    out_dir = Path(job["out_dir"])
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if job["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    import fuzzysumm
    from fuzzysumm import cli

    # Set-up: parse the specs (lambda_scheme runs its 4096-step check)
    # and build the grid and, for the CLI, its run config.
    a, b, count = cfg["grid"]
    family = fuzzysumm.parse_family_spec(cfg["family"])
    scheme = fuzzysumm.parse_scheme_spec(cfg["scheme"])
    weights = fuzzysumm.parse_weight_spec(cfg["weights"])
    grid = fuzzysumm.uniform_grid(a, b, count)
    if cfg["entry"] == "cli.run":
        run_config = cli.RunConfig(
            family_spec=cfg["family"], scheme_spec=cfg["scheme"],
            weight_spec=cfg["weights"], thetas=tuple(cfg["thetas"]),
            eps=cfg["eps"], horizon=cfg["horizon"],
            grid_spec=f"{a!r},{b!r},{count}", modes=tuple(cfg["modes"]),
            out_dir=str(out_dir))
    result = {"ready": monotonic()}
    if job["phase"] == "setup":
        return result

    report_path = out_dir / "report.json"
    if cfg["entry"] == "cli.run":
        t0 = time.perf_counter()
        cli.run(run_config)
        wall = time.perf_counter() - t0
        artifact_bytes = (report_path.stat().st_size
                          + (out_dir / "traces.csv").stat().st_size)
    else:
        t0 = time.perf_counter()
        report = fuzzysumm.tauberian_experiment(
            family, None, scheme, weights, grid, horizon=cfg["horizon"],
            scan_horizon=cfg["scan_horizon"])
        wall = time.perf_counter() - t0
        report_path.write_text(json.dumps(report.to_dict(), indent=2))
        artifact_bytes = 0
    result.update(wall_s=wall, report=str(report_path),
                  peak_rss_mb=peak_rss_mb())
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(artifact_bytes)
        (out_dir / "spans.json").write_text(json.dumps(tracer.span_records()))
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
