"""Workload definitions: what each benchmark child runs, at which size.

A workload turns a seed into one configuration.  The seed only moves the
two ends of the 5-point x grid inside the family domain [1, 2]; the index
ranges, ladders and therefore the amount of work do not depend on it.

Each workload has a ``measured`` size (the one the end-to-end numbers
come from) and a ``smoke`` size that runs in about a second, so the
harness and its oracles can be exercised without paying for a
measurement.
"""

from __future__ import annotations

import random

GRID_POINTS = 5
DOMAIN = (1.0, 2.0)
# The seed draws each grid end at most this far inside the domain.
GRID_JITTER = 0.25

WORKLOADS = {
    "sparse-pow2": {
        "entry": "cli.run",
        "why": ("README run example: only square indices deviate, windows "
                "[1, n^2] are re-summed ~29x, and the dense prefix cache sets "
                "peak memory"),
        "config": {"family": "ex3.2", "scheme": "pow:2", "weights": "recip5",
                   "thetas": [0.25, 1.0], "eps": 0.1,
                   "modes": ["sp", "abs", "ord"]},
        "sizes": {"measured": {"horizon": 4096}, "smoke": {"horizon": 256}},
    },
    "dense-trailing": {
        "entry": "cli.run",
        "why": ("every index deviates on trailing lambda:half windows with "
                "non-rational weights, so a sparse-support path is bypassed "
                "and weights and the distance kernel dominate"),
        "config": {"family": "ex4.1", "scheme": "lambda:half",
                   "weights": "harmonicplus", "thetas": [0.5, 1.0], "eps": 0.1,
                   "modes": ["sp", "abs", "ord"]},
        "sizes": {"measured": {"horizon": 1 << 22}, "smoke": {"horizon": 1 << 14}},
    },
    "tauberian-scan": {
        "entry": "tauberian_experiment",
        "why": ("the quadratic slow-decrease scan and its violation tuples "
                "dominate; the ord sweep over classical windows is tiny, so "
                "sweep-engine changes should not move it"),
        "config": {"family": "ex4.1", "scheme": "classical",
                   "weights": "const:1"},
        "sizes": {"measured": {"horizon": 4096, "scan_horizon": 2048},
                  "smoke": {"horizon": 512, "scan_horizon": 256}},
    },
}


def grid_ends(seed: int) -> tuple[float, float]:
    """The two grid ends drawn from ``seed``, inside the domain."""
    rng = random.Random(seed)
    a = DOMAIN[0] + GRID_JITTER * rng.random()
    b = DOMAIN[1] - GRID_JITTER * rng.random()
    return a, b


def make_config(name: str, size: str, seed: int) -> dict:
    """Full, JSON-ready configuration of one workload run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    spec = WORKLOADS[name]
    if size not in spec["sizes"]:
        raise ValueError(f"unknown size {size!r}")
    a, b = grid_ends(seed)
    cfg = {"workload": name, "size": size, "seed": seed, "entry": spec["entry"],
           "grid": [a, b, GRID_POINTS]}
    cfg.update(spec["config"])
    cfg.update(spec["sizes"][size])
    return cfg
