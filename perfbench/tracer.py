"""Per-layer tracing of fuzzysumm from outside the package.

The layers are the package modules.  ``install`` replaces each traced
public function in every namespace where a caller looks its name up
(``summability`` and ``tauberian`` import most of them by name), the
traced methods on their classes, and ``profile`` on each family instance
(a frozen-dataclass field) as the family is parsed.  Nothing inside
``src/`` is changed.

A wrapper records a span (layer, start, end, parent span) and, after the
span closes, the few argument values its counters need.  Spans stay in
memory; ``layer_metrics`` reduces them when the run ends.  A layer's self
time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np

# Per-layer metrics: (name, unit, end-to-end metric it should move, on
# which workloads).  BENCHMARK.json lists the same names and units.
LAYER_METRICS = [
    ("sequences.profile.calls", "count", "wall_s", "sparse-pow2"),
    ("sequences.profile.indices", "count", "wall_s", "sparse-pow2"),
    ("sequences.profile.self_s", "s", "wall_s", "sparse-pow2"),
    ("sequences.int_root.self_s", "s", "wall_s", "sparse-pow2"),
    ("numbers.profile_distance.calls", "count", "wall_s", "dense-trailing, sparse-pow2"),
    ("numbers.profile_distance.elements", "count", "wall_s", "dense-trailing, sparse-pow2"),
    ("numbers.profile_distance.self_s", "s", "wall_s", "dense-trailing, sparse-pow2"),
    ("numbers.fuzzy_ops.calls", "count", "wall_s", "tauberian-scan, ord part of the sweeps"),
    ("numbers.fuzzy_ops.self_s", "s", "wall_s", "tauberian-scan, ord part of the sweeps"),
    ("schemes.weights_values.calls", "count", "wall_s", "dense-trailing"),
    ("schemes.weights_values.indices", "count", "wall_s", "dense-trailing"),
    ("schemes.weights_values.self_s", "s", "wall_s", "dense-trailing"),
    ("schemes.prefix.self_s", "s", "peak_rss_mb", "sparse-pow2"),
    ("schemes.prefix.max_k", "count", "peak_rss_mb", "sparse-pow2"),
    ("schemes.prefix.bytes_computed", "bytes", "peak_rss_mb", "sparse-pow2"),
    ("schemes.window.calls", "count", "wall_s", "tauberian-scan"),
    ("schemes.ratio_condition.self_s", "s", "wall_s", "tauberian-scan"),
    ("summability.abs.calls", "count", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.abs.indices_streamed", "count", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.abs.self_s", "s", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.sp.calls", "count", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.sp.indices_streamed", "count", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.sp.self_s", "s", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.ord.calls", "count", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.ord.indices_streamed", "count", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.ord.self_s", "s", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.indices_unique", "count", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.reuse_ratio", "ratio", "wall_s", "sparse-pow2, dense-trailing"),
    ("summability.verdict.calls", "count", "wall_s", "all (small)"),
    ("summability.verdict.self_s", "s", "wall_s", "all (small)"),
    ("summability.classify.self_s", "s", "wall_s", "all (small)"),
    ("tauberian.scan.calls", "count", "wall_s, peak_rss_mb", "tauberian-scan"),
    ("tauberian.scan.pairs_checked", "count", "wall_s, peak_rss_mb", "tauberian-scan"),
    ("tauberian.scan.violations_materialized", "count", "wall_s, peak_rss_mb", "tauberian-scan"),
    ("tauberian.scan.self_s", "s", "wall_s, peak_rss_mb", "tauberian-scan"),
    ("tauberian.identity.calls", "count", "wall_s", "tauberian-scan"),
    ("tauberian.identity.self_s", "s", "wall_s", "tauberian-scan"),
    ("tauberian.identity.max_deviation", "distance", "wall_s", "tauberian-scan"),
    ("cli.run.self_s", "s", "wall_s", "sparse-pow2, dense-trailing"),
    ("cli.artifact_bytes", "bytes", "wall_s", "sparse-pow2, dense-trailing"),
    ("cli.parse.self_s", "s", "setup_s", "all"),
    ("trace.overhead_s", "s", "(tracing cost, not a program metric)", "all"),
]

# Counts a program change must not make nondeterministic: two traced
# runs of the same code and config must agree on them exactly.
EXACT_COUNTS = (
    "sequences.profile.indices",
    "numbers.profile_distance.elements",
    "summability.abs.indices_streamed",
    "summability.sp.indices_streamed",
    "summability.ord.indices_streamed",
    "tauberian.scan.violations_materialized",
    "schemes.prefix.max_k",
)

_STREAMING = ("summability.abs", "summability.sp", "summability.ord")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []        # [layer, start, end, parent index or -1]
        self._open = []        # indices of the spans on the call stack
        self.counts = defaultdict(int)      # counted metrics by name
        self.intervals = defaultdict(list)   # streaming layer -> [(lo, hi)]
        self.scans = []        # (lam, n0, horizon) per slow-decrease scan
        self.max_k = 0
        self.max_deviation = 0.0

    def wrap(self, layer, fn, hook=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # ----- reduction --------------------------------------------------

    def layer_times(self):
        """(calls, self time) per layer."""
        child = [0.0] * len(self.spans)
        for layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (layer, t0, t1, _) in enumerate(self.spans):
            calls, self_s = out.get(layer, (0, 0.0))
            out[layer] = (calls + 1, self_s + (t1 - t0) - child[i])
        return out

    def layer_metrics(self, artifact_bytes=0):
        """Every per-layer metric of LAYER_METRICS except trace.overhead_s,
        which needs an untraced run."""
        times = self.layer_times()
        streamed = {layer: sum(hi - lo + 1 for lo, hi in self.intervals[layer])
                    for layer in _STREAMING}
        unique = _union_length(iv for layer in _STREAMING
                               for iv in self.intervals[layer])
        counted = dict(self.counts)
        counted.update({
            "schemes.prefix.max_k": self.max_k,
            "schemes.prefix.bytes_computed": 8 * self.max_k,
            "summability.indices_unique": unique,
            "summability.reuse_ratio":
                sum(streamed.values()) / unique if unique else 0.0,
            "tauberian.scan.pairs_checked": sum(_scan_pairs(*s) for s in self.scans),
            "tauberian.identity.max_deviation": self.max_deviation,
            "cli.artifact_bytes": artifact_bytes,
        })
        counted.update((layer + ".indices_streamed", n) for layer, n in streamed.items())
        m = {}
        for name, _, _, _ in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            calls, self_s = times.get(layer, (0, 0.0))
            if kind == "calls":
                m[name] = calls
            elif kind == "self_s":
                m[name] = self_s
            elif name != "trace.overhead_s":
                m[name] = counted.get(name, 0)
        return m

    def span_records(self):
        return [{"layer": layer, "start": t0, "end": t1, "parent": parent}
                for layer, t0, t1, parent in self.spans]


def _union_length(intervals) -> int:
    total, reach = 0, 0
    for lo, hi in sorted(set(intervals)):
        if hi <= reach:
            continue
        total += hi - max(lo, reach + 1) + 1
        reach = hi
    return total


def _scan_pairs(lam, n0, horizon) -> int:
    """(n, k) pairs a slow-decrease scan compares: n0 < n <= horizon,
    n < k <= min(floor(lam*n), horizon)."""
    ns = np.arange(n0 + 1, horizon + 1, dtype=np.int64)
    tops = np.minimum(np.floor(lam * ns).astype(np.int64), horizon)
    return int(np.maximum(tops - ns, 0).sum())


def install(tracer: Tracer) -> None:
    """Route the traced public functions of fuzzysumm through ``tracer``."""
    import fuzzysumm
    from fuzzysumm import cli, numbers, schemes, sequences, summability, tauberian

    namespaces = (fuzzysumm, numbers, sequences, schemes, summability,
                  tauberian, cli)

    def patch(fn, layer, hook=None):
        wrapped = tracer.wrap(layer, fn, hook)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, name, wrapped)

    def patch_method(cls, name, layer, hook=None):
        setattr(cls, name, tracer.wrap(layer, vars(cls)[name], hook))

    counts = tracer.counts

    def count_ks(key, pos):
        def hook(args, kwargs, result):
            counts[key] += len(_arg(args, kwargs, pos, "ks"))
        return hook

    profile_hook = count_ks("sequences.profile.indices", 0)

    def trace_family(args, kwargs, family):
        object.__setattr__(family, "profile",
                           tracer.wrap("sequences.profile", family.profile,
                                       profile_hook))

    def distance_elements(args, kwargs, result):
        counts["numbers.profile_distance.elements"] += int(np.size(result))

    def prefix_request(args, kwargs, result):
        tracer.max_k = max(tracer.max_k, int(_arg(args, kwargs, 1, "k_max")))

    def window_range(layer, lo_pos):
        def hook(args, kwargs, result):
            lo = int(_arg(args, kwargs, lo_pos, "lo"))
            hi = int(_arg(args, kwargs, lo_pos + 1, "hi"))
            if hi >= lo:
                tracer.intervals[layer].append((lo, hi))
        return hook

    def sp_range(args, kwargs, result):
        k_max = int(_arg(args, kwargs, 4, "k_max"))
        if k_max >= 1:
            tracer.intervals["summability.sp"].append((1, k_max))

    def scan_record(args, kwargs, witness):
        tracer.scans.append((float(_arg(args, kwargs, 3, "lam")),
                             int(_arg(args, kwargs, 4, "n0")),
                             int(_arg(args, kwargs, 5, "horizon"))))
        counts["tauberian.scan.violations_materialized"] += len(witness.violations)

    def identity_value(args, kwargs, deviation):
        if math.isnan(deviation) or deviation > tracer.max_deviation:
            tracer.max_deviation = deviation

    patch(sequences.parse_family_spec, "cli.parse", trace_family)
    for fn in (schemes.parse_scheme_spec, schemes.parse_weight_spec,
               cli._parse_grid):
        patch(fn, "cli.parse")
    patch(cli.run, "cli.run")
    for fn in (sequences.is_square, sequences.is_cube):
        patch(fn, "sequences.int_root")
    patch(numbers.triangular_profile_distance, "numbers.profile_distance",
          distance_elements)
    for fn in (numbers.triangular, numbers.distance, numbers.add, numbers.scale):
        patch(fn, "numbers.fuzzy_ops")
    patch_method(schemes.WeightSequence, "values", "schemes.weights_values",
                 count_ks("schemes.weights_values.indices", 1))
    patch_method(schemes.WeightSequence, "ensure", "schemes.prefix",
                 prefix_request)
    patch_method(schemes.BetaGammaScheme, "window", "schemes.window")
    patch(schemes.ratio_condition, "schemes.ratio_condition")
    patch(summability.weighted_deviation_sum, "summability.abs",
          window_range("summability.abs", 4))
    patch(summability.deviation_count, "summability.sp", sp_range)
    patch(summability.window_fuzzy_mean, "summability.ord",
          window_range("summability.ord", 2))
    patch(summability.verdict, "summability.verdict")
    patch(summability.classify, "summability.classify")
    patch(tauberian.slowly_decreasing_check, "tauberian.scan", scan_record)
    for fn in (tauberian.dilation_mean_identity, tauberian.shrink_mean_identity):
        patch(fn, "tauberian.identity", identity_value)
    patch(tauberian.tauberian_experiment, "tauberian.experiment")
