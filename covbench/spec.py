"""What the benchmark measures: workloads, metrics, bounds.

BENCHMARK.json at the repository root is this module rendered by
`python3 covbench/run.py --workload all`.  The bounds come from the
steadiness runs recorded in covbench/README.md.
"""

import json

import tracer

COMMAND = ["python3", "covbench/run.py"]
PATHS = ["covbench"]
RUN_SECONDS = 20

WORKLOADS = [
    ("rees", "check-normal, check-gorenstein and Rees Hilbert bases of cover "
             "ideals: the only workload running semigroup membership and the "
             "Gorenstein box scan"),
    ("simis", "Simis Hilbert bases, Simis cones and symbolic generators of "
              "edge ideals: DD, triangulation and HB reduction without "
              "membership or LP"),
    ("polyhedra", "check-mfmc and check-tdi on bipartite and odd-cycle graphs: "
                  "basis-enumeration vertices() and the exact simplex dominate"),
    ("sweep", "all 122 six-vertex graphs through check-perfect, covers and "
              "cliques: parsing, combinatorics, rendering and per-call overhead"),
]

END_TO_END = [
    # (name, unit, better, bound)
    ("items_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]


def _per_layer():
    # less self time and less work are better; no per-layer metric has a bound
    return [{"name": name, "unit": tracer.unit(name), "better": "lower"}
            for name in tracer.metric_names]


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": _per_layer(),
    }


def write(path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
