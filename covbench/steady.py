"""Steadiness of the benchmark across seeds and across repeated sets.

    python3 covbench/steady.py

For each workload in turn it makes two sets of runs with seeds 1..10, one
set right after the other.  Each run is `python3 covbench/run.py
--workload W --seed S --seconds RUN_SECONDS` exactly as the benchmark is
driven.  For each workload and end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4), the quartile spread as a
share of the median, the max/min ratio and the change of
the second set's median against the first, next to the metric's bound.
The full output is written to covbench/out/steady-<time>.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
SETS = 2


def one_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "max_over_min": max(values) / min(values)}


def main():
    bounds = {n: (b, better) for n, _, better, b in spec.END_TO_END}
    report = {"started": time.strftime("%Y-%m-%dT%H:%M:%S"), "workloads": {}}
    for workload, _ in spec.WORKLOADS:
        sets = [[one_run(workload, seed) for seed in SEEDS] for _ in range(SETS)]
        out = {"failed_share": [[r["failed"] / r["attempted"] for r in runs]
                                for runs in sets],
               "metrics": {}}
        print(f"\n{workload}: failed share per run "
              f"{sorted({s for f in out['failed_share'] for s in f})}", flush=True)
        for metric, unit, _, _ in spec.END_TO_END:
            bound, better = bounds[metric]
            rows = [summarize([r["metrics"][metric]["value"] for r in runs])
                    for runs in sets]
            entry = {"unit": unit, "bound": bound, "sets": rows}
            line = []
            for k, row in enumerate(rows, start=1):
                line.append(f"set{k} med {row['median']:.4g} q1 {row['q1']:.4g} "
                            f"q3 {row['q3']:.4g} spread {row['spread']:.3f} "
                            f"max/min {row['max_over_min']:.3f}")
            a, b = rows[0]["median"], rows[1]["median"]
            worse = (a - b) / a if better == "higher" else (b - a) / a
            entry["second_set_worse_by"] = worse
            line.append(f"second set worse by {worse:+.3f}")
            out["metrics"][metric] = entry
            print(f"  {metric:15} {unit:4} bound {bound:.2f} | " + " | ".join(line),
                  flush=True)
        report["workloads"][workload] = out
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
