"""The covercones benchmark.

    python3 covbench/run.py --workload rees --seed 1 --seconds 20 --trace 0
    python3 covbench/run.py --workload all --seed 1

With one workload it runs that workload in a fresh single-threaded worker
process (PYTHONHASHSEED=0), after SETUP_PROBES more fresh processes that
only set up, and prints one JSON line last: {"correct", "attempted",
"failed", "metrics"}.  --trace 0 gives the end-to-end metrics, --trace 1
the per-layer ones from a traced run.  Full results go to covbench/out/.

With --workload all it runs every workload untraced and then traced, one
at a time, prints every metric by name and unit with the tracing overhead,
and writes BENCHMARK.json from spec.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
DEADLINE_S = 170.0          # the whole invocation, workers included


class WorkerError(RuntimeError):
    pass


def _worker(args, deadline, extra=()):
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise WorkerError(proc.stderr.strip()[-2000:] or
                          f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args):
    """Full result of one workload run (setup probes plus the worker)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [_worker(args, deadline, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = _worker(args, deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def result_line(result, trace):
    """The last output line: correctness, counts and the metrics."""
    if trace:
        metrics = {name: {"value": result["layers"][name],
                          "unit": tracer.unit(name)}
                   for name in tracer.metric_names}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit, _, _ in spec.END_TO_END}
    correct = (result["consistent"] and result["selftest_passed"]
               and result["failed"] == 0)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def save(result, args):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["layer", "function", "parent", "start_s",
                                   "end_s"], "spans": spans}, fh)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def run_all(args):
    rows = {}
    for trace in (0, 1):
        for name, _ in spec.WORKLOADS:
            one = argparse.Namespace(workload=name, seed=args.seed,
                                     seconds=args.seconds, trace=trace)
            result = run_workload(one)
            save(result, one)
            rows[name, trace] = result
            line = result_line(result, trace)
            print(f"# {name} trace={trace}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']} "
                  f"passes={result['passes']}", flush=True)
    for name, _ in spec.WORKLOADS:
        plain, traced = rows[name, 0], rows[name, 1]
        print(f"\n{name}")
        for metric, unit, better, _ in spec.END_TO_END:
            print(f"  {metric:40} {plain[metric]:12.4f} {unit}")
        slowest = max(plain["items"], key=plain["items"].get)
        print(f"  {'slowest item ' + slowest:40} "
              f"{plain['items'][slowest] * 1000:12.1f} ms")
        print(f"  {'tracing overhead items_per_s':40} "
              f"{plain['items_per_s'] - traced['items_per_s']:12.4f} 1/s "
              f"(traced {traced['items_per_s']:.4f})")
        for metric in tracer.metric_names:
            print(f"  {metric:40} {traced['layers'][metric]:12.4f} "
                  f"{tracer.unit(metric)}")
    spec.write(ROOT / "BENCHMARK.json")
    print(f"\nwrote {ROOT / 'BENCHMARK.json'}")
    ok = all(result_line(r, t)["correct"] and r["failed"] == 0
             for (_, t), r in rows.items())
    return 0 if ok else 1


def main():
    names = [n for n, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "covercones" / "__init__.py").is_file():
        print(f"error: no covercones sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(result, args)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
