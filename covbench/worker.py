"""One workload in one fresh process: set up, warm up, time, check.

Started by run.py, never by hand.  The parent passes its monotonic clock
reading taken just before the start (--t0), so setup_s covers interpreter
start, the import of covercones and the generation of the inputs.  The
result is one JSON object on stdout.

A run is a fixed item list: one untimed warm-up pass, then whole timed
passes over the same items in the same interleaved order, with
gc.collect() before each item, until the next pass would end past
--seconds (at least MIN_PASSES).  Every call's output is checked after the
call, outside the timed interval.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import oracles

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
WALL_LIMIT_S = 140.0      # stop starting passes after this, whatever --seconds


def import_covercones():
    """covercones.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import covercones.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import covercones from {src}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: covercones imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def call(cli, c):
    """(seconds, exit code or error text, stdout) of one in-process call."""
    sys.stdin = io.StringIO(c.text)
    out, err = io.StringIO(), io.StringIO()
    argv = [c.command, "-", "--json", *c.flags]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:       # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = sys.__stdin__
    return elapsed, code, out.getvalue()


class Run:
    def __init__(self, cli, items):
        self.cli = cli
        self.items = items
        self.refs = {it.name: oracles.Reference(it.graph) for it in items}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}          # (item, call index) -> report digest
        self.consistent = True

    def item(self, it):
        """Run one item's calls; returns their summed time."""
        total = 0.0
        for k, c in enumerate(it.calls):
            elapsed, code, stdout = call(self.cli, c)
            total += elapsed
            self.attempted += 1
            problems = oracles.check_report(c.command, c.flags, code, stdout,
                                            self.refs[it.name])
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{it.name} {c.command}: {problems}")
                continue
            digest = json.loads(stdout)["digest"]
            if self.digests.setdefault((it.name, k), digest) != digest:
                self.consistent = False
                self.problems.append(f"{it.name} {c.command}: output changed "
                                     "between passes")
        return total

    def one_pass(self, tracer=None):
        times = []
        for it in self.items:
            gc.collect()
            if tracer is not None:
                tracer.active = True
            times.append(self.item(it))
            if tracer is not None:
                tracer.active = False
        return times


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = import_covercones()
    items = inputs.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import selftest
    selftest_results = selftest.run(cli)
    run = Run(cli, items)
    run.one_pass()                       # warm-up, untimed

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    passes, summaries = [], []
    started = time.monotonic()
    while True:
        if tracer is not None:
            tracer.reset()
        t = time.monotonic()
        passes.append(run.one_pass(tracer))
        last = time.monotonic() - t
        if tracer is not None:
            summaries.append(tracer.summary())
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and elapsed + last > args.seconds:
            break
        if time.monotonic() - args.t0 > WALL_LIMIT_S:
            break

    medians = [statistics.median(p[i] for p in passes)
               for i in range(len(items))]
    result = {
        "setup_s": setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "consistent": run.consistent,
        "selftest_passed": selftest.passed(selftest_results),
        "problems": run.problems,
        "passes": len(passes),
        "pass_s": [sum(p) for p in passes],
        "measured_s": time.monotonic() - started,
        "items": {it.name: m for it, m in zip(items, medians)},
        "items_per_s": len(items) / sum(medians),
        "latency_p50_ms": statistics.median(medians) * 1000.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = {}
        for name in summaries[0]:
            values = [s[name] for s in summaries]
            if name.endswith("self_s"):
                layers[name] = statistics.median(values)
            else:
                layers[name] = values[0]
                if any(v != values[0] for v in values):
                    result["consistent"] = False
                    result["problems"].append(f"{name} differs between passes")
        result["layers"] = layers
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
